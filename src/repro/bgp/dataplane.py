"""Data-plane resolution: from a client AS to its anycast site.

Given a converged control plane, a flow travels hop by hop — each AS
forwards toward the neighbour its chosen route was learned from
(:meth:`ConvergedState.next_hops
<repro.bgp.engine.ConvergedState.next_hops>`), multipath ASes hash the
flow over their tied set — until it reaches an AS holding an *injected*
route.  There, hot-potato (IGP shortest path from the ingress PoP)
picks the concrete anycast site, mirroring the paper's two-level
structure: BGP decides the inter-AS catchment, interior routing decides
the intra-AS catchment (S4.3).

The path RTT accumulates on the way: inter-AS link RTTs, intra-AS
backbone traversal for multi-PoP transits, and the site access link.

Forwarding is a function of the converged next-hop graph, so a
deployment resolves it once: one decision per transit AS, spread over
the static node table of
:meth:`~repro.topology.generator.Internet.transit_columns` by a few
gathers; pure-stub clients take their first hop in one array pass and
then advance a level at a time over that table (DESIGN.md, "Probe
plane: the forwarding table").
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.delta import LIVE
from repro.bgp.engine import ConvergedState
from repro.topology.generator import Internet
from repro.util.rng import stable_hash


@dataclass(frozen=True)
class ForwardingOutcome:
    """Where a client flow ends up and what it costs.

    Attributes:
        site_id: the anycast site that receives the flow.
        terminating_asn: the AS hosting that site's announcement.
        as_path: ASes traversed, client first, terminating AS last.
        rtt_ms: round-trip latency from the client AS border to the
            site (the client's last-mile is added by the measurement
            layer).
        ingress_pop: PoP at which the flow entered the terminating AS,
            or None for single-PoP hosts.
    """

    site_id: int
    terminating_asn: int
    as_path: Tuple[int, ...]
    rtt_ms: float
    ingress_pop: Optional[int]


_MISSING = object()


class _Terminal(NamedTuple):
    """The flow reaches ``site_id`` here.  ``add_ms`` is the hot-potato
    backbone leg plus the access link, summed before it is added to the
    path — the order ``rtt += igp + link`` evaluates."""

    site_id: int
    add_ms: float
    ingress_pop: Optional[int]


class _Nodes(NamedTuple):
    """One deployment's forwarding, a row per transit node and a last
    one for flows without a first hop (:meth:`DataPlane._node_table`)."""

    #: a moving node's hop; every other node holds its flows (adding
    #: 0.0, which changes no float) until ``add_ms`` closes them: the
    #: terminal's leg, NaN without a route — or at a moving node, where
    #: a flow still stands after the walk only if it loops
    next_node: np.ndarray
    transit_ms: np.ndarray
    link_ms: np.ndarray
    moving: np.ndarray
    add_ms: np.ndarray
    site: np.ndarray
    #: a split, or a hop to a stub live this run: :meth:`DataPlane.forward`
    scalar: np.ndarray


class DataPlane:
    """Resolves client flows against one converged control plane.

    Each AS is asked where it forwards once (:meth:`_choice`); the hop
    that follows — the topology's :class:`~repro.topology.generator.Hop`
    or a hot-potato terminal — is fixed by the AS and the PoP the flow
    entered at.  A flow's RTT is summed in its own client-first order
    (``rtt += transit; rtt += link`` per hop, then the terminal's
    ``add_ms``), whether :meth:`forward` walks one flow or
    :meth:`resolve_flows` advances all of them a level at a time.

    ``flow_nonce`` seeds the per-flow ECMP hash of multipath ASes; two
    data planes built over the same converged state but with different
    nonces can map the same flow differently, which models the ECMP
    rehashing that breaks preference consistency in the paper's
    measurements (S4.2, "Multi-path routing").
    """

    def __init__(self, internet: Internet, converged: ConvergedState, flow_nonce: int = 0):
        self.internet = internet
        self.converged = converged
        self.flow_nonce = flow_nonce
        #: Per AS its :meth:`_choice`, asked once.
        self._choices: dict = {}
        #: Finished walks: per client ASN the outcome all its flows
        #: share, per ``(ASN, flow key)`` that of a flow that was hashed.
        self._memo: dict = {}
        #: The deployment's :class:`_Nodes`, built on first bulk use.
        self._nodes: Optional[_Nodes] = None
        #: Per host AS its injected ``site_pops`` and their
        #: :meth:`_terminal` memo by entry PoP (from the graph's tables).
        self._terminals: dict = {}

    def resolve_flows(self, asns: Sequence[int], flow_keys: Sequence):
        """Forward many flows at once: the columns ``(sites, rtts)`` — per
        flow :meth:`forward`'s ``site_id`` and ``rtt_ms``, RTT NaN (site
        0) where it answers None.  Pure stubs go through as arrays, a
        row per stub: the first hop from the run's stub choices and the
        static :class:`~repro.topology.generator.StubColumns`, then at
        most one level per transit AS and one more over
        :meth:`_node_table`.  Flows of a stub live this run or hashing
        at home, flows that reach a split, other clients and plain-dict
        states take :meth:`forward`."""
        sites = np.zeros(len(asns), dtype=np.int64)
        rtts = np.full(len(asns), math.nan)
        per_flow = np.ones(len(asns), dtype=bool)
        choices = self.converged.stub_choices()
        if choices is not None:
            best, tied = choices
            cols = self.internet.stub_columns()
            flows, rows, inverse = self._target_rows(asns)
            col = best[rows]
            cell = np.maximum(col, 0) * len(cols.position) + rows
            table = self._node_table()
            node = np.where(col >= 0, cols.node.take(cell), len(table.moving) - 1)
            rtt = cols.transit_ms.take(cell) + cols.link_ms.take(cell)
            for _ in range(len(self.internet.transit_columns().slot) + 1):
                if not table.moving[node].any():
                    break
                rtt += table.transit_ms[node]
                rtt += table.link_ms[node]
                node = table.next_node[node]
            rtt += table.add_ms[node]
            alone = (col == LIVE) | (tied[rows] & cols.multipath[rows]) | table.scalar[node]
            rtts[flows] = np.where(alone, math.nan, rtt)[inverse]
            sites[flows] = np.where(alone, 0, table.site[node])[inverse]
            per_flow[flows] = alone[inverse]
        for i in np.flatnonzero(per_flow).tolist():
            outcome = self.forward(asns[i], flow_keys[i])
            if outcome is not None:
                sites[i], rtts[i] = outcome.site_id, outcome.rtt_ms
        return sites, rtts

    def forward(self, client_asn: int, flow_key) -> Optional[ForwardingOutcome]:
        """Trace one flow (``flow_key`` must be hashable); returns None
        when the client has no route (e.g. a peers-only configuration
        that cannot reach it).  Each client AS is walked once — once
        per flow if its walk hashes the flow."""
        outcome = self._memo.get(client_asn, _MISSING)
        if outcome is _MISSING:
            key = (client_asn, flow_key)
            outcome = self._memo.get(key, _MISSING)
            if outcome is _MISSING:
                outcome, hashed = self._walk(client_asn, flow_key)
                self._memo[key if hashed else client_asn] = outcome
        return outcome

    def next_hop(self, asn: int, flow_key) -> Tuple[int, bool]:
        """The neighbour ``asn`` (which must hold a route) forwards
        this flow to — the anycast origin ASN where the flow is
        delivered — and whether it hashed the flow over a tied set to
        pick it."""
        best, tied = self._choice(asn)
        if tied is None:
            return best, False
        return tied[stable_hash(flow_key, asn, self.flow_nonce) % len(tied)], True

    # -- internals ---------------------------------------------------------

    def _walk(self, client_asn: int, flow_key):
        """Follow the choices from the client; returns the outcome and
        whether a split hashed the flow on the way."""
        cur = client_asn
        entry = self.internet.entry_pop(cur, None)
        rtt = 0.0
        hops = [cur]
        hashed = False
        while True:
            if self._choice(cur) is None:
                return None, hashed
            nxt, split = self.next_hop(cur, flow_key)
            hashed |= split
            if nxt == self.converged.origin_asn:
                site_id, add_ms, ingress_pop = self._terminal(cur, entry)
                rtt += add_ms
                return ForwardingOutcome(site_id, cur, tuple(hops), rtt, ingress_pop), hashed
            nxt, transit_ms, link_ms, entry = self.internet.hop(cur, entry, nxt)
            if nxt in hops:
                # A forwarding loop across inconsistent multipath
                # choices; the flow is effectively blackholed.
                return None, hashed
            rtt += transit_ms
            rtt += link_ms
            cur = nxt
            hops.append(cur)

    def _node_table(self) -> _Nodes:
        """The deployment's :class:`_Nodes`: one :meth:`_choice` per
        transit AS, all at once, spread over its nodes by gathers."""
        if self._nodes is None:
            cols = self.internet.transit_columns()
            offset = np.full(len(cols.slot) + 1, -1)  # a hop's slot offset
            terminal, scalar = np.zeros((2, len(cols.slot) + 1), dtype=bool)
            self._choose(cols.slot)
            for i, (asn, slots) in enumerate(cols.slot.items()):
                choice = self._choices[asn]
                if choice is None:
                    continue
                best, tied = choice
                if tied is None and best == self.converged.origin_asn:
                    terminal[i] = True
                elif tied is None and best in slots:
                    offset[i] = slots[best]
                else:
                    scalar[i] = True  # a split, or a stub live this run
            node_as = np.append(cols.node_as, -1)  # the last row has no AS
            k = offset[node_as]
            hop = np.flatnonzero(k >= 0)
            slot = cols.first_slot[hop] + k[hop]
            next_node = np.arange(len(node_as))
            next_node[hop] = cols.next_node[slot]
            transit_ms, link_ms = np.zeros((2, len(node_as)))
            transit_ms[hop], link_ms[hop] = cols.transit_ms[slot], cols.link_ms[slot]
            add_ms = np.full(len(node_as), math.nan)
            site = np.zeros(len(node_as), dtype=np.int64)
            for node in np.flatnonzero(terminal[node_as]).tolist():
                site[node], add_ms[node], _ = self._terminal(*cols.nodes[node])
            self._nodes = _Nodes(
                next_node, transit_ms, link_ms, k >= 0, add_ms, site, scalar[node_as]
            )
        return self._nodes

    def _target_rows(self, asns):
        """``(flows, rows, inverse)`` of the flows of pure stubs, mapped
        once per target list and kept on the graph's tables."""
        asns = tuple(asns)
        memo = self.internet.graph.tables().target_rows
        mapped = memo.get(asns)
        if mapped is None:
            row_of = self.internet.stub_columns().position.get
            rows = np.array([row_of(asn, -1) for asn in asns], dtype=np.intp)
            flows = np.flatnonzero(rows >= 0)
            mapped = memo[asns] = (flows, *np.unique(rows[flows], return_inverse=True))
        return mapped

    def _choice(self, asn: int) -> Optional[Tuple[int, Optional[List[int]]]]:
        """``(best neighbour, tied neighbours)`` of an AS hashing flows
        over its multipath set, ``(best neighbour, None)`` of another,
        None without a route; asked once per AS (:meth:`_choose`)."""
        choice = self._choices.get(asn, _MISSING)
        return self._choose((asn,))[asn] if choice is _MISSING else choice

    def _choose(self, asns) -> dict:
        """``_choices``, with the :meth:`_choice` of each of ``asns``:
        only a multipath AS asks ``converged.next_hops`` for its sorted
        tie set; the others' best senders are read at once."""
        choices, ases, converged = self._choices, self.internet.graph.ases, self.converged
        single = []
        for asn in asns:
            node = ases.get(asn)  # None: not in the topology, no route
            if node is not None and node.multipath and asn not in choices:
                hops = converged.next_hops(asn)
                choices[asn] = hops and (hops[0], hops[1] if len(hops[1]) > 1 else None)
            elif asn not in choices:
                single.append(asn)
        for asn, best in zip(single, converged.best_senders(single)):
            choices[asn] = None if best is None else (best, None)
        return choices

    def _terminal(self, asn: int, entry: Optional[int]) -> _Terminal:
        """Hot-potato site choice among the injected route's
        attachments, from the flow's entry PoP; memoised on the graph's
        tables per ``(AS, site_pops)``, then per entry — the deployment
        finds a host's level once."""
        host = self._terminals.get(asn)
        if host is None:
            candidates = self.converged.injected(asn).site_pops
            host = self._terminals[asn] = (
                candidates, self.internet.graph.tables().terminals.setdefault((asn, candidates), {})
            )
        candidates, by_entry = host
        terminal = by_entry.get(entry)
        if terminal is not None:
            return terminal
        if entry is not None and all(sp.pop_id is not None for sp in candidates):
            net = self.internet.pop_network(asn)
            best_pop = net.closest_pop_of(entry, [sp.pop_id for sp in candidates])
            chosen = min(
                (sp for sp in candidates if sp.pop_id == best_pop),
                key=lambda sp: (sp.link_rtt_ms, sp.site_id),
            )
            terminal = _Terminal(
                chosen.site_id, net.igp_rtt_ms(entry, best_pop) + chosen.link_rtt_ms, entry
            )
        else:
            chosen = min(candidates, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
            terminal = _Terminal(chosen.site_id, chosen.link_rtt_ms, chosen.pop_id)
        by_entry[entry] = terminal
        return terminal
