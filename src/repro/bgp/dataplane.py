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
deployment resolves it once: pure-stub clients take their first hop in
one array pass, and every hop further up is a record in the
:class:`DataPlane`'s forwarding table, built on first use and shared by
every flow that passes through it (DESIGN.md, "Probe plane: the
forwarding table").
"""

import math
from dataclasses import dataclass
from itertools import zip_longest
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

#: The suffix of a node without a route: the NaN addend makes the flow's
#: RTT NaN, which is how :meth:`DataPlane.resolve_flows` says "no route".
_UNROUTED = (0, (math.nan,))


class _Terminal(NamedTuple):
    """Hop record: the flow reaches ``site_id`` here.  ``add_ms`` is
    the hot-potato backbone leg plus the access link, summed before it
    is added to the path — the order ``rtt += igp + link`` evaluates."""

    site_id: int
    add_ms: float
    ingress_pop: Optional[int]


class _Split(NamedTuple):
    """Hop record: a multipath AS hashes each flow over ``tied``; the
    hop toward one of them is a record of its own, keyed ``(AS, entry,
    neighbour)``."""

    tied: List[int]


class DataPlane:
    """Resolves client flows against one converged control plane,
    through a forwarding table filled as flows ask.

    The table maps ``(AS, entry)`` to a hop record — a
    :class:`~repro.topology.generator.Hop` onward, :class:`_Terminal`,
    :class:`_Split`, or None for an AS without a route.  ``entry`` is
    the PoP at which the flow enters a multi-PoP AS (None for a
    single-PoP one): together with the AS it fixes the next hop and both
    costs, whichever neighbour the flow came from, so the flows of a
    deployment share their transit hops.  A flow's RTT is summed in its
    own client-first order (``rtt += transit; rtt += link`` per hop,
    then the terminal's ``add_ms``), so the float is the one a
    hop-by-hop walk over the states accumulates — whether
    :meth:`forward` walks one flow or :meth:`resolve_flows` replays the
    same addends for all of them, a level at a time.

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
        #: Hop records, each resolved once.
        self._table: dict = {}
        #: Finished walks: per client ASN the outcome all its flows
        #: share, per ``(ASN, flow key)`` that of a flow that was hashed.
        self._memo: dict = {}
        #: Per ``(AS, entry)`` node the rest of the walk from there:
        #: ``(site, addends)``, or None where it reaches a split.
        self._suffixes: dict = {}

    def resolve_flows(self, asns: Sequence[int], flow_keys: Sequence):
        """Forward many flows at once: the columns ``(sites, rtts)`` — per
        flow :meth:`forward`'s ``site_id`` and ``rtt_ms``, RTT NaN (site
        0) where it answers None.  Pure stubs go through as arrays: the
        first hop gathered from the run's stub choices and the static
        :class:`~repro.topology.generator.StubColumns`, the rest resolved
        once per node the flows arrive at (:meth:`_suffix`) and added
        level by level over zero-padded rows — the scalar walk's
        additions in its order, as ``0.0 + x == x + 0.0 == x``.  Flows
        behind a multipath split, other clients and plain-dict states
        take :meth:`forward`."""
        sites = np.zeros(len(asns), dtype=np.int64)
        rtts = np.full(len(asns), math.nan)
        per_flow = np.ones(len(asns), dtype=bool)
        choices = self.converged.stub_choices()
        if choices is not None:
            best, tied = choices
            cols = self.internet.stub_columns()
            row_of = cols.row.get
            rows = np.array([row_of(asn, -1) for asn in asns], dtype=np.intp)
            flows = np.flatnonzero(rows >= 0)  # those of pure stubs
            rows = rows[flows]
            col = best[rows]
            per_flow[flows] = (col == LIVE) | (tied[rows] & cols.multipath[rows])
            routed = (col >= 0) & ~per_flow[flows]  # the rest stay NaN: no offer
            flows, rows, col = flows[routed], rows[routed], col[routed]
            nodes, inverse = np.unique(cols.node[rows, col], return_inverse=True)
            suffixes = [self._suffix(cols.nodes[node]) for node in nodes.tolist()]
            shared = [suffix or _UNROUTED for suffix in suffixes]
            rtt = cols.transit_ms[rows, col] + cols.link_ms[rows, col]
            for level in zip_longest(*(addends for _, addends in shared), fillvalue=0.0):
                rtt += np.array(level)[inverse]
            rtts[flows] = rtt
            sites[flows] = np.array([site for site, _ in shared], dtype=np.int64)[inverse]
            per_flow[flows] = np.array([suffix is None for suffix in suffixes], dtype=bool)[inverse]
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
        return self._pick(tied, asn, flow_key), True

    # -- internals ---------------------------------------------------------

    def _lookup(self, key):
        """The hop record under ``key``, resolved on first use."""
        record = self._table.get(key, _MISSING)
        if record is _MISSING:
            record = self._table[key] = (self._record if len(key) == 2 else self._hop)(*key)
        return record

    def _walk(self, client_asn: int, flow_key):
        """Follow hop records from the client; returns the outcome and
        whether a split hashed the flow on the way."""
        cur = client_asn
        entry = self.internet.entry_pop(cur, None)
        rtt = 0.0
        hops = [cur]
        hashed = False
        while True:
            record = self._lookup((cur, entry))
            if type(record) is _Split:
                hashed = True
                record = self._lookup((cur, entry, self._pick(record.tied, cur, flow_key)))
            if record is None:
                return None, hashed
            if type(record) is _Terminal:
                site_id, add_ms, ingress_pop = record
                rtt += add_ms
                return ForwardingOutcome(site_id, cur, tuple(hops), rtt, ingress_pop), hashed
            nxt, transit_ms, link_ms, entry = record
            if nxt in hops:
                # A forwarding loop across inconsistent multipath
                # choices; the flow is effectively blackholed.
                return None, hashed
            rtt += transit_ms
            rtt += link_ms
            cur = nxt
            hops.append(cur)

    def _suffix(self, node, behind=()):
        """What a flow arriving at ``node = (AS, entry)`` has ahead:
        ``(site, addends)`` — the hop's transit and link RTT followed
        by the next node's addends, never pre-summed (float addition is
        not associative) — ``_UNROUTED``, or None where a split makes
        it depend on the flow.  ``behind``: the ASes that led here."""
        suffix = self._suffixes.get(node, _MISSING)
        if suffix is _MISSING:
            record = self._lookup(node)
            if type(record) is _Split:
                suffix = None
            elif record is None:
                suffix = _UNROUTED
            elif type(record) is _Terminal:
                suffix = (record.site_id, (record.add_ms,))
            elif record.next_asn in behind + node[:1]:
                suffix = _UNROUTED  # a forwarding loop
            else:
                suffix = self._suffix((record.next_asn, record.next_entry), behind + node[:1])
                if suffix is not None:
                    suffix = (suffix[0], (record.transit_ms, record.link_ms) + suffix[1])
            self._suffixes[node] = suffix
        return suffix

    def _pick(self, tied: List[int], asn: int, flow_key) -> int:
        return tied[stable_hash(flow_key, asn, self.flow_nonce) % len(tied)]

    def _choice(self, asn: int) -> Optional[Tuple[int, Optional[List[int]]]]:
        """``(best neighbour, tied neighbours)`` of an AS that hashes
        flows over its multipath set, ``(best neighbour, None)`` of one
        that does not, None without a route."""
        hops = self.converged.next_hops(asn)
        if hops is None:
            return None
        best, tied = hops
        if len(tied) > 1 and self.internet.graph.as_of(asn).multipath:
            return best, tied
        return best, None

    def _record(self, asn: int, entry: Optional[int]):
        choice = self._choice(asn)
        if choice is None:
            return None
        best, tied = choice
        return self._hop(asn, entry, best) if tied is None else _Split(tied)

    def _hop(self, asn: int, entry: Optional[int], neighbor: int):
        """The record of ``asn`` forwarding to ``neighbor``: the
        topology's :class:`~repro.topology.generator.Hop`, unless the
        neighbour is the anycast origin, i.e. the route is injected
        here."""
        if neighbor == self.converged.origin_asn:
            return self._terminate(asn, entry)
        return self.internet.hop(asn, entry, neighbor)

    def _terminate(self, asn: int, entry: Optional[int]) -> _Terminal:
        """Hot-potato site choice among the injected route's
        attachments, from the flow's entry PoP."""
        converged = self.converged
        candidates = converged.states[asn].adj_rib_in[converged.origin_asn].site_pops
        if entry is not None and all(sp.pop_id is not None for sp in candidates):
            net = self.internet.pop_network(asn)
            best_pop = net.closest_pop_of(entry, [sp.pop_id for sp in candidates])
            chosen = min(
                (sp for sp in candidates if sp.pop_id == best_pop),
                key=lambda sp: (sp.link_rtt_ms, sp.site_id),
            )
            return _Terminal(
                chosen.site_id, net.igp_rtt_ms(entry, best_pop) + chosen.link_rtt_ms, entry
            )
        chosen = min(candidates, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
        return _Terminal(chosen.site_id, chosen.link_rtt_ms, chosen.pop_id)
