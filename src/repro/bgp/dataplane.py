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
deployment resolves it once: every hop is a record in the
:class:`DataPlane`'s forwarding table, built on first use and shared by
every flow that passes through it (DESIGN.md, "Probe plane: the
forwarding table").
"""

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

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
_ANY_FLOW = object()

#: What :meth:`DataPlane.resolve` answers for a client AS whose walk
#: crosses a multipath split: ask :meth:`DataPlane.forward` per flow.
PER_FLOW = object()


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
    deployment share their transit hops.  A walk follows
    records from the client, resolving the missing ones, and sums the
    RTT in its own client-first order (``rtt += transit; rtt += link``
    per hop, then the terminal's ``add_ms``), so the float is the one
    a hop-by-hop walk over the states accumulates.

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
        #: share (or ``PER_FLOW``), per ``(ASN, flow key)`` the outcome
        #: of a flow that was hashed on the way.
        self._memo: dict = {}

    def resolve(self, client_asn: int):
        """The outcome every flow of ``client_asn`` shares — a
        :class:`ForwardingOutcome`, or None without a route — or
        :data:`PER_FLOW` when its walk reaches a multipath split.
        Each client AS is walked once."""
        outcome = self._memo.get(client_asn, _MISSING)
        if outcome is _MISSING:
            outcome = self._memo[client_asn] = self._walk(client_asn, _ANY_FLOW)
        return outcome

    def forward(self, client_asn: int, flow_key) -> Optional[ForwardingOutcome]:
        """Trace one flow (``flow_key`` must be hashable); returns None
        when the client has no route (e.g. a peers-only configuration
        that cannot reach it).  Each client AS is walked once — once
        per flow if its walk depends on the flow."""
        outcome = self.resolve(client_asn)
        if outcome is PER_FLOW:
            key = (client_asn, flow_key)
            outcome = self._memo.get(key, _MISSING)
            if outcome is _MISSING:
                outcome = self._memo[key] = self._walk(client_asn, flow_key)
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

    def _walk(self, client_asn: int, flow_key):
        """Follow hop records from the client.  ``_ANY_FLOW`` stands
        for every flow of the AS at once and stops at the first split
        with ``PER_FLOW``."""
        table = self._table
        cur = client_asn
        entry = self.internet.entry_pop(cur, None)
        rtt = 0.0
        hops = [cur]
        while True:
            key = (cur, entry)
            record = table.get(key, _MISSING)
            if record is _MISSING:
                record = table[key] = self._record(cur, entry)
            if type(record) is _Split:
                if flow_key is _ANY_FLOW:
                    return PER_FLOW
                key = (cur, entry, self._pick(record.tied, cur, flow_key))
                record = table.get(key, _MISSING)
                if record is _MISSING:
                    record = table[key] = self._hop(*key)
            if record is None:
                return None
            if type(record) is _Terminal:
                site_id, add_ms, ingress_pop = record
                rtt += add_ms
                return ForwardingOutcome(site_id, cur, tuple(hops), rtt, ingress_pop)
            nxt, transit_ms, link_ms, entry = record
            if nxt in hops:
                # A forwarding loop across inconsistent multipath
                # choices; the flow is effectively blackholed.
                return None
            rtt += transit_ms
            rtt += link_ms
            cur = nxt
            hops.append(cur)

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
