"""Data-plane resolution: from a client AS to its anycast site.

Given a converged control plane, this module walks a flow hop by hop —
each AS forwards toward the ``learned_from`` neighbor of its chosen
route, multipath ASes hash the flow over their tied set — until it
reaches an AS holding an *injected* route.  There, hot-potato (IGP
shortest path from the ingress PoP) picks the concrete anycast site,
mirroring the paper's two-level structure: BGP decides the inter-AS
catchment, interior routing decides the intra-AS catchment (S4.3).

The walk also accumulates the path RTT: inter-AS link RTTs, intra-AS
backbone traversal for multi-PoP transits, and the site access link.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bgp.engine import ConvergedState
from repro.bgp.messages import Route
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
_PER_FLOW = object()


class DataPlane:
    """Resolves client flows against one converged control plane.

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
        #: Resolved walks.  One that crossed no multipath split serves
        #: every flow of its client AS, keyed by ASN; an AS whose walk
        #: split holds ``_PER_FLOW`` there and an ``(ASN, flow key)``
        #: entry per flow.
        self._memo: dict = {}

    def forward(self, client_asn: int, flow_key) -> Optional[ForwardingOutcome]:
        """Trace one flow (``flow_key`` must be hashable); returns None
        when the client has no route (e.g. a peers-only configuration
        that cannot reach it).  Each client AS is walked once — once
        per flow if its walk depends on the flow."""
        memo = self._memo
        outcome = memo.get(client_asn, _MISSING)
        if outcome is _PER_FLOW:
            outcome = memo.get((client_asn, flow_key), _MISSING)
        if outcome is _MISSING:
            outcome, per_flow = self._walk(client_asn, flow_key)
            if per_flow:
                memo[client_asn] = _PER_FLOW
                memo[(client_asn, flow_key)] = outcome
            else:
                memo[client_asn] = outcome
        return outcome

    # -- internals ---------------------------------------------------------

    def _walk(self, client_asn: int, flow_key) -> Tuple[Optional[ForwardingOutcome], bool]:
        """The hop-by-hop walk, and whether any AS on it hashed the
        flow.  The RTT is summed hop by hop from the client, so every
        flow that shares a walk gets the same float."""
        graph = self.internet.graph
        states = self.converged.states
        cur = client_asn
        prev: Optional[int] = None
        rtt = 0.0
        hops = [cur]
        visited = {cur}
        per_flow = False
        while True:
            state = states.get(cur)
            if state is None or state.best is None:
                return None, per_flow
            route, hashed = self._choose_route(cur, flow_key, state)
            per_flow = per_flow or hashed
            if route.is_injected():
                return self._terminate(cur, prev, route, rtt, tuple(hops)), per_flow
            nxt = route.learned_from
            if nxt in visited:
                # A forwarding loop across inconsistent multipath
                # choices; the flow is effectively blackholed.
                return None, per_flow
            rtt += self._transit_cost(prev, cur, nxt)
            rtt += graph.link(cur, nxt).rtt_ms
            prev, cur = cur, nxt
            hops.append(cur)
            visited.add(cur)

    def _choose_route(self, asn: int, flow_key, state) -> Tuple[Route, bool]:
        """The route ``asn`` forwards this flow on, and whether it
        hashed the flow over a tied set to pick it."""
        if len(state.multipath) > 1 and self.internet.graph.as_of(asn).multipath:
            idx = stable_hash(flow_key, asn, self.flow_nonce) % len(state.multipath)
            return state.multipath[idx], True
        return state.best, False

    def _transit_cost(self, prev: Optional[int], cur: int, nxt: int) -> float:
        """Intra-AS backbone RTT for crossing a multi-PoP AS."""
        net = self.internet.pop_network(cur)
        if net is None or net.pop_count == 1:
            return 0.0
        exit_pop = self.internet.attach_pop(cur, nxt)
        entry_pop = self._entry_pop(prev, cur, net)
        return net.igp_rtt_ms(entry_pop, exit_pop)

    def _entry_pop(self, prev: Optional[int], cur: int, net) -> int:
        if prev is None:
            # The flow originates inside this AS; it enters the
            # backbone at the PoP nearest the AS's nominal location.
            return net.nearest_pop(self.internet.graph.as_of(cur).location)
        return self.internet.attach_pop(cur, prev)

    def _terminate(
        self,
        cur: int,
        prev: Optional[int],
        route: Route,
        rtt: float,
        hops: Tuple[int, ...],
    ) -> ForwardingOutcome:
        net = self.internet.pop_network(cur)
        candidates = list(route.site_pops)
        if net is not None and net.pop_count > 1 and all(sp.pop_id is not None for sp in candidates):
            ingress = self._entry_pop(prev, cur, net)
            best_pop = net.closest_pop_of(ingress, [sp.pop_id for sp in candidates])
            at_pop = [sp for sp in candidates if sp.pop_id == best_pop]
            chosen = min(at_pop, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
            rtt += net.igp_rtt_ms(ingress, best_pop) + chosen.link_rtt_ms
            return ForwardingOutcome(chosen.site_id, cur, hops, rtt, ingress)
        chosen = min(candidates, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
        ingress = chosen.pop_id
        rtt += chosen.link_rtt_ms
        return ForwardingOutcome(chosen.site_id, cur, hops, rtt, ingress)
