"""The convergence oracle: a plain, slow, obviously-correct event loop.

:class:`ReferenceEngine` shares ``BGPEngine.run`` (validation, metrics,
``ConvergedState``) with the shipping engine and none of its per-event
code.  The shipping loop (:mod:`repro.bgp.delta`) handles each update
inline over per-run states; here every AS is a :class:`BGPSpeaker`, a
state machine with one method per input, and the loop only routes their
:class:`OutgoingUpdate` lists.  It also differs in the four places the
shipping loop is clever:

- fresh speakers — one per AS, stubs included — and a bare heap loop per
  run: no export pruning, no stub aggregation, no lazy states;
- the two-pass decision (:func:`best_route` + :func:`multipath_set`)
  instead of the one-pass :func:`evaluate` over stored strict keys;
- import/export facts looked up per call from the graph and
  :mod:`repro.bgp.policy`, not from precomputed ``TopologyTables``;
- the delay jitter drawn link by link into a dict, one word of the
  noise stream at a time from its written-out definition
  (``tests/reference_noise.py``), not as one block evaluated on lookup.
"""
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bgp import policy
from repro.bgp.decision import evaluate
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import Route, SitePop, make_route
from repro.bgp.policy import local_pref_for
from repro.bgp.rib import RouterState
from repro.topology.astopo import AS, Relationship
from repro.util.errors import ConvergenceBudgetError, ReproError
from repro.util.rng import stable_hash
from tests.reference_noise import reference_uniform


def _strict_key(route: Route) -> Tuple:
    """Ordering through the deterministic comparison steps
    (LOCAL_PREF, AS_PATH length, origin, MED, interior cost), computed
    from the fields rather than read from :attr:`Route.strict_key`."""
    return (
        -route.local_pref,
        route.path_length,
        route.origin_code,
        route.med,
        route.interior_cost,
    )


def best_route(routes: Sequence[Route], node: AS) -> Optional[Route]:
    """The single best route for ``node``, or None if no routes: the
    minimum through every step, honouring the AS's tie-break mode."""
    if not routes:
        return None

    def full_key(route):
        arrival = route.arrival_time if node.arrival_order_tiebreak else 0.0
        return _strict_key(route) + (arrival, route.learned_from)

    return min(routes, key=full_key)


def multipath_set(routes: Sequence[Route], node: AS) -> List[Route]:
    """Routes a multipath AS balances over: all tied through the
    deterministic steps (equal-cost multipath), sorted by neighbour id
    so flow-hash indexing into it is deterministic.  For a single-path
    AS this still returns the tied set."""
    if not routes:
        return []
    best_key = min(_strict_key(r) for r in routes)
    tied = [r for r in routes if _strict_key(r) == best_key]
    tied.sort(key=lambda r: r.learned_from)
    return tied


@dataclass(frozen=True)
class OutgoingUpdate:
    """An update this speaker wants delivered to a neighbor.

    ``as_path`` is the path as it should appear at the receiver (this
    speaker's ASN already prepended).  ``as_path=None`` is a withdrawal.
    """

    neighbor: int
    as_path: Optional[Tuple[int, ...]]
    med: int = 0


class BGPSpeaker:
    """The BGP process of a single AS for the anycast prefix.

    A pure state machine: it consumes announcements, withdrawals and
    local injections, updates its RIBs, and returns the updates its
    export policy requires; timing is the loop's concern.  It reads
    import values and export sets from ``tables`` — the topology's
    ``TopologyTables``, or the graph-backed :class:`GraphTables`.
    ``igp_overlay`` maps ``(asn, neighbor)`` to a session interior
    cost overriding the topology's static one — the engine uses it to
    model interior-routing churn between experiments.
    """

    __slots__ = ("node", "prefix", "igp_overlay", "state", "_tables")

    def __init__(self, node: AS, prefix: str, tables, igp_overlay=None):
        self.node = node
        self.prefix = prefix
        self.igp_overlay = igp_overlay or {}
        self.state = RouterState(node.asn)
        self._tables = tables

    # -- inputs ----------------------------------------------------------

    def inject(
        self,
        origin_asn: int,
        rel_of_origin: Relationship,
        site_pop: SitePop,
        now: float,
        prepend: int = 0,
        poison: Tuple[int, ...] = (),
    ) -> List[OutgoingUpdate]:
        """Install a locally-originated anycast route (a directly
        attached site announced to this AS).

        Multiple sites announcing through the same AS merge into one
        AS-level route whose arrival time is the earliest announcement;
        site-level differences are resolved in the data plane (paper
        S4.3: they disappear once the prefix is re-advertised).

        ``prepend`` lengthens this session's announced AS path.  When
        sessions of the same AS announce different path lengths, the
        interior routers all prefer the shortest, so only the
        shortest-path sessions keep their data-plane attachments (a
        prepended site loses its catchment inside its own provider).
        Withdrawing the last short-path site does not resurrect a
        previously shadowed prepended one; experiments deploy fresh
        configurations, as the paper's do.

        ``poison`` lists ASNs spliced into the announced path
        (``origin, poisoned..., origin``): their loop prevention drops
        the route, steering traffic around them at the cost of a
        longer path (paper S6, BGP poisoning).
        """
        if self.node.asn in poison:
            raise ReproError(
                f"cannot poison AS {self.node.asn}: it hosts the announcement"
            )
        as_path = (origin_asn,) * (1 + prepend)
        if poison:
            as_path = (origin_asn,) + tuple(poison) + as_path
        existing = self.state.adj_rib_in.get(origin_asn)
        if existing is not None:
            if len(as_path) > len(existing.as_path):
                return []  # shadowed by a shorter-path session
            if len(as_path) == len(existing.as_path):
                pops = tuple(sorted(
                    set(existing.site_pops) | {site_pop},
                    key=lambda sp: sp.site_id,
                ))
            else:
                pops = (site_pop,)  # strictly shorter: replaces the set
            route = Route(
                prefix=self.prefix,
                as_path=as_path,
                learned_from=origin_asn,
                local_pref=existing.local_pref,
                learned_rel=existing.learned_rel,
                arrival_time=min(existing.arrival_time, now),
                site_pops=pops,
            )
        else:
            route = Route(
                prefix=self.prefix,
                as_path=as_path,
                learned_from=origin_asn,
                local_pref=local_pref_for(self.node, origin_asn, rel_of_origin),
                learned_rel=rel_of_origin,
                arrival_time=now,
                site_pops=(SitePop(site_pop.site_id, site_pop.pop_id, site_pop.link_rtt_ms),),
            )
        self.state.adj_rib_in[origin_asn] = route
        return self._reevaluate()

    def receive_announcement(
        self,
        neighbor: int,
        as_path: Tuple[int, ...],
        med: int,
        now: float,
    ) -> List[OutgoingUpdate]:
        """Process an announcement from ``neighbor``; returns exports."""
        asn = self.node.asn
        if asn in as_path:
            # Loop prevention: a path containing our own ASN is dropped.
            return []
        adj_rib_in = self.state.adj_rib_in
        existing = adj_rib_in.get(neighbor)
        if (
            existing is not None
            and existing.as_path == as_path
            and existing.med == med
        ):
            # Duplicate refresh: route age is preserved, nothing changes.
            return []
        session = (asn, neighbor)
        local_pref, interior, rel = self._tables.session_import[session]
        overlay = self.igp_overlay.get(session)
        if overlay is not None:
            interior = overlay
        adj_rib_in[neighbor] = make_route(
            self.prefix, as_path, neighbor, local_pref, rel, med, interior, now
        )
        return self._reevaluate()

    def receive_withdrawal(self, neighbor: int) -> List[OutgoingUpdate]:
        """Process a withdrawal from ``neighbor``; returns exports."""
        if neighbor not in self.state.adj_rib_in:
            return []
        del self.state.adj_rib_in[neighbor]
        return self._reevaluate()

    def withdraw_injection(self, origin_asn: int, site_id: int) -> List[OutgoingUpdate]:
        """Remove one site from a locally injected route; drop the
        route entirely when its last site is withdrawn."""
        existing = self.state.adj_rib_in.get(origin_asn)
        if existing is None:
            return []
        remaining = tuple(sp for sp in existing.site_pops if sp.site_id != site_id)
        if remaining:
            self.state.adj_rib_in[origin_asn] = Route(
                prefix=existing.prefix,
                as_path=existing.as_path,
                learned_from=existing.learned_from,
                local_pref=existing.local_pref,
                learned_rel=existing.learned_rel,
                arrival_time=existing.arrival_time,
                site_pops=remaining,
            )
        else:
            del self.state.adj_rib_in[origin_asn]
        return self._reevaluate()

    # -- decision + export -------------------------------------------------

    def _reevaluate(self) -> List[OutgoingUpdate]:
        state = self.state
        old_best = state.best
        state.best, state.multipath = evaluate(state.adj_rib_in.values(), self.node)
        return self._export_updates(state, old_best, state.best, self._tables)

    def _export_updates(self, state, old_best, new_best, tables) -> List[OutgoingUpdate]:
        """Exports required by a best-route change (decision's tail)."""
        if new_best is None:
            if not state.advertised_to:
                return []
            out = [
                OutgoingUpdate(neighbor=n, as_path=None)
                for n in sorted(state.advertised_to)
            ]
            state.advertised_to.clear()
            return out

        if (
            old_best is not None
            and new_best.as_path == old_best.as_path
            and new_best.learned_from == old_best.learned_from
            and new_best.med == old_best.med
            and new_best.origin_code == old_best.origin_code
        ):
            # materially_equal(old_best), inlined.
            return []

        asn = self.node.asn
        learned_from = new_best.learned_from
        as_path = new_best.as_path
        export_path = (asn,) + as_path
        # The export base is presorted (hoisted into the topology
        # tables), so only the usually-empty stale set needs a sort
        # here — the old path re-sorted both sets per reevaluation.
        base = tables.export_targets(asn, new_best.learned_rel)
        advertised = state.advertised_to
        out: List[OutgoingUpdate] = []
        if advertised:
            target_set = {
                n for n in base if n != learned_from and n not in as_path
            }
            for stale in sorted(set(advertised) - target_set):
                out.append(OutgoingUpdate(neighbor=stale, as_path=None))
                del advertised[stale]
        # One frozen Route is shared across all targets (identical
        # value per target; the per-target copies the old path built
        # were pure allocation overhead).
        exported: Optional[Route] = None
        for n in base:
            if n == learned_from or n in as_path:
                continue
            previously = advertised.get(n)
            if previously is not None and previously.as_path == export_path:
                continue
            if exported is None:
                exported = make_route(self.prefix, export_path, asn, 0)
            advertised[n] = exported
            out.append(OutgoingUpdate(neighbor=n, as_path=export_path))
        return out


class _SessionImport:
    """``tables.session_import`` computed per lookup."""

    def __init__(self, graph):
        self.graph = graph

    def __getitem__(self, session):
        asn, neighbor = session
        rel = self.graph.rel(asn, neighbor)
        return (
            policy.local_pref_for(self.graph.as_of(asn), neighbor, rel),
            self.graph.link(asn, neighbor).igp_cost.get(asn, 0),
            rel,
        )


class GraphTables:
    """The duck-typed tables interface a speaker reads, graph-backed."""

    def __init__(self, graph):
        self.graph = graph
        self.session_import = _SessionImport(graph)

    def export_targets(self, asn, learned_rel):
        # The speaker's export loop filters the learned-from neighbor.
        return tuple(sorted(policy.export_targets(self.graph, asn, learned_rel, None)))


class ReferenceSpeaker(BGPSpeaker):
    """A speaker deciding with the two-pass reference functions."""

    def _reevaluate(self):
        state = self.state
        old_best = state.best
        routes = state.routes()
        state.best = best_route(routes, self.node)
        state.multipath = multipath_set(routes, self.node)
        return self._export_updates(state, old_best, state.best, self._tables)


class _PlainLoop:
    """Stands in for ``DeltaConverger``: same ``converge`` contract."""

    def __init__(self, internet, prefix, origin_asn):
        self.graph = internet.graph
        self.prefix = prefix
        self.origin_asn = origin_asn

    def converge(self, injections, igp_overlay, jitter, withdrawals, budget):
        graph = self.graph
        tables = GraphTables(graph)
        speakers = {
            asn: ReferenceSpeaker(graph.as_of(asn), self.prefix, tables, igp_overlay)
            for asn in graph.asns()
        }
        seq = itertools.count()
        heap = []
        for inj in injections:
            heapq.heappush(
                heap, (inj.announce_time_ms, next(seq), "inject", inj.host_asn, inj.site_id)
            )
        for wd in withdrawals:
            heapq.heappush(
                heap, (wd.withdraw_time_ms, next(seq), "uninject", wd.host_asn, wd.site_id)
            )
        # BGPEngine.run rejects injections sharing (host, site).
        inj_by_key = {(inj.host_asn, inj.site_id): inj for inj in injections}

        messages = events = 0
        now = 0.0
        while heap:
            now, _, kind, receiver, payload = heapq.heappop(heap)
            events += 1
            if events > budget:
                touched = sum(1 for sp in speakers.values() if sp.state.adj_rib_in)
                raise ConvergenceBudgetError(budget, events, touched, now)
            speaker = speakers[receiver]
            if kind == "update":
                messages += 1
                sender, as_path, med = payload
                if as_path is None:
                    out = speaker.receive_withdrawal(sender)
                else:
                    out = speaker.receive_announcement(sender, as_path, med, now)
            elif kind == "inject":
                inj = inj_by_key[(receiver, payload)]
                out = speaker.inject(
                    self.origin_asn,
                    inj.rel_from_host,
                    SitePop(inj.site_id, inj.pop_id, inj.link_rtt_ms),
                    now,
                    prepend=inj.prepend,
                    poison=inj.poison,
                )
            else:
                out = speaker.withdraw_injection(self.origin_asn, payload)
            for update in out:
                pair = (receiver, update.neighbor)
                arrive = now + graph.link(*pair).prop_delay_ms + jitter.get(pair, 0.0)
                heapq.heappush(
                    heap,
                    (arrive, next(seq), "update", update.neighbor,
                     (receiver, update.as_path, update.med)),
                )
        states = {asn: sp.state for asn, sp in speakers.items()}
        return states, now, messages, events


class ReferenceEngine(BGPEngine):
    """``BGPEngine`` with the plain loop in place of delta convergence
    (same ``run()``, so it drops into ``Orchestrator.engine``)."""

    def __init__(self, internet, **kwargs):
        super().__init__(internet, **kwargs)
        self._delta = _PlainLoop(internet, self.prefix, self.origin_asn)

    def _draw_jitter(self, delay_jitter_ms, delay_nonce):
        """The definition, the slow way: one word of the
        ``"delay-jitter"`` stream per directed link in ``links()``
        order, each turned into an exponential on the spot."""
        key = stable_hash("delay-jitter", self.internet.seed, delay_nonce)
        lambd = 1.0 / delay_jitter_ms
        jitter = {}
        for link in self.internet.graph.links():
            for pair in ((link.a, link.b), (link.b, link.a)):
                u = reference_uniform(key, len(jitter))
                jitter[pair] = -math.log(1.0 - u) / lambd
        return jitter
