"""BGP speaker logic for one AS.

A :class:`BGPSpeaker` is a pure state machine: it consumes
announcements, withdrawals, and local injections, updates its RIBs, and
returns the outgoing updates its export policy requires.  Timing is the
engine's concern; the speaker only records the arrival timestamps it is
given (they feed the arrival-order tie-break of
:mod:`repro.bgp.decision`).

Speakers read import preferences, interior costs, and presorted export
sets from ``tables`` — the shared per-topology
:class:`~repro.topology.precompute.TopologyTables`, or anything with
the same ``session_import`` mapping and ``export_targets`` method (the
delta engine's pruned views; the graph-backed per-call lookups of the
test suite's reference engine).
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bgp.decision import evaluate
from repro.bgp.messages import Route, SitePop, make_route
from repro.bgp.policy import local_pref_for
from repro.bgp.rib import RouterState
from repro.topology.astopo import AS, Relationship
from repro.util.errors import ReproError


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

    ``igp_overlay`` maps ``(asn, neighbor)`` to a session interior
    cost overriding the topology's static one — the engine uses it to
    model interior-routing churn between experiments.  The converger's
    speaker pool reassigns it between runs.
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
