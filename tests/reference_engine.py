"""The convergence oracle: a plain, slow, obviously-correct event loop.

:class:`ReferenceEngine` is what ``BGPEngine(reuse_state=False)`` used
to be, moved next to the tests that compare the shipping delta engine
against it.  It shares ``BGPEngine.run`` (validation, cache,
``ConvergedState``) and is independent of the delta path in the four
places that path is clever:

- fresh speakers — one per AS, stubs included — and a bare heap loop per
  run: no pool, no export pruning, no stub aggregation, no lazy states;
- the two-pass decision (:func:`best_route` + :func:`multipath_set`)
  instead of the speaker's inlined one-pass scan;
- import/export facts looked up per call from the graph and
  :mod:`repro.bgp.policy`, not from precomputed ``TopologyTables``;
- the delay jitter drawn link by link into a dict, one word of the
  noise stream at a time from its written-out definition
  (``tests/reference_noise.py``), not as one block evaluated on lookup.
"""

import heapq
import itertools
import math

from repro.bgp import policy
from repro.bgp.decision import best_route, multipath_set
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import SitePop
from repro.bgp.router import BGPSpeaker
from repro.util.errors import ConvergenceBudgetError
from repro.util.rng import stable_hash
from tests.reference_noise import reference_uniform


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
