"""The probe plane against oracles that live with the tests.

A deployment is resolved once: ``DataPlane`` keeps a forwarding table of
hop records and one finished walk per client AS, an aggregated stub's
next hop comes from its providers' export episodes without a state,
catchment mapping reads the table in one pass and draws only a probe's
loss decision, and the RTT train reseeds one ``Random``.  Each shortcut
is compared — with ``==``, floats included — against the plain form it
replaced: the unmemoized hop-by-hop walk over the per-AS states, those
states' own ``best`` / ``multipath`` (and the reference engine's live
speakers), the full-probe catchment loop, and one ``probe()`` per
sequence number.  A golden digest pins every noise stream of a whole
campaign (re-pinned once, by the PR that moved the per-experiment noise
onto the counter-based stream; ``tests/test_noise.py`` checks that
noise against its definition and its closed-form moments).
"""

import collections
import dataclasses
import hashlib
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnyOpt, build_paper_testbed, select_targets
from repro.bgp.dataplane import PER_FLOW, DataPlane, ForwardingOutcome
from repro.bgp.delta import LazyStates
from repro.bgp.engine import (
    ANYCAST_ORIGIN_ASN,
    BGPEngine,
    ConvergedState,
    SiteInjection,
    SiteWithdrawal,
)
from repro.bgp.messages import Route, SitePop
from repro.bgp.rib import RouterState
from repro.core.config import AnycastConfig
from repro.io import model_to_dict
from repro.measurement import Orchestrator
from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.measurement.verfploeter import measure_catchments
from repro.topology import TestbedParams
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.generator import Internet, TopologyParams, generate_internet
from repro.topology.geo import city
from repro.util.rng import stable_hash
from tests.conftest import SEED
from tests.reference_engine import ReferenceEngine

SETTINGS = dict(max_examples=25, deadline=None)


# -- oracles -----------------------------------------------------------------


def reference_forward(internet, converged, flow_nonce, client_asn, flow_key):
    """The hop-by-hop walk as it was before there was a forwarding
    table: every flow is walked from scratch over the per-AS states,
    costs looked up on the way, nothing remembered."""
    graph = internet.graph

    def entry_pop(prev, cur, net):
        if prev is None:
            return net.nearest_pop(graph.as_of(cur).location)
        return internet.attach_pop(cur, prev)

    cur, prev, rtt = client_asn, None, 0.0
    hops = [cur]
    while True:
        state = converged.states.get(cur)
        if state is None or state.best is None:
            return None
        route = state.best
        if graph.as_of(cur).multipath and len(state.multipath) > 1:
            idx = stable_hash(flow_key, cur, flow_nonce) % len(state.multipath)
            route = state.multipath[idx]
        net = internet.pop_network(cur)
        multi_pop = net is not None and net.pop_count > 1
        if route.is_injected():
            candidates = list(route.site_pops)
            if multi_pop and all(sp.pop_id is not None for sp in candidates):
                ingress = entry_pop(prev, cur, net)
                best_pop = net.closest_pop_of(ingress, [sp.pop_id for sp in candidates])
                at_pop = [sp for sp in candidates if sp.pop_id == best_pop]
                chosen = min(at_pop, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
                rtt += net.igp_rtt_ms(ingress, best_pop) + chosen.link_rtt_ms
            else:
                chosen = min(candidates, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
                ingress = chosen.pop_id
                rtt += chosen.link_rtt_ms
            return ForwardingOutcome(chosen.site_id, cur, tuple(hops), rtt, ingress)
        nxt = route.learned_from
        if nxt in hops:
            return None
        rtt += (
            net.igp_rtt_ms(entry_pop(prev, cur, net), internet.attach_pop(cur, nxt))
            if multi_pop
            else 0.0
        )
        rtt += graph.link(cur, nxt).rtt_ms
        prev, cur = cur, nxt
        hops.append(cur)


def full_probe_catchments(deployment, targets, prober, retries=3):
    """Catchment mapping as it was: a full probe (RTT, jitter and all)
    per attempt, of which only ``lost`` was ever read."""
    mapping = {}
    for target in targets:
        outcome = deployment.forwarding(target)
        site = None
        if outcome is not None:
            true_rtt = deployment.true_rtt(target)
            for attempt in range(1 + retries):
                result = prober.probe(
                    target, true_rtt, deployment.experiment_id, 100 + attempt
                )
                if result is not None:
                    site = outcome.site_id
                    break
        mapping[target.target_id] = site
    return mapping


def assert_forward_matches_reference(internet, converged, flow_nonce, flows):
    """``flows`` is a list of (client ASN, flow key).  One data plane
    sees them in order, then again reversed (all hits), before the
    reference reads — and so materialises — any state; a second one
    answers the same flows from the materialised states."""
    replay = flows + flows[::-1]
    dataplane = DataPlane(internet, converged, flow_nonce=flow_nonce)
    stateless = [dataplane.forward(asn, key) for asn, key in replay]
    expected = [
        reference_forward(internet, converged, flow_nonce, asn, key)
        for asn, key in replay
    ]
    assert stateless == expected
    dataplane = DataPlane(internet, converged, flow_nonce=flow_nonce)
    assert [dataplane.forward(asn, key) for asn, key in replay[::-1]] == expected[::-1]


def flow_dependent_asns(internet, converged, flow_nonce, keys=range(8)):
    return {
        asn
        for asn in internet.graph.client_asns()
        if len({
            reference_forward(internet, converged, flow_nonce, asn, key)
            for key in keys
        }) > 1
    }


# -- forwarding --------------------------------------------------------------


@st.composite
def converged_worlds(draw):
    """A random Internet (often multipath-heavy, its ASes breaking ties
    on arrival order or not) converged under spaced injections, some
    poisoned, some withdrawn again, with interior costs churned on a few
    sessions and, in half the worlds, per-link delay jitter.  Returns
    the Internet, the converged state and the run's inputs."""
    params = TopologyParams(
        n_tier1=draw(st.integers(min_value=2, max_value=5)),
        n_tier2=draw(st.integers(min_value=2, max_value=8)),
        n_stub=draw(st.integers(min_value=5, max_value=30)),
        tier1_pop_min=2,
        tier1_pop_max=4,
        multipath_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        igp_tie_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        arrival_order_fraction=draw(st.sampled_from([0.0, 1.0])),
    )
    internet = generate_internet(params, seed=draw(st.integers(0, 10_000)))
    graph = internet.graph
    tier1 = graph.tier1_asns()
    hosts = draw(st.lists(st.sampled_from(tier1), min_size=1, max_size=3, unique=True))
    transits = [a for a in graph.asns() if graph.as_of(a).tier == 2]
    injections = [
        SiteInjection(
            host_asn=host,
            site_id=idx + 1,
            pop_id=draw(st.integers(0, internet.pop_network(host).pop_count - 1)),
            link_rtt_ms=1.0 + idx,
            rel_from_host=Relationship.CUSTOMER,
            announce_time_ms=idx * draw(st.sampled_from([0.0, 360000.0])),
            poison=tuple(draw(st.lists(st.sampled_from(transits), max_size=2, unique=True))),
        )
        for idx, host in enumerate(hosts)
    ]
    withdrawals = [
        SiteWithdrawal(host_asn=inj.host_asn, site_id=inj.site_id, withdraw_time_ms=2e6)
        for inj in injections[1:]
        if draw(st.booleans())
    ]
    sessions = [(a, b) for a in graph.asns() for b in graph.neighbors(a)]
    overlay = {
        session: draw(st.integers(0, 5))
        for session in draw(st.lists(st.sampled_from(sessions), max_size=6, unique=True))
    }
    run = dict(
        injections=injections,
        igp_overlay=overlay,
        delay_jitter_ms=draw(st.sampled_from([0.0, 20.0])),
        delay_nonce=draw(st.integers(0, 50)),
        withdrawals=withdrawals,
    )
    return internet, BGPEngine(internet).run(**run), run


class TestForwardEqualsReference:
    @given(converged_worlds(), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(**SETTINGS)
    def test_random_worlds(self, world, flow_nonce, rnd):
        internet, converged, _ = world
        flows = [
            (asn, key)
            for asn in internet.graph.client_asns()
            for key in (asn, "flow-a", 3, 4)
        ]
        rnd.shuffle(flows)
        assert_forward_matches_reference(internet, converged, flow_nonce, flows)

    def test_multipath_walks_stay_per_flow(self):
        """Where every AS hashes flows, flows of one AS really diverge —
        and still match the reference, flow by flow."""
        params = TopologyParams(n_tier2=8, n_stub=40, multipath_fraction=1.0)
        internet = generate_internet(params, seed=SEED)
        tier1 = internet.graph.tier1_asns()
        converged = BGPEngine(internet).run([
            SiteInjection(host, idx + 1, 0, 1.0, Relationship.CUSTOMER, idx * 1000.0)
            for idx, host in enumerate(tier1[:3])
        ])
        assert flow_dependent_asns(internet, converged, flow_nonce=1)
        flows = [(a, k) for a in internet.graph.client_asns() for k in range(8)]
        for nonce in (1, 2):
            assert_forward_matches_reference(internet, converged, nonce, flows)

    def test_split_mid_path_and_at_the_client_stub(self):
        """Every AS hashes and every session ties: some stubs split
        their own flows over several providers (no state is built to
        find that out), others reach a split one hop up."""
        params = TopologyParams(
            n_tier2=8, n_stub=60, multipath_fraction=1.0, igp_tie_fraction=1.0
        )
        internet = generate_internet(params, seed=SEED)
        graph = internet.graph
        converged = BGPEngine(internet).run([
            SiteInjection(host, idx + 1, 0, 1.0, Relationship.CUSTOMER, 0.0)
            for idx, host in enumerate(graph.tier1_asns()[:4])
        ])
        probe = DataPlane(internet, converged)
        at_client, mid_path = [], []
        for stub in sorted(graph.tables().stub_providers):
            if probe.resolve(stub) is PER_FLOW:
                own_split = len(converged.next_hops(stub)[1]) > 1
                (at_client if own_split else mid_path).append(stub)
        assert at_client and mid_path
        assert not converged.states._aggregated & set(converged.states._materialized)
        flows = [(asn, key) for asn in at_client + mid_path for key in range(6)]
        for nonce in (0, 5):
            assert_forward_matches_reference(internet, converged, nonce, flows)
        diverging = flow_dependent_asns(internet, converged, 0)
        assert diverging & set(at_client) and diverging & set(mid_path)

    def test_peers_only_leaves_clients_without_a_route(self, internet):
        """A peer-learned route goes to customers only: everyone else
        has no route, and says so without a walk to nowhere."""
        graph = internet.graph
        host = next(a for a in graph.asns() if graph.as_of(a).tier == 2 and graph.customers(a))
        converged = BGPEngine(internet).run(
            [SiteInjection(host, 1, None, 1.0, Relationship.PEER, 0.0)]
        )
        clients = graph.client_asns()
        dataplane = DataPlane(internet, converged)
        routed = [asn for asn in clients if dataplane.forward(asn, asn) is not None]
        assert 0 < len(routed) < len(clients)
        assert_forward_matches_reference(
            internet, converged, 0, [(asn, key) for asn in clients for key in (asn, "k")]
        )

    def test_forwarding_loop_blackholes_the_flow(self):
        """Two neighbouring multipath ASes, each holding a tied route
        through the other: a flow both hash toward each other loops,
        and is reported unreachable — hand-built states, since the
        engine's own quiescent states rarely disagree like this."""
        graph = ASGraph()
        for asn, tier in ((1, 1), (2, 2), (3, 2), (4, 3)):
            graph.add_as(
                AS(asn=asn, tier=tier, location=city("Paris"), multipath=tier == 2)
            )
        graph.add_provider(2, 1, rtt_ms=3.0)
        graph.add_provider(3, 1, rtt_ms=5.0)
        graph.add_peering(2, 3, rtt_ms=7.0)
        graph.add_provider(4, 2, rtt_ms=11.0)
        internet = Internet(graph, {}, TopologyParams(), seed=0)
        origin = ANYCAST_ORIGIN_ASN

        def route(path, **kwargs):
            return Route("192.0.2.0/24", path, path[0], 100, **kwargs)

        def state(asn, *routes):
            return RouterState(
                asn, {r.learned_from: r for r in routes}, routes[0], list(routes)
            )

        states = {
            1: state(1, route((origin,), site_pops=(SitePop(1, None, 2.0),))),
            2: state(2, route((1, origin)), route((3, 1, origin))),
            3: state(3, route((1, origin)), route((2, 1, origin))),
            4: state(4, route((2, 1, origin))),
        }
        converged = ConvergedState("192.0.2.0/24", origin, states, ())
        keys = range(32)
        expected = [reference_forward(internet, converged, 0, 4, key) for key in keys]
        assert None in expected and any(expected)
        assert {o.as_path for o in expected if o} == {(4, 2, 1), (4, 2, 3, 1)}
        flows = [(4, key) for key in keys]
        assert_forward_matches_reference(internet, converged, 0, flows)
        assert DataPlane(internet, converged).resolve(4) is PER_FLOW

    def test_deployments_with_session_churn(self, noisy_orchestrator, targets):
        """Through the orchestrator: churned interior costs, one flow
        per target, the experiment id as the ECMP nonce — sites only,
        sites plus peers, and peers only (most clients unreachable)."""
        internet = noisy_orchestrator.testbed.internet
        peers = tuple(noisy_orchestrator.testbed.peer_ids()[:3])
        unreachable = 0
        for config in (
            AnycastConfig(site_order=(1, 6)),
            AnycastConfig(site_order=(6, 1, 9), peer_ids=peers),
            AnycastConfig(site_order=(), peer_ids=peers),
        ):
            deployment = noisy_orchestrator.deploy(config)
            for target in targets:
                expected = reference_forward(
                    internet,
                    deployment.converged,
                    deployment.experiment_id,
                    target.asn,
                    target.target_id,
                )
                assert deployment.forwarding(target) == expected
                unreachable += expected is None
        assert 0 < unreachable < 3 * len(targets)

    def test_one_walk_per_flow_independent_as(self, clean_orchestrator, targets):
        """All targets of an AS whose walk never hashed share one
        outcome object; the reference says which ASes those are."""
        deployment = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        internet = clean_orchestrator.testbed.internet
        per_flow = flow_dependent_asns(
            internet, deployment.converged, deployment.experiment_id
        )
        by_asn = {}
        for target in targets:
            by_asn.setdefault(target.asn, []).append(deployment.forwarding(target))
        shared = [o for asn, o in by_asn.items() if asn not in per_flow and len(o) > 1]
        assert shared
        for outcomes in shared:
            assert all(o is outcomes[0] for o in outcomes)


# -- the state-less stub choice ----------------------------------------------


def state_next_hops(state):
    """What ``next_hops`` must answer, read off a materialised state."""
    if state.best is None:
        return None
    return state.best.learned_from, [r.learned_from for r in state.multipath]


class TestStubChoiceEqualsState:
    @given(converged_worlds())
    @settings(**SETTINGS)
    def test_next_hops_is_the_states_decision(self, world):
        internet, converged, run = world
        asns = internet.graph.asns()
        states = converged.states
        assert isinstance(states, LazyStates)
        stateless = {asn: converged.next_hops(asn) for asn in asns}
        # Asking built no stub state ...
        assert not states._aggregated & set(states._materialized)
        expected = {asn: state_next_hops(states[asn]) for asn in asns}
        assert stateless == expected
        # ... the answer is the same once every state exists,
        assert states._aggregated <= set(states._materialized)
        assert {asn: converged.next_hops(asn) for asn in asns} == expected
        # the same from a stored (plain dict) result,
        loaded = pickle.loads(pickle.dumps(converged))
        assert type(loaded.states) is dict
        assert {asn: loaded.next_hops(asn) for asn in asns} == expected
        # and it is what the reference engine's live speakers decided.
        reference = ReferenceEngine(internet).run(**run)
        assert {
            asn: state_next_hops(reference.states[asn]) for asn in asns
        } == expected
        assert converged.next_hops(max(asns) + 1) is None


# -- probes ------------------------------------------------------------------


ping_targets = st.builds(
    PingTarget,
    target_id=st.integers(0, 10**6),
    asn=st.just(100000),
    prefix=st.just("10.0.0.0/24"),
    last_mile_rtt_ms=st.just(2.0),
    loss_rate=st.sampled_from([0.0, 0.05, 0.5, 0.95]),
)


class TestOneProbeDefinition:
    @given(
        st.integers(0, 50),
        ping_targets,
        st.floats(0.0, 400.0),
        st.integers(1, 500),
        st.integers(0, 9),
    )
    @settings(**SETTINGS)
    def test_train_is_a_list_of_probes(self, seed, target, rtt, experiment_id, count):
        prober = IcmpProber(seed=seed)
        expected = [prober.probe(target, rtt, experiment_id, s) for s in range(count)]

        def train():
            delays = prober.delays(
                [target.target_id], [target.loss_rate], experiment_id, range(count)
            )
            return [None if d == math.inf else rtt + d for d in delays.reshape(-1).tolist()]

        assert train() == expected
        # No state rides from one train to the next on a shared prober.
        assert train() == expected

    @given(st.integers(0, 50), ping_targets, st.integers(1, 500), st.integers(0, 200))
    @settings(**SETTINGS)
    def test_answered_is_the_loss_decision(self, seed, target, experiment_id, seq):
        prober = IcmpProber(seed=seed)
        lost = prober.probe(target, 30.0, experiment_id, seq) is None
        assert prober.answered(target, experiment_id, seq) == (not lost)


class TestLossOnlyCatchments:
    def test_matches_full_probe_loop(self, noisy_orchestrator, targets):
        deployment = noisy_orchestrator.deploy(AnycastConfig(site_order=(1, 6, 9)))
        prober = noisy_orchestrator.prober
        assert {t.loss_rate == 0.0 for t in targets} == {True, False}
        cmap = measure_catchments(deployment, targets, prober)
        assert cmap.mapping == full_probe_catchments(deployment, targets, prober)

    def test_matches_when_retries_run_out(self, noisy_orchestrator, targets):
        """Heavy loss: some targets need a retry, some exhaust all four
        attempts and stay unmapped — the same ones either way."""
        lossy = [dataclasses.replace(t, loss_rate=0.7) for t in list(targets)[:150]]
        deployment = noisy_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        prober = noisy_orchestrator.prober
        cmap = measure_catchments(deployment, lossy, prober)
        assert cmap.mapping == full_probe_catchments(deployment, lossy, prober)
        assert 0 < cmap.mapped_count() < len(lossy)

    @pytest.mark.parametrize("retries", [0, 1, 2, 3])
    def test_matches_at_every_retry_count(self, noisy_orchestrator, targets, retries):
        lossy = [dataclasses.replace(t, loss_rate=0.6) for t in list(targets)[:150]]
        deployment = noisy_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        prober = noisy_orchestrator.prober
        cmap = measure_catchments(deployment, lossy, prober, retries=retries)
        assert cmap.mapping == full_probe_catchments(deployment, lossy, prober, retries)
        assert 0 < cmap.mapped_count() < len(lossy)

    def test_matches_on_a_caller_supplied_subset(self, noisy_orchestrator, targets):
        """A plain list, out of order, lossy targets included: the map
        holds exactly those targets, in the caller's order."""
        subset = list(targets)[::-3]
        assert {t.loss_rate == 0.0 for t in subset} == {True, False}
        deployment = noisy_orchestrator.deploy(AnycastConfig(site_order=(9, 1, 6)))
        cmap = deployment.measure_catchments(iter(subset))
        expected = full_probe_catchments(deployment, subset, noisy_orchestrator.prober)
        assert cmap.mapping == expected
        assert list(cmap.mapping) == [t.target_id for t in subset]

    def test_targets_behind_a_split_follow_their_own_flow(self):
        """Where every AS hashes, the one pass still forwards flow by
        flow: targets of one AS can land at different sites."""
        params = TestbedParams(
            topology=TopologyParams(n_stub=150, n_tier2=24, multipath_fraction=1.0)
        )
        testbed = build_paper_testbed(params, seed=SEED)
        targets = select_targets(testbed.internet, targets_per_as_min=3, seed=SEED)
        orchestrator = Orchestrator(testbed, targets, seed=SEED)
        deployment = orchestrator.deploy(AnycastConfig(site_order=(1, 4, 6, 9)))
        cmap = deployment.measure_catchments()
        assert cmap.mapping == full_probe_catchments(
            deployment, targets, orchestrator.prober
        )
        split = [
            asn for asn in targets.asns()
            if deployment.dataplane.resolve(asn) is PER_FLOW
        ]
        assert split
        assert any(
            len({cmap.mapping[t.target_id] for t in targets.in_as(asn)} - {None}) > 1
            for asn in split
        )

    def test_needs_no_true_rtt(self, clean_orchestrator, targets):
        """The duck-typed deployment is two attributes wide."""

        class Bare:
            experiment_id = 1

            def __init__(self, deployment):
                self.dataplane = deployment.dataplane

        deployment = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        cmap = measure_catchments(Bare(deployment), targets, clean_orchestrator.prober)
        assert cmap.mapping == deployment.measure_catchments().mapping


# -- work counts -------------------------------------------------------------


def test_probing_resolves_a_deployment_once(monkeypatch):
    """The paper world, one 5-site deployment, a catchment pass and an
    RTT estimate per target: deploying resolves nothing; probing builds
    no stub state, decides each client AS once and resolves each hop
    key once."""
    testbed = build_paper_testbed(None, seed=SEED)
    targets = select_targets(testbed.internet, seed=SEED)
    clients = set(targets.asns())
    assert (len(testbed.internet.graph), len(targets), len(clients)) == (656, 1120, 451)

    decided = collections.Counter()
    resolved = collections.Counter()
    next_hops, record = LazyStates.next_hops, DataPlane._record

    def counted_next_hops(self, asn):
        decided[asn] += 1
        return next_hops(self, asn)

    def counted_record(self, asn, entry):
        resolved[(asn, entry)] += 1
        return record(self, asn, entry)

    monkeypatch.setattr(LazyStates, "next_hops", counted_next_hops)
    monkeypatch.setattr(DataPlane, "_record", counted_record)

    orchestrator = Orchestrator(testbed, targets, seed=SEED)
    deployment = orchestrator.deploy(AnycastConfig(site_order=(1, 4, 6, 9, 12)))
    dataplane, states = deployment.dataplane, deployment.converged.states
    assert not decided and not resolved
    assert not dataplane._table and not dataplane._memo
    assert not testbed.internet.graph.tables().hops
    assert "columns" not in vars(targets)

    cmap = deployment.measure_catchments()
    rtts = [deployment.measure_rtt(target) for target in targets]
    assert cmap.mapped_count() > 1000 and sum(r is not None for r in rtts) > 1000

    assert states._aggregated >= clients
    assert not states._aggregated & set(states._materialized)
    assert {decided[asn] for asn in clients} == {1}
    assert set(resolved.values()) == {1}
    # One record per client AS (single-PoP stubs) plus the transit hops
    # they share — one per entry PoP, each asking its AS's decision.
    assert sum(1 for asn, _ in resolved if asn in clients) == 451
    assert sum(decided.values()) == len(resolved) < 451 + 150
    assert set(dataplane._table) >= set(resolved)


# -- the whole campaign ------------------------------------------------------


#: SHA-256 of the small-testbed campaign's model, re-pinned by the PR
#: that defined per-experiment noise as a counter-based stream (PR 22;
#: 378394e2… before it).  The executor/fault identity matrices compare
#: the code with itself; this compares it with its past.  It moves only
#: when a noise stream, the topology generator or the model format
#: changes — re-pin it then, in the PR that says so, from the parent.
GOLDEN_MODEL_SHA256 = "d1806f8cf7b04e0fc07d0f3dab664e9e7fb6fc6b660860fa9ace62cee8e6216b"


def test_golden_model_digest(testbed, targets):
    model = AnyOpt(testbed, targets=targets, seed=SEED).discover()
    doc = json.dumps(model_to_dict(model), sort_keys=True)
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == GOLDEN_MODEL_SHA256
