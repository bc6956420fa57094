"""Bit-identity of the delta convergence engine.

The engine (one event loop over per-run records, pure-stub aggregation,
states built on read) must be indistinguishable — states, convergence
time, message count, enabled sites — from the speaker-per-AS oracle
(``tests/reference_engine.py``), across every workload shape the
campaign layer can produce: staggering, withdrawals, poisoning
(including poisoning an aggregated stub), IGP overlays, delay jitter,
injections hosted at stubs that normally aggregate, multi-homed stub
populations, and runs sharing one engine across threads.
"""

import gc
import inspect
import itertools
import math
import pickle
import random
import sys
import threading
import tracemalloc
import weakref

import numpy
import pytest

from repro import AnyOpt, CampaignSettings, TestbedParams, TopologyParams, build_paper_testbed
from repro.bgp.delta import _ARRIVAL_MARGIN, DeltaConverger, LazyStates, LinkJitter
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator
from repro.bgp.engine import BGPEngine, SiteInjection, SiteWithdrawal
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.generator import Internet, ScaleSweepParams, generate_scale_internet
from repro.topology.geo import city
from repro.util.errors import ConvergenceBudgetError, ReproError
from repro.util.rng import stable_hash, uniforms
from tests.conftest import watch_results
from tests.reference_engine import ReferenceEngine, _PlainLoop

SEED = 7


def injection(testbed, site_id, t=0.0, poison=()):
    site = testbed.site(site_id)
    return SiteInjection(
        host_asn=site.provider_asn,
        site_id=site_id,
        pop_id=site.attach_pop,
        link_rtt_ms=site.access_rtt_ms,
        rel_from_host=Relationship.CUSTOMER,
        announce_time_ms=t,
        poison=tuple(poison),
    )


def engine_pair(internet):
    """The engine and the per-run reference."""
    return BGPEngine(internet), ReferenceEngine(internet)


def assert_same(a, b):
    assert a.states == b.states
    assert a.convergence_time_ms == b.convergence_time_ms
    assert a.message_count == b.message_count
    assert a.enabled_sites == b.enabled_sites


def assert_identical(internet, injections, **kwargs):
    delta, reference = (e.run(injections, **kwargs) for e in engine_pair(internet))
    assert_same(delta, reference)
    return delta


class TestBitIdentity:
    def test_single_site(self, testbed):
        assert_identical(testbed.internet, [injection(testbed, 1)])

    def test_staggered_multi_site(self, testbed):
        assert_identical(
            testbed.internet,
            [
                injection(testbed, 1),
                injection(testbed, 4, t=1000.0),
                injection(testbed, 6, t=360000.0),
            ],
        )

    def test_simultaneous_race_with_jitter(self, testbed):
        for nonce in (0, 1, 2):
            assert_identical(
                testbed.internet,
                [injection(testbed, 1), injection(testbed, 6)],
                delay_jitter_ms=5.0,
                delay_nonce=nonce,
            )

    def test_withdrawal_reconvergence(self, testbed):
        assert_identical(
            testbed.internet,
            [injection(testbed, 1), injection(testbed, 6, t=360000.0)],
            withdrawals=[
                SiteWithdrawal(
                    host_asn=testbed.site(6).provider_asn,
                    site_id=6,
                    withdraw_time_ms=720000.0,
                )
            ],
        )

    def test_igp_overlay(self, testbed):
        tables = testbed.internet.graph.tables()
        sessions = sorted(tables.session_import)[:40]
        overlay = {s: (i % 7) * 3 for i, s in enumerate(sessions)}
        assert_identical(
            testbed.internet,
            [injection(testbed, 1), injection(testbed, 4, t=2000.0)],
            igp_overlay=overlay,
        )

    def test_poisoned_transit(self, testbed):
        plain = BGPEngine(testbed.internet).run([injection(testbed, 1)])
        carrier = next(
            asn
            for asn, state in plain.states.items()
            if testbed.internet.graph.as_of(asn).tier == 2 and state.best is not None
        )
        assert_identical(
            testbed.internet, [injection(testbed, 1, poison=(carrier,))]
        )

    def test_poisoned_aggregated_stub(self, testbed):
        """Poisoning an AS the delta engine aggregates un-aggregates it
        for the run: the stub must end route-less while its siblings
        keep theirs, and a previously advertised route must be
        withdrawn, not merely skipped."""
        tables = testbed.internet.graph.tables()
        assert tables.stub_providers, "testbed has no aggregatable stubs"
        stub = sorted(tables.stub_providers)[0]
        # Every route in this run names the stub.
        converged = assert_identical(
            testbed.internet, [injection(testbed, 1, poison=(stub,))]
        )
        assert converged.states[stub].best is None
        assert converged.next_hops(stub) is None

        # A provider that already advertised a plain route to the stub
        # switches to a customer route naming it: withdrawn from the
        # stub, announced to the stub's siblings.
        provider = tables.stub_providers[stub][0]
        sibling = next(
            s for s in tables.export_customers[provider]
            if s != stub and s in tables.stub_providers
        )
        plain = BGPEngine(testbed.internet).run([injection(testbed, 1)])
        assert provider in plain.states[stub].adj_rib_in
        converged = assert_identical(
            testbed.internet,
            [
                injection(testbed, 1),
                SiteInjection(
                    provider, 99, None, 2.0, Relationship.CUSTOMER, 5000.0,
                    poison=(stub,),
                ),
            ],
        )
        assert provider not in converged.states[stub].adj_rib_in
        assert stub not in converged.states[provider].advertised_to
        assert stub in converged.states[sibling].adj_rib_in[provider].as_path

    def test_injection_hosted_at_aggregated_stub(self, testbed):
        """A stub that normally aggregates but hosts an announcement
        this run must go live (it exports toward its providers) while
        its siblings stay aggregated."""
        tables = testbed.internet.graph.tables()
        stub = sorted(tables.stub_providers)[0]
        converged = assert_identical(
            testbed.internet,
            [
                injection(testbed, 1),
                SiteInjection(
                    host_asn=stub,
                    site_id=99,
                    pop_id=None,
                    link_rtt_ms=2.0,
                    rel_from_host=Relationship.CUSTOMER,
                    announce_time_ms=0.0,
                ),
            ],
        )
        assert converged.states[stub].best is not None

    def test_run_sequence_reuses_state_correctly(self, testbed):
        """Back-to-back heterogeneous runs on one engine (the campaign
        pattern) must each match a fresh reference run."""
        delta, reference = engine_pair(testbed.internet)
        workloads = [
            [injection(testbed, 1)],
            [injection(testbed, 2), injection(testbed, 5, t=1000.0)],
            [injection(testbed, 1)],  # repeat: nothing carries over
            [injection(testbed, 3)],
        ]
        for w in workloads:
            assert_same(delta.run(w), reference.run(w))


class TestMultiHomedAggregation:
    """Scale-sweep topologies with weak single-homing: most stubs are
    multi-homed and still aggregate (pure stubs, any homing degree)."""

    @pytest.fixture(scope="class")
    def multihomed_internet(self):
        params = ScaleSweepParams(
            n_ases=300, single_home_bias=0.3, stub_max_providers=3
        )
        return generate_scale_internet(params, seed=11)

    def test_multi_homed_stubs_are_aggregated(self, multihomed_internet):
        tables = multihomed_internet.graph.tables()
        multi = [s for s, ps in tables.stub_providers.items() if len(ps) > 1]
        assert len(multi) > 50

    def test_equivalence_across_seeds_and_workloads(self, multihomed_internet):
        graph = multihomed_internet.graph
        tier2 = [a for a in graph.asns() if graph.as_of(a).tier == 2]
        workloads = [
            [
                SiteInjection(h, i + 1, None, 1.0, Relationship.CUSTOMER, t)
                for i, (h, t) in enumerate(zip(hosts, times))
            ]
            for hosts, times in [
                (tier2[:2], (0.0, 0.0)),
                (tier2[2:5], (0.0, 1000.0, 360000.0)),
                ((tier2[0], tier2[5]), (0.0, 50.0)),
            ]
        ]
        delta, reference = engine_pair(multihomed_internet)
        for w in workloads:
            assert_same(delta.run(w), reference.run(w))

    @pytest.mark.parametrize("topology_seed", [11, 12, 13])
    def test_poisoned_sweep(self, topology_seed):
        """Seeded poisoned / re-announced / jittered / withdrawn
        workloads: whatever stubs an announcement names go live for the
        run and the outcome stays bit-identical to the reference."""
        internet = generate_scale_internet(
            ScaleSweepParams(n_ases=300, single_home_bias=0.3, stub_max_providers=3),
            seed=topology_seed,
        )
        graph = internet.graph
        tables = graph.tables()
        tier2 = [a for a in graph.asns() if graph.as_of(a).tier == 2]
        stubs = sorted(tables.stub_providers)
        transits = [a for a in graph.asns() if a not in tables.stub_providers]
        # A deviant stub may prefer a provider's route to its own
        # announcement, and the two then DISAGREE forever in lockstep.
        stub_hosts = [s for s in stubs if not graph.as_of(s).policy_deviant]
        absent = max(graph.asns()) + 1
        rng = random.Random(topology_seed)
        delta, reference = engine_pair(internet)
        withdrawn_on_poison = 0
        for _ in range(60):
            hosts = rng.sample(tier2, rng.randint(2, 4))
            injections = []
            for site_id, host in enumerate(hosts, start=1):
                poison = rng.sample(stubs, rng.randint(0, 3))
                if rng.random() < 0.2:
                    poison.append(rng.choice(transits))
                if rng.random() < 0.1:
                    poison.append(absent)
                injections.append(SiteInjection(
                    host, site_id, None, 1.0, Relationship.CUSTOMER,
                    rng.choice((0.0, 0.0, 1000.0 * site_id)),
                    poison=tuple(a for a in poison if a != host),
                ))
            # A plain announcement later re-announced through the same
            # host with an equally long path naming one of the host's
            # stub customers: the host withdraws what it advertised.
            host = hosts[0]
            customers = [c for c in tables.export_customers[host] if c in tables.stub_providers]
            renamed = rng.choice(customers) if customers and rng.random() < 0.5 else None
            if renamed is not None:
                injections[0] = SiteInjection(
                    host, 1, None, 1.0, Relationship.CUSTOMER, 0.0, prepend=2
                )
                injections.append(SiteInjection(
                    host, 50, None, 1.0, Relationship.CUSTOMER, 5000.0, poison=(renamed,)
                ))
            if rng.random() < 0.3:
                injections.append(SiteInjection(
                    rng.choice(stub_hosts), 60, None, 2.0, Relationship.CUSTOMER, 0.0
                ))
            kwargs = {}
            if rng.random() < 0.5:
                kwargs.update(delay_jitter_ms=3.0, delay_nonce=rng.randrange(100))
            if rng.random() < 0.4:
                gone = rng.choice(injections)
                kwargs["withdrawals"] = [SiteWithdrawal(gone.host_asn, gone.site_id, 500000.0)]
            result = delta.run(injections, **kwargs)
            assert_same(result, reference.run(injections, **kwargs))
            if renamed is not None and renamed in result.states[host].best.as_path:
                assert renamed not in result.states[host].advertised_to
                withdrawn_on_poison += 1
        assert withdrawn_on_poison >= 20

    def test_hosting_and_poisoned_as_is_rejected(self, multihomed_internet):
        stub = sorted(multihomed_internet.graph.tables().stub_providers)[0]
        workload = [
            SiteInjection(stub, 1, None, 1.0, Relationship.CUSTOMER, 0.0, poison=(stub,))
        ]
        errors = []
        for engine in engine_pair(multihomed_internet):
            with pytest.raises(ReproError, match="it hosts the announcement") as exc:
                engine.run(workload)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_withdraw_and_jitter_on_multihomed_population(self, multihomed_internet):
        graph = multihomed_internet.graph
        tier2 = [a for a in graph.asns() if graph.as_of(a).tier == 2]
        injections = [
            SiteInjection(tier2[0], 1, None, 1.0, Relationship.CUSTOMER, 0.0),
            SiteInjection(tier2[1], 2, None, 1.0, Relationship.CUSTOMER, 0.0),
        ]
        withdrawals = [SiteWithdrawal(tier2[1], 2, 500000.0)]
        assert_identical(
            multihomed_internet,
            injections,
            withdrawals=withdrawals,
            delay_jitter_ms=3.0,
            delay_nonce=5,
        )


class TestRunJitter:
    """The per-run delay jitter: one uniform block in the engine, the
    per-link ``expovariate`` loop in the oracle."""

    def test_block_draw_equals_per_link_expovariate(self, testbed):
        engine, reference = engine_pair(testbed.internet)
        for mean_ms, nonce in ((5.0, 0), (20.0, 1), (0.3, 77)):
            jitter = engine._draw_jitter(mean_ms, nonce)
            plain = reference._draw_jitter(mean_ms, nonce)
            assert isinstance(jitter, LinkJitter) and type(plain) is dict
            assert list(jitter) == list(plain)  # slot order is link order
            assert dict(jitter) == plain
            assert all(jitter.get(pair, 0.0) == value for pair, value in plain.items())
            assert jitter.get((-1, -2), 0.0) == 0.0

    def test_converge_takes_the_drawn_jitter_not_its_mean(self):
        """The mean is the engine's business (it draws the block); the
        loop reads only the drawn values — same contract in the oracle."""
        expected = ["self", "injections", "igp_overlay", "jitter", "withdrawals", "budget"]
        for loop in (DeltaConverger, _PlainLoop):
            assert list(inspect.signature(loop.converge).parameters) == expected

    @pytest.mark.parametrize("bad", [-1.0, -0.001, float("nan"), float("inf")])
    def test_unusable_jitter_is_rejected(self, testbed, bad):
        """``delay_jitter_ms > 0.0`` is false for a negative or NaN
        mean, which must not pass for "no jitter asked"."""
        for engine in engine_pair(testbed.internet):
            with pytest.raises(ReproError, match="delay_jitter_ms"):
                engine.run([injection(testbed, 1)], delay_jitter_ms=bad)

    def test_estimate_error_is_far_inside_the_margin(self, testbed):
        """The timestamp's vector pass trusts ``numpy.log`` only up to
        ``_ARRIVAL_MARGIN``; its actual distance from ``math.log`` must
        be orders of magnitude smaller."""
        jitter = BGPEngine(testbed.internet)._draw_jitter(20.0, 3)
        exact = numpy.array(list(jitter.values()))
        estimate = jitter.estimate(numpy.arange(len(jitter)))
        assert numpy.all(numpy.abs(estimate - exact) <= 1e-14 * exact)
        assert 1e-14 * 1e4 <= _ARRIVAL_MARGIN


def hub_internet(stub_delays_by_hub):
    """Hub ASes (a tier-1 peering clique, zero-delay links) each with
    pure-stub customers at the given one-way delays; stub ASNs count up
    from 100 in the order given."""
    graph = ASGraph()
    hubs = sorted(stub_delays_by_hub)
    for hub in hubs:
        graph.add_as(AS(asn=hub, tier=1, location=city("London")))
    for a, b in itertools.combinations(hubs, 2):
        graph.add_peering(a, b, prop_delay_ms=0.0)
    stub = 100
    for hub in hubs:
        for delay in stub_delays_by_hub[hub]:
            graph.add_as(AS(asn=stub, tier=3, location=city("Paris")))
            graph.add_provider(stub, hub, prop_delay_ms=delay)
            stub += 1
    return Internet(graph, {}, TopologyParams(), seed=5)


def converge_with_uniforms(internet, injections, uniform_of, lambd=0.05):
    """Delta versus the plain loop under hand-picked jitter uniforms
    (``uniform_of``: directed pair -> u, default 0.0, i.e. jitter -0.0);
    returns the common ``(states, last_time, messages, events)``."""
    engine = BGPEngine(internet)
    pair_slot = internet.graph.tables().pair_slot
    uniforms = numpy.array([uniform_of.get(pair, 0.0) for pair in pair_slot])
    jitter = LinkJitter(pair_slot, uniforms, lambd)
    budget = engine.event_budget()
    delta = engine._delta.converge(injections, None, jitter, (), budget)
    plain = _PlainLoop(internet, engine.prefix, engine.origin_asn).converge(
        injections, None, dict(jitter), (), budget
    )
    assert delta == plain
    return delta


def hub_injection(hub, t=0.0, **kwargs):
    return SiteInjection(hub, 1, None, 1.0, Relationship.CUSTOMER, t, **kwargs)


class TestStubArrivalTimestamp:
    """The convergence timestamp of a jittered run is a vector estimate
    over every aggregated stub plus an exact recomputation near its
    maximum; it must equal the plain loop's last delivery even when the
    leading arrivals tie or sit one ulp apart."""

    def test_single_stub(self):
        internet = hub_internet({1: [7.5]})
        _, last, messages, _ = converge_with_uniforms(
            internet, [hub_injection(1)], {(1, 100): 0.5}
        )
        assert last == 7.5 + -math.log(1.0 - 0.5) / 0.05
        assert messages == 1

    @pytest.mark.parametrize("t0", [0.0, 1000.0, 360000.0])
    def test_exactly_equal_arrivals(self, t0):
        internet = hub_internet({1: [3.0, 3.0, 1.0], 2: [3.0]})
        uniforms = {pair: 0.25 for pair in internet.graph.tables().pair_slot}
        states, last, _, _ = converge_with_uniforms(
            internet, [hub_injection(1, t0)], uniforms
        )
        step = -math.log(1.0 - 0.25) / 0.05
        assert states[100].best.arrival_time == states[101].best.arrival_time
        assert last == ((t0 + 0.0 + step) + 3.0) + step  # hub 2's stub, one hop on

    @pytest.mark.parametrize("winner_first", [True, False])
    @pytest.mark.parametrize("t0", [0.0, 1000.0])
    def test_arrivals_one_ulp_apart_with_zero_jitter(self, t0, winner_first):
        """u = 0 makes every jitter -0.0, so the arrivals are the bare
        ``t0 + delay`` sums: adjacent floats by construction."""
        low = 40.0
        high = math.nextafter(t0 + low, math.inf) - t0
        assert (t0 + high) - (t0 + low) == math.ulp(t0 + low)
        delays = [high, low, low] if winner_first else [low, low, high]
        _, last, _, _ = converge_with_uniforms(
            hub_internet({1: delays}), [hub_injection(1, t0)], {}
        )
        assert last == t0 + high

    @pytest.mark.parametrize("winner_first", [True, False])
    def test_near_tie_decided_by_the_last_bit_of_the_log(self, winner_first):
        """The adversarial pair: stub A's arrival *is* its jitter (delay
        0, t0 0), stub B's is a bare delay set to the value the vector
        pass computes for A.  The two estimates tie exactly; the exact
        arrivals differ in the last bit wherever ``numpy.log`` and
        ``math.log`` disagree, in whichever direction they disagree."""
        lambd = 0.05
        block = uniforms(stable_hash(13, "near-tie"), 0, 20000)
        logs = numpy.array([math.log(1.0 - u) for u in block.tolist()])
        differing = (numpy.log(1.0 - block) != logs).nonzero()[0]
        u = block.item(differing[0] if differing.size else 0)
        probe = LinkJitter({(0, 0): 0}, numpy.array([u]), lambd)
        exact, vectorized = probe[(0, 0)], probe.estimate(numpy.array([0])).item(0)
        assert abs(exact - vectorized) <= math.ulp(exact)
        delays = [0.0, vectorized] if winner_first == (exact > vectorized) else [vectorized, 0.0]
        internet = hub_internet({1: delays})
        jittered_stub = 100 + delays.index(0.0)
        _, last, _, _ = converge_with_uniforms(
            internet, [hub_injection(1)], {(1, jittered_stub): u}, lambd
        )
        assert last == max(exact, vectorized)

    def test_seeded_uniforms_across_hubs(self):
        internet = hub_internet({1: [5.0, 9.0], 2: [2.0, 30.0, 4.0], 3: [11.0]})
        pair_slot = internet.graph.tables().pair_slot
        for seed in range(25):
            rng = random.Random(seed)
            uniforms = {pair: rng.random() for pair in pair_slot}
            converge_with_uniforms(
                internet, [hub_injection(1), hub_injection(3, 0.0)], uniforms
            )

    @pytest.mark.parametrize("live", ["hosting", "poisoned"])
    def test_provider_with_a_live_stub_takes_the_scalar_path(self, live):
        """Hub 1 has a run-live stub (its other stubs are summed one by
        one); hub 2's stubs stay on the vector pass.  The last arrival
        is placed at each hub in turn."""
        for hub1, hub2 in (([2.0, 50.0, 3.0], [4.0]), ([2.0, 5.0, 3.0], [60.0])):
            internet = hub_internet({1: hub1, 2: hub2})
            if live == "hosting":
                injections = [hub_injection(2), hub_injection(100, 10.0)]
            else:
                injections = [hub_injection(1, poison=(100,))]
            uniforms = {pair: 0.3 for pair in internet.graph.tables().pair_slot}
            states, last, _, _ = converge_with_uniforms(internet, injections, uniforms)
            assert last == max(
                states[stub].best.arrival_time for stub in (101, 102, 103)
            )

    def test_unjittered_run_keeps_the_max_delay_shortcut(self):
        internet = hub_internet({1: [3.0, 8.0], 2: [1.0]})
        for engine in engine_pair(internet):
            assert engine.run([hub_injection(1, 100.0)]).convergence_time_ms == 108.0


class TestJitteredSweepRetention:
    def test_a_jittered_sweep_retains_no_converged_state(self):
        """Every deploy converges afresh and nothing in the campaign
        keeps its result: a dropped deploy leaves behind only its spans
        and metrics, ~3.6 KB here.  A kept result would keep its run's
        uniform jitter block alive, 8 bytes per directed link (~167 KB
        a deploy on this world)."""
        testbed = build_paper_testbed(
            TestbedParams(topology=TopologyParams(n_stub=1500, n_tier2=40)), seed=SEED
        )
        orchestrator = Orchestrator(testbed, [], seed=SEED)
        assert orchestrator.settings.bgp_delay_jitter_ms > 0.0
        orders = itertools.permutations(testbed.site_ids(), 2)
        for _ in range(3):  # tables, first runs
            orchestrator.deploy(AnycastConfig(site_order=next(orders)))
        results = watch_results(orchestrator.engine)
        deploys = 20
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(deploys):
                orchestrator.deploy(AnycastConfig(site_order=next(orders)))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        counters = orchestrator.metrics.snapshot()["counters"]
        assert counters["convergence_runs"] == deploys + 3
        assert len(results) == deploys
        assert all(ref() is None for ref in results)
        assert retained / deploys < 8 * 1024


class TestLazyStates:
    def test_delta_returns_lazy_mapping(self, testbed):
        conv = BGPEngine(testbed.internet).run([injection(testbed, 1)])
        assert isinstance(conv.states, LazyStates)
        assert len(conv.states) == len(testbed.internet.graph)
        assert set(conv.states) == set(testbed.internet.graph.asns())
        assert all(conv.states.get(asn) is conv.states[asn] for asn in conv.states)
        assert conv.states.get(-1) is None and conv.states.get(-1, "no") == "no"

    def test_untouched_ases_share_pristine_state(self, testbed):
        """A poisoned transit receives nothing (every export path
        contains it), so consecutive runs hand out the same shared
        pristine state object for it."""
        engine = BGPEngine(testbed.internet)
        plain = engine.run([injection(testbed, 1)])
        graph = testbed.internet.graph
        carrier = next(
            asn
            for asn, state in plain.states.items()
            if graph.as_of(asn).tier == 2 and state.best is not None
        )
        workload = [injection(testbed, 1, poison=(carrier,))]
        first = engine.run(workload)
        second = engine.run(workload)
        assert first.states[carrier].best is None
        assert first.states[carrier] is second.states[carrier]


def lazy_runs(testbed):
    """Jittered, overlaid, poisoned, withdrawing and live-stub runs, as
    ``(injections, run kwargs)`` by name."""
    graph = testbed.internet.graph
    tables = graph.tables()
    stub = sorted(tables.stub_providers)[0]
    plain = BGPEngine(testbed.internet).run([injection(testbed, 1)])
    carrier = next(
        asn for asn, state in plain.states.items()
        if graph.as_of(asn).tier == 2 and state.best is not None
    )
    overlay = {s: i % 4 for i, s in enumerate(sorted(tables.session_import)[::5])}
    return {
        "jittered": (
            [injection(testbed, 1), injection(testbed, 6)],
            {"delay_jitter_ms": 5.0, "delay_nonce": 4},
        ),
        "overlaid": (
            [injection(testbed, 1), injection(testbed, 4, t=2000.0)], {"igp_overlay": overlay},
        ),
        "poisoned": ([injection(testbed, 1, poison=(carrier, stub))], {}),
        "withdrawing": (
            [injection(testbed, 1), injection(testbed, 6, t=1000.0)],
            {"withdrawals": [SiteWithdrawal(testbed.site(6).provider_asn, 6, 5000.0)]},
        ),
        "live stub": (
            [injection(testbed, 1), SiteInjection(stub, 99, None, 2.0, Relationship.PEER, 100.0)],
            {"delay_jitter_ms": 5.0, "delay_nonce": 9},
        ),
    }


LAZY_RUNS = ["jittered", "overlaid", "poisoned", "withdrawing", "live stub"]


class TestStatesBuiltOnRead:
    """A run keeps records; a state exists once someone reads it."""

    @pytest.mark.parametrize("kind", LAZY_RUNS)
    def test_next_hops_from_records_equal_built_states(self, testbed, kind):
        injections, kwargs = lazy_runs(testbed)[kind]
        engine = BGPEngine(testbed.internet)
        asns = sorted(testbed.internet.graph.asns())
        # Asked first: every answer comes from a record or the stubs'
        # episodes, and builds nothing.
        first = engine.run(injections, **kwargs)
        answered = [first.next_hops(asn) for asn in asns]
        assert not first.states._materialized
        assert answered == [first.states[asn].next_hops() for asn in asns]
        assert any(hops is not None for hops in answered)
        # Built first: the same answers.
        second = engine.run(injections, **kwargs)
        built = [second.states[asn].next_hops() for asn in asns]
        assert built == answered == [second.next_hops(asn) for asn in asns]

    @pytest.mark.parametrize("kind", LAZY_RUNS)
    def test_dict_and_pickle_equal_the_reference(self, testbed, kind):
        """Materialized with ``dict``, a result's states are plain
        ``RouterState`` values: equal to the reference's, and they
        survive a pickle round trip."""
        injections, kwargs = lazy_runs(testbed)[kind]
        engine, reference = engine_pair(testbed.internet)
        expected = reference.run(injections, **kwargs).states
        assert dict(engine.run(injections, **kwargs).states) == expected
        revived = pickle.loads(pickle.dumps(dict(engine.run(injections, **kwargs).states)))
        assert type(revived) is dict and revived == expected

    def test_a_held_state_read_twice_is_equal(self, testbed):
        """A result its caller holds is read more than once: its states,
        built on the first read, are the ones the second read returns,
        also when threads read it at once."""
        injections = [injection(testbed, 1), injection(testbed, 6, t=1000.0)]
        engine = BGPEngine(testbed.internet)
        expected = ReferenceEngine(testbed.internet).run(injections).states
        asns = sorted(expected)
        held = engine.run(injections)
        hops = [held.next_hops(asn) for asn in asns]
        once = dict(held.states)
        twice = dict(held.states)
        assert once == twice == expected
        assert all(once[asn] is twice[asn] for asn in asns)
        assert [held.next_hops(asn) for asn in asns] == hops

        shared = engine.run([injection(testbed, 4), injection(testbed, 9, t=500.0)])
        reads = []
        threads = [
            threading.Thread(target=lambda: reads.append(dict(shared.states))) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(reads) == 4
        # Every reader got the one kept state of each AS, not its own build.
        kept = dict(shared.states)
        assert all(read[asn] is kept[asn] for read in reads for asn in asns)


class TestBudget:
    def test_budget_census_in_delta_mode(self, testbed):
        engine = BGPEngine(testbed.internet, max_events=10)
        with pytest.raises(ConvergenceBudgetError) as exc:
            engine.run([injection(testbed, 1)])
        err = exc.value
        assert err.budget == 10
        assert err.events > 10
        assert err.ases_touched >= 1
        assert err.virtual_time_ms >= 0.0


class TestCampaignEquivalence:
    """Delta versus the reference at the campaign layer: the
    fault-injection/retry machinery must see no difference."""

    def test_fault_injection_equivalent_across_modes(self, testbed, targets):
        outcomes = {}
        for mode in ("delta", "reference"):
            settings = CampaignSettings(
                fault_announcement_prob=0.15,
                fault_convergence_timeout_prob=0.05,
            )
            orch = Orchestrator(testbed, targets, seed=SEED, settings=settings)
            if mode == "reference":
                orch.engine = ReferenceEngine(testbed.internet)
            deployments = [
                orch.deploy(AnycastConfig(site_order=tuple(testbed.site_ids()[:k])))
                for k in (2, 3, 4)
            ]
            outcomes[mode] = [
                (
                    dict(d.converged.states.items()),
                    d.converged.message_count,
                    d.converged.convergence_time_ms,
                    d.converged.enabled_sites,
                )
                for d in deployments
            ]
        assert outcomes["delta"] == outcomes["reference"]


class TestNextHopsEquivalence:
    def test_next_hops_match_full_engine(self, testbed):
        """The one next-hop view of a converged state: the delta engine
        answers it for aggregated stubs from their providers' episodes,
        the reference from its live speakers' states."""
        injections = [injection(testbed, 1), injection(testbed, 6, t=360000.0)]
        delta, full = (e.run(injections) for e in engine_pair(testbed.internet))
        asns = testbed.internet.graph.asns()
        assert [delta.next_hops(a) for a in asns] == [full.next_hops(a) for a in asns]
        assert any(hops is not None for hops in map(delta.next_hops, asns))
        # No stub state was built to answer.
        assert delta.states._aggregated
        assert not delta.states._aggregated & set(delta.states._materialized)


class TestSharedAcrossThreads:
    def test_concurrent_runs_equal_the_reference(self, testbed):
        """One engine shared by 4 threads, 25 runs each — jitter, an IGP
        overlay and a live stub in every run, so the providers' run-local
        export tuples are built concurrently — and every result equals
        the oracle's for the same inputs."""
        tables = testbed.internet.graph.tables()
        stub = sorted(tables.stub_providers)[0]
        sessions = sorted(tables.session_import)
        workloads = [
            (
                [
                    injection(testbed, 1 + i % 5),
                    injection(testbed, 6 + i % 4, t=(i % 3) * 500.0),
                    SiteInjection(stub, 99, None, 2.0, Relationship.PEER, 100.0 * (i % 2)),
                ],
                {
                    "igp_overlay": {s: (i + j) % 9 for j, s in enumerate(sessions[i::13])},
                    "delay_jitter_ms": 5.0,
                    "delay_nonce": i,
                },
            )
            for i in range(25)
        ]
        reference = ReferenceEngine(testbed.internet)
        expected = [reference.run(injections, **kw) for injections, kw in workloads]
        engine = BGPEngine(testbed.internet)
        results, errors = [], []

        def worker(offset):
            try:
                for k in range(len(workloads)):
                    i = (k + offset) % len(workloads)
                    injections, kw = workloads[i]
                    results.append((i, engine.run(injections, **kw)))
            except Exception as exc:  # reported below, with the others
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(7 * n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * len(workloads)
        for i, result in results:
            assert_same(result, expected[i])
            assert result.states[stub].best is not None


class TestNoReferenceCycle:
    def test_dropping_anyopt_frees_engine(self, testbed, targets):
        """The converger holds the engine's inputs, not the engine, so
        reference counting alone reclaims a campaign's engine and its
        results: peak memory does not depend on when the cyclic
        collector last ran."""
        gc.collect()
        gc.disable()
        try:
            anyopt = AnyOpt(testbed, targets=targets, seed=SEED)
            anyopt.deploy(AnycastConfig(site_order=(1, 6))).measure_catchments()
            anyopt.deploy(AnycastConfig(site_order=(6, 1)))
            engine = weakref.ref(anyopt.orchestrator.engine)
            result = engine().run([injection(testbed, 9)])
            state = weakref.ref(result)
            del anyopt
            # A result the caller still holds does not keep the engine.
            assert engine() is None and state() is not None
            del result
            assert state() is None
        finally:
            gc.enable()
