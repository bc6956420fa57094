"""The probe plane against oracles that live with the tests.

A deployment is resolved once, as arrays: every aggregated stub's next
hop is one ``argmin`` over a packed key built from its providers' export
episodes (no state), its first hop comes from static columns, the
transit nodes the clients arrive at are walked once each and the RTTs
replayed level by level; ``DataPlane.forward`` stays the single-flow
walk over the same hop records.  Catchment mapping draws only a probe's
loss decision.  Each shortcut is compared — with ``==``, floats included
— against the plain form it replaced: the unmemoized hop-by-hop walk
over the per-AS states, those states' own ``best`` / ``multipath`` (and
the reference engine's live speakers), the full-probe catchment loop,
and one ``probe()`` per sequence number.  A golden digest pins every
noise stream of a whole campaign (re-pinned once, by the PR that moved
the per-experiment noise onto the counter-based stream;
``tests/test_noise.py`` checks that noise against its definition and
its closed-form moments).
"""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import pickle

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnyOpt, CampaignSettings, build_paper_testbed, select_targets
from repro.bgp import delta
from repro.bgp.dataplane import DataPlane, ForwardingOutcome
from repro.bgp.delta import LIVE, LazyStates
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
from repro.topology import SiteSpec, TestbedParams, build_custom_testbed
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.generator import Internet, TopologyParams, generate_internet
from repro.topology.geo import city
from repro.topology.intradomain import PopNetwork
from repro.util.errors import ReproError
from repro.util.rng import derive_rng, stable_hash
from tests.conftest import SEED, hashed_clients
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
        stubs = sorted(graph.tables().stub_providers)
        at_client, mid_path = [], []
        for stub in sorted(hashed_clients(DataPlane(internet, converged), stubs)):
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
        assert hashed_clients(DataPlane(internet, converged), [4]) == {4}

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


# -- the array pass ----------------------------------------------------------


def bulk_rows(dataplane, flows):
    """``resolve_flows`` over ``flows`` = [(client ASN, flow key)]: one
    ``(site, rtt)`` or None per flow."""
    sites, rtts = dataplane.resolve_flows(*zip(*flows))
    return [
        None if rtt != rtt else (site, rtt)
        for site, rtt in zip(sites.tolist(), rtts.tolist())
    ]


def assert_bulk_matches_reference(internet, converged, flow_nonce, flows):
    """The columns of one ``resolve_flows`` call — made before the
    reference reads, and so materialises, any state — hold the
    reference walk's site and RTT (``==`` on the float) per flow, in
    either order; so do they on a data plane that forwarded every flow
    singly first.  Returns the rows."""
    dataplane = DataPlane(internet, converged, flow_nonce=flow_nonce)
    rows = bulk_rows(dataplane, flows)
    expected = [
        outcome and (outcome.site_id, outcome.rtt_ms)
        for outcome in (
            reference_forward(internet, converged, flow_nonce, asn, key)
            for asn, key in flows
        )
    ]
    assert rows == expected
    assert bulk_rows(dataplane, flows[::-1]) == expected[::-1]
    dataplane = DataPlane(internet, converged, flow_nonce=flow_nonce)
    singly = [dataplane.forward(asn, key) for asn, key in flows]
    assert [o and (o.site_id, o.rtt_ms) for o in singly] == expected
    assert bulk_rows(dataplane, flows) == expected
    return expected


def client_flows(internet, keys=(0, "flow-a")):
    return [(asn, key) for asn in internet.graph.client_asns() for key in keys]


def target_flows(targets):
    return list(zip(targets.columns.asns, targets.columns.ids))


class TestBulkEqualsReference:
    @given(converged_worlds(), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(**SETTINGS)
    def test_random_worlds(self, world, flow_nonce, rnd):
        """Poison, mid-run withdrawals, churned interior costs, jitter,
        multipath — and the same answers from the pickled result,
        whose plain-dict states are forwarded flow by flow."""
        internet, converged, _ = world
        flows = client_flows(internet, keys=(0, "flow-a", 3))
        rnd.shuffle(flows)
        expected = assert_bulk_matches_reference(internet, converged, flow_nonce, flows)
        loaded = pickle.loads(pickle.dumps(converged))
        assert loaded.stub_choices() is None
        assert bulk_rows(DataPlane(internet, loaded, flow_nonce), flows) == expected

    def test_flow_hashing_world(self):
        """Every AS hashes, every session ties: clients split at home,
        clients split further up, and clients the array pass carries."""
        params = TopologyParams(
            n_tier2=8, n_stub=60, multipath_fraction=1.0, igp_tie_fraction=1.0
        )
        internet = generate_internet(params, seed=SEED)
        converged = BGPEngine(internet).run([
            SiteInjection(host, idx + 1, 0, 1.0, Relationship.CUSTOMER, 0.0)
            for idx, host in enumerate(internet.graph.tier1_asns()[:4])
        ])
        clients = internet.graph.client_asns()
        hashed = hashed_clients(DataPlane(internet, converged), clients)
        assert 0 < len(hashed) < len(clients)
        flows = [(asn, key) for asn in clients for key in range(6)]
        for nonce in (0, 5):
            assert_bulk_matches_reference(internet, converged, nonce, flows)

    def test_peers_only_leaves_clients_unrouted(self, internet):
        graph = internet.graph
        host = next(a for a in graph.asns() if graph.as_of(a).tier == 2 and graph.customers(a))
        converged = BGPEngine(internet).run(
            [SiteInjection(host, 1, None, 1.0, Relationship.PEER, 0.0)]
        )
        rows = assert_bulk_matches_reference(internet, converged, 0, client_flows(internet))
        assert None in rows and any(rows)

    def test_live_stubs_poison_and_a_withdrawal(self, internet):
        """One client AS hosts a site, another is named in a poisoned
        path — both have speakers of their own this run, so the array
        pass leaves them to ``forward`` — and a third site is withdrawn
        after everything converged on it."""
        graph = internet.graph
        tier1 = graph.tier1_asns()
        host, poisoned = sorted(set(graph.tables().stub_providers) & set(graph.client_asns()))[:2]
        converged = BGPEngine(internet).run(
            [
                SiteInjection(tier1[0], 1, 0, 1.0, Relationship.CUSTOMER, 0.0, poison=(poisoned,)),
                SiteInjection(host, 2, None, 0.5, Relationship.CUSTOMER, 1000.0),
                SiteInjection(tier1[1], 3, 0, 1.0, Relationship.CUSTOMER, 2000.0),
            ],
            withdrawals=[SiteWithdrawal(tier1[1], 3, 2e6)],
        )
        assert not {host, poisoned} & converged.states._aggregated
        rows = assert_bulk_matches_reference(internet, converged, 0, client_flows(internet))
        by_client = dict(zip(graph.client_asns(), rows[::2]))
        assert by_client[host] == (2, 0.5)
        assert {site for site, _ in filter(None, rows)} == {1, 2}

    @pytest.mark.parametrize("churn", [0.0, 0.3])
    def test_churn_overlay_on_and_off(self, testbed, targets, churn):
        """Through the orchestrator, interior costs churned on a third
        of the ASes or on none: sites, sites plus peers, peers only."""
        orchestrator = Orchestrator(
            testbed, targets, seed=SEED, settings=CampaignSettings(session_churn_prob=churn)
        )
        peers = tuple(testbed.peer_ids()[:3])
        for config in (
            AnycastConfig(site_order=(1, 6, 9, 12)),
            AnycastConfig(site_order=(6, 1), peer_ids=peers),
            AnycastConfig(site_order=(), peer_ids=peers),
        ):
            deployment = orchestrator.deploy(config)
            assert_bulk_matches_reference(
                testbed.internet, deployment.converged, deployment.experiment_id,
                target_flows(targets),
            )

    def test_multi_pop_client_pays_its_own_backbone_first(self):
        """A custom testbed whose client ASes have backbones of their
        own: the first addend of such a client's RTT is the leg from
        the PoP nearest its users to the PoP its provider attaches at."""
        internet = generate_internet(TopologyParams(n_tier2=6, n_stub=30), seed=SEED)
        graph = internet.graph
        wide = [
            a for a in sorted(graph.tables().stub_providers) if len(graph.providers(a)) > 1
        ][:6]
        pops = [city(name) for name in ("Paris", "Tokyo", "Sydney", "Chicago")]
        for stub in wide:
            internet.pop_networks[stub] = PopNetwork(stub, pops, derive_rng(SEED, "pops", stub))
            for k, provider in enumerate(graph.providers(stub)):
                graph.link(stub, provider).attach_pop[stub] = k % 3 + 1
        graph.invalidate_tables()
        tier1 = graph.tier1_asns()
        testbed = build_custom_testbed(
            internet, [SiteSpec(tier1[0], "London"), SiteSpec(tier1[1], "Singapore")], seed=SEED
        )
        targets = select_targets(internet, seed=SEED)
        deployment = Orchestrator(testbed, targets, seed=SEED).deploy(
            AnycastConfig(site_order=(1, 2))
        )
        assert_bulk_matches_reference(
            internet, deployment.converged, deployment.experiment_id, target_flows(targets)
        )
        cols = internet.stub_columns()
        first_legs = cols.transit_ms[[cols.row[stub] for stub in wide]]
        assert 0 < (first_legs > 0.0).sum() == (cols.transit_ms > 0.0).sum()
        assert deployment.measure_rtts() == [deployment.measure_rtt(t) for t in targets]


class TestOneRowViews:
    """``forwarding``, ``measure_rtt`` and ``next_hops(stub)`` read
    rows of the array pass, whatever the subset and its order."""

    @pytest.fixture(scope="class")
    def probed(self):
        params = TestbedParams(
            topology=TopologyParams(n_stub=150, n_tier2=24, multipath_fraction=0.3)
        )
        testbed = build_paper_testbed(params, seed=SEED)
        targets = select_targets(testbed.internet, seed=SEED)
        orchestrator = Orchestrator(testbed, targets, seed=SEED)
        peers = tuple(testbed.peer_ids()[:12])
        return [
            (deployment, bulk_rows(deployment.dataplane, target_flows(targets)),
             deployment.measure_rtts())
            for deployment in (
                orchestrator.deploy(AnycastConfig(site_order=(1, 4, 6, 9), peer_ids=peers)),
                orchestrator.deploy(AnycastConfig(site_order=(), peer_ids=peers)),
            )
        ]

    def check(self, probed, positions):
        for deployment, rows, measured in probed:
            targets = deployment.orchestrator.targets
            for order in (positions, positions[::-1]):
                subset = [targets[i] for i in order]
                flows = [(t.asn, t.target_id) for t in subset]
                assert bulk_rows(deployment.dataplane, flows) == [rows[i] for i in order]
                assert deployment.measure_rtts(subset) == [measured[i] for i in order]
            for i in positions:
                outcome = deployment.forwarding(targets[i])
                assert (outcome and (outcome.site_id, outcome.rtt_ms)) == rows[i]
                assert deployment.measure_rtt(targets[i]) == measured[i]

    @given(st.data(), st.sampled_from([1, 2, 7]))
    @settings(**SETTINGS)
    def test_subsets_of_1_2_and_7(self, probed, data, size):
        count = len(probed[0][1])
        self.check(probed, data.draw(
            st.lists(st.integers(0, count - 1), min_size=size, max_size=size, unique=True)
        ))

    def test_all_targets(self, probed):
        (sited, rows, _), (peer_only, peer_rows, _) = probed
        assert len({row[0] for row in rows if row}) > 2
        assert None in peer_rows and any(peer_rows)
        assert hashed_clients(sited.dataplane, sited.orchestrator.targets.asns())
        self.check(probed, list(range(len(rows))))

    def test_next_hops_is_a_row_of_the_stub_choices(self, probed):
        for deployment, _, _ in probed:
            converged = deployment.converged
            internet = deployment.orchestrator.testbed.internet
            providers = internet.graph.tables().stub_providers
            best, tied = converged.stub_choices()
            for stub, row in internet.stub_columns().row.items():
                hops = converged.next_hops(stub)
                if stub not in converged.states._aggregated:
                    assert best[row] == LIVE
                elif best[row] < 0:
                    assert hops is None
                else:
                    assert hops[0] == providers[stub][best[row]]
                    assert (len(hops[1]) > 1) == tied[row]
            states = converged.states
            assert not states._aggregated & set(states._materialized)
        assert probed[0][0].converged.stub_choices()[1].any() and (best == -1).any()


class TestMutationsAreNoticed:
    """The two rules the array pass rests on, each broken on purpose:
    the comparison against the reference walk turns red."""

    @pytest.fixture()
    def world(self, testbed, targets):
        def deploy():
            deployment = Orchestrator(testbed, targets, seed=SEED).deploy(
                AnycastConfig(site_order=(1, 4, 6, 9, 12))
            )
            return (
                testbed.internet, deployment.converged, deployment.experiment_id,
                target_flows(targets),
            )

        return deploy

    def test_a_pre_summed_suffix(self, world, monkeypatch):
        assert_bulk_matches_reference(*world())
        suffix = DataPlane._suffix

        def pre_summed(self, node, behind=()):
            resolved = suffix(self, node, behind)
            return resolved and (resolved[0], (sum(resolved[1]),))

        monkeypatch.setattr(DataPlane, "_suffix", pre_summed)
        with pytest.raises(AssertionError):
            assert_bulk_matches_reference(*world())

    def test_two_parts_of_the_stub_key_swapped(self, internet, monkeypatch):
        """Path length where local preference goes.  The reference walk reads
        the same stub decision, so the oracle here is the reference
        engine, whose stubs are live speakers."""
        run = dict(injections=[
            SiteInjection(host, idx + 1, 0, 1.0, Relationship.CUSTOMER, idx * 1000.0)
            for idx, host in enumerate(internet.graph.tier1_asns()[:4])
        ])
        expected = ReferenceEngine(internet).run(**run).states
        stubs = sorted(internet.graph.tables().stub_providers)

        def decisions():
            converged = BGPEngine(internet).run(**run)
            return [converged.next_hops(stub) for stub in stubs]

        assert decisions() == [state_next_hops(expected[stub]) for stub in stubs]
        stub_key = delta._stub_key
        monkeypatch.setattr(
            delta, "_stub_key",
            lambda local_pref, length, interior: stub_key(length, local_pref, interior),
        )
        assert decisions() != [state_next_hops(expected[stub]) for stub in stubs]


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


    @given(st.lists(
        st.tuples(st.integers(0, 2**18 - 1), st.integers(0, 2**12 - 1), st.integers(0, 2**32 - 1)),
        min_size=2, max_size=6,
    ))
    @settings(**SETTINGS)
    def test_packed_key_orders_like_the_tuple(self, parts):
        columns = [numpy.array(column, dtype=numpy.int64) for column in zip(*parts)]
        packed = delta._stub_key(*columns).tolist()
        strict = [(-local_pref, length, interior) for local_pref, length, interior in parts]
        for i, j in itertools.combinations(range(len(parts)), 2):
            assert (packed[i] < packed[j]) == (strict[i] < strict[j])
            assert (packed[i] == packed[j]) == (strict[i] == strict[j])

    @pytest.mark.parametrize("parts", [(2**18, 1, 1), (1, 2**12, 1), (1, 1, 2**32), (1, 1, -1)])
    def test_a_key_that_does_not_fit_is_refused(self, parts):
        with pytest.raises(ReproError):
            delta._stub_key(*(numpy.array([[part]], dtype=numpy.int64) for part in parts))


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
        split = hashed_clients(deployment.dataplane, targets.asns())
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
    RTT row: deploying resolves nothing — no hop, no static column;
    probing builds no stub state, takes no per-stub decision and keeps
    no hop record for any client the array pass carries (all but the
    one whose own tied providers hash its flows), and resolves each
    transit hop key once."""
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
    tables = testbed.internet.graph.tables()
    assert not decided and not resolved
    assert not dataplane._table and not dataplane._memo and not dataplane._suffixes
    assert not tables.hops and tables.stub_columns is None
    assert states._stubs._decided is None
    assert "columns" not in vars(targets)

    cmap = deployment.measure_catchments()
    rtts = deployment.measure_rtts()
    assert cmap.mapped_count() > 1000 and sum(r is not None for r in rtts) > 1000

    assert states._aggregated >= clients
    assert not states._aggregated & set(states._materialized)
    hashed = hashed_clients(dataplane, sorted(clients))
    assert len(hashed) == 1
    assert set(decided) & clients == hashed
    assert {asn for asn, _ in resolved if asn in clients} == hashed
    assert set(resolved.values()) == {1}
    # The transit hops the clients share: one record per entry PoP,
    # each asking its AS's decision, each the start of one suffix.
    assert len(resolved) - len(hashed) == len(dataplane._suffixes) < 150
    assert sum(decided.values()) == len(resolved)
    assert set(dataplane._table) >= set(resolved)


# -- the whole campaign ------------------------------------------------------


#: SHA-256 of the small-testbed campaign's model, re-pinned by the PR
#: that defined per-experiment noise as a counter-based stream (PR 22;
#: 378394e2… before it).  The executor/fault identity matrices compare
#: the code with itself; this compares it with its past.  It moves only
#: when a noise stream, the topology generator or the model format
#: changes — re-pin it then, in the PR that says so, from the parent.
GOLDEN_MODEL_SHA256 = "d1806f8cf7b04e0fc07d0f3dab664e9e7fb6fc6b660860fa9ace62cee8e6216b"


def model_digest(model) -> str:
    doc = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def test_golden_model_digest(testbed, targets):
    model = AnyOpt(testbed, targets=targets, seed=SEED).discover()
    assert model_digest(model) == GOLDEN_MODEL_SHA256


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_pooled_discover_has_the_golden_digest(testbed, targets, kind):
    pooled = CampaignSettings(parallelism=2, executor=kind)
    with AnyOpt(testbed, targets=targets, seed=SEED, settings=pooled) as anyopt:
        assert model_digest(anyopt.discover()) == GOLDEN_MODEL_SHA256
