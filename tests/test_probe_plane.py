"""The probe plane against oracles that live with the tests.

``DataPlane.forward`` resolves each client AS once per deployment,
catchment mapping draws only a probe's loss decision, and the RTT train
reseeds one ``Random``.  Each shortcut is compared — with ``==``, floats
included — against the plain form it replaced: the unmemoized
hop-by-hop walk, the full-probe catchment loop, and one ``probe()`` per
sequence number.  A golden digest pins every noise stream of a whole
campaign to the value the commit before the rewrite produced.
"""

import dataclasses
import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnyOpt
from repro.bgp.dataplane import DataPlane
from repro.bgp.engine import BGPEngine, SiteInjection, SiteWithdrawal
from repro.core.config import AnycastConfig
from repro.io import model_to_dict
from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.measurement.verfploeter import measure_catchments
from repro.topology.astopo import Relationship
from repro.topology.generator import TopologyParams, generate_internet
from repro.util.rng import stable_hash
from tests.conftest import SEED

SETTINGS = dict(max_examples=25, deadline=None)


# -- oracles -----------------------------------------------------------------


def reference_forward(internet, converged, flow_nonce, client_asn, flow_key):
    """The hop-by-hop walk as it was before memoization: every flow is
    walked from scratch.  Only the per-hop cost helpers (pure functions
    of their arguments) are borrowed from a throw-away ``DataPlane``."""
    costs = DataPlane(internet, converged, flow_nonce)
    graph = internet.graph
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
        if route.is_injected():
            return costs._terminate(cur, prev, route, rtt, tuple(hops))
        nxt = route.learned_from
        if nxt in hops:
            return None
        rtt += costs._transit_cost(prev, cur, nxt)
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
                if not result.lost:
                    site = outcome.site_id
                    break
        mapping[target.target_id] = site
    return mapping


def assert_forward_matches_reference(internet, converged, flow_nonce, flows):
    """``flows`` is a list of (client ASN, flow key); the memoizing
    data plane sees them in order, then again reversed (all hits)."""
    dataplane = DataPlane(internet, converged, flow_nonce=flow_nonce)
    for asn, key in flows + flows[::-1]:
        expected = reference_forward(internet, converged, flow_nonce, asn, key)
        assert dataplane.forward(asn, key) == expected, (asn, key)


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
    """A random Internet (often multipath-heavy) converged under spaced
    injections, some poisoned, some withdrawn again, with interior
    costs churned on a few sessions."""
    params = TopologyParams(
        n_tier1=draw(st.integers(min_value=2, max_value=5)),
        n_tier2=draw(st.integers(min_value=2, max_value=8)),
        n_stub=draw(st.integers(min_value=5, max_value=30)),
        tier1_pop_min=2,
        tier1_pop_max=4,
        multipath_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        igp_tie_fraction=draw(st.sampled_from([0.0, 0.5])),
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
    converged = BGPEngine(internet).run(
        injections, igp_overlay=overlay, withdrawals=withdrawals
    )
    return internet, converged


class TestForwardEqualsReference:
    @given(converged_worlds(), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(**SETTINGS)
    def test_random_worlds(self, world, flow_nonce, rnd):
        internet, converged = world
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
        assert prober.probe_train(target, rtt, experiment_id, count) == expected
        # No state rides from one train to the next on a shared prober.
        assert prober.probe_train(target, rtt, experiment_id, count) == expected

    @given(st.integers(0, 50), ping_targets, st.integers(1, 500), st.integers(0, 200))
    @settings(**SETTINGS)
    def test_answered_is_the_loss_decision(self, seed, target, experiment_id, seq):
        prober = IcmpProber(seed=seed)
        lost = prober.probe(target, 30.0, experiment_id, seq).lost
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

    def test_needs_no_true_rtt(self, clean_orchestrator, targets):
        """The duck-typed deployment is two attributes wide."""

        class Bare:
            experiment_id = 1

            def __init__(self, deployment):
                self.forwarding = deployment.forwarding

        deployment = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        cmap = measure_catchments(Bare(deployment), targets, clean_orchestrator.prober)
        assert cmap.mapping == deployment.measure_catchments().mapping


# -- the whole campaign ------------------------------------------------------


#: SHA-256 of the small-testbed campaign's model at the commit *before*
#: the probe-plane rewrite.  The executor/fault identity matrices compare
#: the code with itself; this compares it with its past.  It moves only
#: when a noise stream, the topology generator or the model format
#: changes — re-pin it then, in the PR that says so, from the parent.
GOLDEN_MODEL_SHA256 = "378394e22af64819b80afabc3ba8b6222d3219283e01ecb9196d6851949eaea6"


def test_golden_model_digest(testbed, targets):
    model = AnyOpt(testbed, targets=targets, seed=SEED).discover()
    doc = json.dumps(model_to_dict(model), sort_keys=True)
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == GOLDEN_MODEL_SHA256
