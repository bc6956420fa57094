"""Per-experiment noise is a function, checked against things that
share no code with it.

(a) purity — a word is its address, whatever was read before, on
    whichever thread; the words are Philox-4x64-10 as written out in
    ``tests/reference_noise.py``; rows by id are those words (a dense
    run is read as one slice, never sorted); ``ln`` and ``cos`` are
    libm's, bit for bit;
(b) every one-row view equals the bulk answer, for any subset in any
    order, on worlds with sparse ids, lossy targets, flow-hashing ASes
    and clients without a route;
(c) closed-form moments of every noise source over >= 10**5 draws;
(d) the probe model the slow way (the engine oracles' draw loops live in
    ``tests/reference_engine.py`` and ``tests/test_orchestrator.py``);
(e) the two mistakes worth guarding against — ``numpy.log`` for
    ``math.log``, addressing by call order — fail these checks.
"""

import hashlib
import math
import threading

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CampaignSettings, select_targets
from repro.bgp.engine import SiteInjection
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator
from repro.measurement.icmp import IcmpProber
from repro.measurement.orchestrator import Deployment
from repro.measurement.rtt import estimate_rtts
from repro.measurement.targets import PingTarget, TargetSet
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed
from repro.topology.astopo import Relationship
from repro.util import rng
from repro.util.rng import exponentials, noise_key, standard_normals, uniform_rows, uniforms

from tests.conftest import hashed_clients
from tests.reference_noise import reference_exponential, reference_normal, reference_uniform

SEED = 7
SETTINGS = dict(max_examples=25, deadline=None)
keys = st.integers(0, 2**64 - 1)


def correlation(a, b) -> float:
    return float(numpy.corrcoef(a, b)[0, 1])


def spy_on_unique(monkeypatch) -> list:
    """A list that grows by one per ``numpy.unique`` call from here on."""
    calls, unique = [], numpy.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(numpy, "unique", counted)
    return calls


# -- (a) purity ----------------------------------------------------------------


class TestPurity:
    @given(keys, st.integers(0, 2**32), st.integers(0, 5000), st.integers(0, 64),
           st.integers(0, 9), st.integers(0, 9))
    @settings(**SETTINGS)
    def test_a_range_is_a_slice_of_any_longer_range(self, key, row, start, n, before, after):
        expected = uniforms(key, start, n, row).tolist()
        longer = uniforms(key, max(0, start - before), before + n + after, row).tolist()
        offset = start - max(0, start - before)
        assert longer[offset:offset + n] == expected
        # ... from a scratch generator this thread has never had ...
        del rng._scratch.bits
        assert uniforms(key, start, n, row).tolist() == expected
        # ... and after unrelated draws on it.
        uniforms(key ^ 1, 3, 17, row + 1)
        uniform_rows(key, [5, 900, 2], 3)
        assert uniforms(key, start, n, row).tolist() == expected

    @given(keys, st.integers(0, 2**40), st.integers(0, 2**20))
    @settings(**SETTINGS)
    def test_words_are_philox_as_written_out(self, key, start, row):
        assert uniforms(key, start, 9, row).tolist() == [
            reference_uniform(key, start + i, row) for i in range(9)
        ]

    @given(keys, st.lists(st.integers(0, 400) | st.integers(10**6, 10**6 + 90), max_size=12),
           st.integers(1, 6), st.integers(0, 200))
    @settings(**SETTINGS)
    def test_rows_by_id_for_sparse_repeated_unordered_ids(self, key, ids, width, row):
        rows = uniform_rows(key, ids, width, row)
        assert rows.shape == (len(ids), width)
        assert rows.tolist() == [
            uniforms(key, i * width, width, row).tolist() for i in ids
        ]

    @pytest.mark.parametrize("length", [0, 1, 1120])
    @pytest.mark.parametrize("first", [0, 37])
    @pytest.mark.parametrize("kind", [list, tuple, lambda run: run, numpy.array],
                             ids=["list", "tuple", "range", "ndarray"])
    def test_rows_by_id_for_a_dense_run(self, monkeypatch, kind, first, length):
        """A dense ascending run — ``select_targets``' ids, in any
        container — is one slice: it never reaches ``numpy.unique``."""
        ids = kind(range(first, first + length))
        key = noise_key(SEED, "icmp", 3)
        sorts = spy_on_unique(monkeypatch)
        rows = uniform_rows(key, ids, 5, row=2)
        assert not sorts or not length
        assert rows.shape == (length, 5)
        assert rows.tolist() == [uniforms(key, i * 5, 5, 2).tolist() for i in range(first, first + length)]

    @pytest.mark.parametrize("ids", [[3, 2, 1], [1, 2, 2, 3], [0, 1, 3]])
    def test_rows_by_id_for_a_near_dense_run(self, monkeypatch, ids):
        """Reversed, repeated or gapped: as long and as wide as a dense
        run, and must not be read as one."""
        key = noise_key(SEED, "icmp", 3)
        sorts = spy_on_unique(monkeypatch)
        rows = uniform_rows(key, ids, 5, row=2)
        assert sorts
        assert rows.tolist() == [uniforms(key, i * 5, 5, 2).tolist() for i in ids]

    def test_transcendentals_are_libm_one_value_at_a_time(self):
        """Every bit, over 10**5 uniforms and both ends of ``[0, 1)``."""
        ends = [0.0, 1.0 - 2.0**-53]
        u = numpy.concatenate([ends, uniforms(noise_key(SEED, "icmp", 5), 0, 100_000), ends])
        assert exponentials(u).tobytes() == numpy.array(
            [reference_exponential(x) for x in u.tolist()]
        ).tobytes()
        pairs = numpy.concatenate([[[0.0, 1.0 - 2.0**-53], [1.0 - 2.0**-53, 0.0]], u.reshape(-1, 2)])
        assert standard_normals(pairs).tobytes() == numpy.array(
            [reference_normal(u0, u1) for u0, u1 in pairs.tolist()]
        ).tobytes()

    def test_two_threads_at_once(self):
        """Each thread has its own scratch generator: interleaved reads
        of different streams never see each other."""
        jobs = [(noise_key(SEED, "icmp", e), 7 * e, 501 + e) for e in range(8)]
        expected = [uniforms(*job).tolist() for job in jobs]
        barrier = threading.Barrier(2)
        seen = {}

        def reader(which):
            barrier.wait()
            seen[which] = [
                [uniforms(*job).tolist() for job in jobs[which::2]] for _ in range(200)
            ]

        threads = [threading.Thread(target=reader, args=(w,)) for w in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for which in (0, 1):
            assert all(round_ == expected[which::2] for round_ in seen[which])

    def test_nothing_outlives_a_call(self):
        """The scratch generator is the only module state, and a call
        leaves nothing in it that the next call reads."""
        key = noise_key(SEED, "rtt-drift", 3)
        first = uniforms(key, 10, 6).tolist()
        spent = rng._scratch.bits.state
        assert uniforms(key, 10, 6).tolist() == first
        rng._scratch.bits.state = spent
        assert uniforms(key, 10, 6).tolist() == first


# -- (b) one-row views equal the bulk answer -------------------------------------


def sparse(targets) -> TargetSet:
    """The same targets under ids with gaps, between runs of
    consecutive ids (``uniform_rows`` draws a run at once)."""
    return TargetSet([
        PingTarget(
            7 + t.target_id + 2 * (t.target_id // 3) + 1000 * (t.target_id // 50),
            t.asn, t.prefix, t.last_mile_rtt_ms, t.loss_rate,
        )
        for t in targets
    ])


@pytest.fixture(scope="module")
def hashed_world():
    """Every AS hashes flows; a third of the targets lose probes."""
    params = TestbedParams(
        topology=TopologyParams(n_stub=150, n_tier2=24, multipath_fraction=1.0)
    )
    testbed = build_paper_testbed(params, seed=SEED)
    targets = sparse(select_targets(
        testbed.internet, targets_per_as_min=2, targets_per_as_max=3,
        lossy_fraction=0.3, max_loss_rate=0.6, seed=SEED,
    ))
    return testbed, targets


@pytest.fixture(scope="module")
def deployments(hashed_world):
    """A four-site deployment (flow-hashed paths) and a peer-only one
    (most clients have no route), with their full bulk answers."""
    testbed, targets = hashed_world
    orchestrator = Orchestrator(testbed, targets, seed=SEED)
    four_sites = orchestrator.deploy(AnycastConfig(site_order=(1, 4, 6, 9)))
    graph = testbed.internet.graph
    host = next(a for a in graph.asns() if graph.as_of(a).tier == 2 and graph.customers(a))
    (peer_id,) = orchestrator.reserve_experiment_ids(1)
    peer_only = Deployment(
        orchestrator,
        AnycastConfig(site_order=(1,)),
        orchestrator.engine.run([SiteInjection(host, 1, None, 1.0, Relationship.PEER, 0.0)]),
        peer_id,
    )
    return [(dep, dep.measure_rtts(), dep.measure_catchments()) for dep in (four_sites, peer_only)]


def views_agree(deployment, full_rtts, full_map, targets, positions) -> bool:
    """Whether the subset at ``positions`` — asked as a bulk, reversed,
    and target by target — reads what the full pass read."""
    subset = [targets[i] for i in positions]
    expected = [full_rtts[i] for i in positions]
    orchestrator = deployment.orchestrator
    experiment_id = deployment.experiment_id
    drift = orchestrator.rtt_drift_factors(experiment_id, targets.columns.ids).tolist()
    catchments = deployment.measure_catchments(subset).mapping
    return (
        deployment.measure_rtts(subset) == expected
        and deployment.measure_rtts(subset[::-1]) == expected[::-1]
        and [deployment.measure_rtt(t) for t in subset] == expected
        and [orchestrator.rtt_drift_factor(experiment_id, t.target_id) for t in subset]
        == [drift[i] for i in positions]
        and all(catchments[t.target_id] == full_map.mapping[t.target_id] for t in subset)
    )


class TestViewsEqualBulk:
    def test_the_worlds_hold_what_the_property_is_about(self, hashed_world, deployments):
        _, targets = hashed_world
        ids = targets.columns.ids
        assert {1, 3} < {b - a for a, b in zip(ids, ids[1:])}   # runs, gaps, wide gaps
        assert 0 < numpy.count_nonzero(targets.columns.loss_rates) < len(targets)
        (four_sites, rtts, cmap), (peer_only, peer_rtts, _) = deployments
        assert hashed_clients(four_sites.dataplane, targets.asns())
        assert None in rtts and any(r is not None for r in rtts)   # lost trains
        unrouted = [t for t in targets if peer_only.forwarding(t) is None]
        assert 0 < len(unrouted) < len(targets)
        assert all(peer_rtts[ids.index(t.target_id)] is None for t in unrouted)
        assert any(r is not None for r in peer_rtts)
        assert len(set(cmap.mapping.values()) - {None}) > 1

    @given(st.data(), st.sampled_from([1, 2, 7]))
    @settings(**SETTINGS)
    def test_subsets_of_1_2_and_7(self, hashed_world, deployments, data, size):
        _, targets = hashed_world
        positions = data.draw(st.lists(
            st.integers(0, len(targets) - 1), min_size=size, max_size=size, unique=True
        ))
        for deployment, rtts, cmap in deployments:
            assert views_agree(deployment, rtts, cmap, targets, positions)

    def test_all_targets_forwards_and_reversed(self, hashed_world, deployments):
        _, targets = hashed_world
        for deployment, rtts, cmap in deployments:
            assert deployment.measure_rtts() == rtts  # asking twice changes nothing
            assert deployment.measure_rtts(list(targets)[::-1]) == rtts[::-1]
            assert [deployment.true_rtt(t) for t in targets[:40]] == [
                None if math.isnan(v) else v
                for v in deployment._true_rtts(targets.columns)[0].tolist()[:40]
            ]

    @given(st.integers(0, 50), st.integers(0, 10**6), st.sampled_from([0.0, 0.05, 0.5, 0.95]),
           st.integers(1, 500), st.integers(0, 200))
    @settings(**SETTINGS)
    def test_answered_is_not_lost(self, seed, target_id, loss, experiment_id, seq):
        prober = IcmpProber(seed=seed)
        target = PingTarget(target_id, 100000, "10.0.0.0/24", 2.0, loss)
        assert prober.answered(target, experiment_id, seq) == (
            prober.probe(target, 30.0, experiment_id, seq) is not None
        )


# -- (c) closed-form moments -----------------------------------------------------

N = 200_000


class TestMoments:
    def test_uniform_mean_variance_and_independence(self):
        u = uniforms(noise_key(SEED, "icmp", 1), 0, N)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.003            # sd of the mean 0.00065
        assert abs(u.var() - 1.0 / 12.0) < 0.001      # sd 0.00017
        assert abs(correlation(u[:-1], u[1:])) < 0.01  # lag 1; sd 0.0022
        for label in ("icmp", "igp-churn", "delay-jitter"):
            this, following = (uniforms(noise_key(SEED, label, e), 0, N) for e in (1, 2))
            assert abs(correlation(this, following)) < 0.01   # adjacent experiments
        rows = [uniforms(noise_key(SEED, "icmp", 1), 0, N, row) for row in (0, 1)]
        assert abs(correlation(*rows)) < 0.01                 # adjacent sequences

    def test_normals_and_exponentials(self):
        z = standard_normals(uniforms(noise_key(SEED, "rtt-drift", 1), 0, 2 * N).reshape(-1, 2))
        assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.02
        assert abs(numpy.abs(z).mean() - math.sqrt(2.0 / math.pi)) < 0.01
        e = exponentials(uniforms(noise_key(SEED, "delay-jitter", 1), 0, N))
        assert abs(e.mean() - 1.0) < 0.01 and abs(e.var() - 1.0) < 0.05

    def test_probe_delay_base_jitter_spike_rate_and_spike_mean(self):
        """A spike is the only way past 3 ms (the base alone gets there
        once in 10**6).  The base is half-normal(0.6), so P(delay > 3) =
        0.04 * exp(-3/25) * E[exp(base/25)] with E[exp(base/25)] =
        exp(s**2/2) * 2 * Phi(s), s = 0.6/25; an exponential has no
        memory, so the excess over 3 ms has the spike's own mean."""
        delays = IcmpProber(seed=SEED).delays(range(N // 5), [0.0] * (N // 5), 4, range(5))
        assert delays.shape == (N // 5, 5) and numpy.isfinite(delays).all()
        base_mean = IcmpProber.BASE_JITTER_MS * math.sqrt(2.0 / math.pi)
        quiet = delays[delays < 3.0]
        # Quiet probes are the 96 % without a spike, plus spikes under 3 ms.
        assert abs(numpy.median(quiet) - 0.6 * 0.6745) < 0.02   # half-normal median
        assert abs(delays.mean() - (base_mean + 0.04 * 25.0)) < 0.1   # sd 0.016
        s = IcmpProber.BASE_JITTER_MS / IcmpProber.SPIKE_MEAN_MS
        phi = 0.5 * (1.0 + math.erf(s / math.sqrt(2.0)))
        rate = IcmpProber.SPIKE_PROB * math.exp(-3.0 / 25.0) * math.exp(s * s / 2.0) * 2.0 * phi
        spiked = delays[delays > 3.0]
        assert abs(len(spiked) / delays.size - rate) < 0.002          # sd 0.0004
        assert abs((spiked - 3.0).mean() - IcmpProber.SPIKE_MEAN_MS) < 1.5   # sd 0.3

    @pytest.mark.parametrize("loss", [0.3, 0.5, 0.8])
    def test_too_few_replies_follows_the_binomial(self, loss):
        n = N // 7 + 1
        estimates = estimate_rtts(
            IcmpProber(seed=SEED), range(n), [loss] * n, 9, numpy.full(n, 50.0), 1.0
        )
        expected = sum(
            math.comb(7, k) * (1.0 - loss) ** k * loss ** (7 - k) for k in range(3)
        )
        assert abs(numpy.isnan(estimates).mean() - expected) < 0.012   # sd <= 0.003
        assert (estimates[~numpy.isnan(estimates)] >= 49.0).all()

    def test_drift_sigma_and_floor(self, testbed, targets):
        def factors(**noise):
            orchestrator = Orchestrator(
                testbed, targets, seed=SEED, settings=CampaignSettings.noiseless(**noise)
            )
            return orchestrator, orchestrator.rtt_drift_factors(5, range(N))

        _, drift = factors(rtt_drift_sigma=0.04)
        assert abs(drift.mean() - 1.0) < 0.001 and abs(drift.std() - 0.04) < 0.001
        _, wild = factors(rtt_drift_sigma=0.5)
        assert wild.min() == 0.7
        floor_share = 0.5 * (1.0 + math.erf((0.7 - 1.0) / 0.5 / math.sqrt(2.0)))
        assert abs((wild == 0.7).mean() - floor_share) < 0.006      # sd 0.001
        orchestrator, biased = factors(rtt_bias_sigma=0.03)
        assert biased.tolist() == [orchestrator.rtt_bias_factor(5)] * N
        bias = numpy.array([orchestrator.rtt_bias_factor(e) for e in range(1, 4001)])
        assert abs(bias.mean() - 1.0) < 0.003 and abs(bias.std() - 0.03) < 0.003

    def test_churn_rate_and_tie_share(self, testbed, targets):
        churn = 0.1
        orchestrator = Orchestrator(
            testbed, targets, seed=SEED,
            settings=CampaignSettings.noiseless(session_churn_prob=churn),
        )
        ases = len(testbed.internet.graph)
        experiments = N // ases + 1
        churned = tied = 0
        for experiment_id in range(1, experiments + 1):
            overlay = orchestrator._igp_overlay(experiment_id)
            hit = {asn for asn, _ in overlay}
            churned += len(hit)
            tied += len({asn for (asn, _), cost in overlay.items() if cost == 0})
        assert abs(churned / (ases * experiments) - churn) < 0.005    # sd 0.0007
        tie_fraction = testbed.internet.params.igp_tie_fraction
        assert abs(tied / churned - tie_fraction) < 0.015             # sd 0.003

    def test_link_jitter_mean(self, testbed):
        engine = Orchestrator(testbed, TargetSet([]), seed=SEED).engine
        values = []
        nonce = 0
        while len(values) < N:
            nonce += 1
            values.extend(dict(engine._draw_jitter(20.0, nonce)).values())
        values = numpy.array(values)
        assert abs(values.mean() - 20.0) < 0.3 and abs(values.std() - 20.0) < 0.6


# -- (d) the probe model, the slow way ---------------------------------------------


def reference_delay(seed, experiment_id, target_id, sequence, loss_rate):
    """One probe from the definition: five words of the experiment's
    ``"icmp"`` stream at row ``sequence`` from word ``5 * target_id`` —
    loss decision, Box–Muller pair, spike decision, spike size."""
    key = noise_key(seed, "icmp", experiment_id)
    loss, u1, u2, spike, size = (
        reference_uniform(key, 5 * target_id + k, sequence) for k in range(5)
    )
    if loss < loss_rate:
        return math.inf
    delay = 0.6 * abs(math.sqrt(2.0 * -math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2))
    if spike < 0.04:
        delay += 25.0 * -math.log(1.0 - size)
    return delay


def reference_estimate(delays, base, tunnel_estimate, min_valid=3):
    valid = sorted(d for d in delays if d != math.inf)
    if len(valid) < min_valid:
        return None
    middle = len(valid) // 2
    median = valid[middle] if len(valid) % 2 else (valid[middle - 1] + valid[middle]) / 2
    return max(0.0, base + median - tunnel_estimate)


def train_follows_the_definition(seed, experiment_id, ids, losses) -> bool:
    prober = IcmpProber(seed=seed)
    expected = [
        [reference_delay(seed, experiment_id, i, seq, loss) for seq in range(7)]
        for i, loss in zip(ids, losses)
    ]
    estimates = estimate_rtts(prober, ids, losses, experiment_id, numpy.full(len(ids), 40.0), 3.5)
    return prober.delays(ids, losses, experiment_id, range(7)).tolist() == expected and [
        None if math.isnan(e) else e for e in estimates.tolist()
    ] == [reference_estimate(row, 40.0, 3.5) for row in expected]


class TestProbeModelTheSlowWay:
    @given(st.integers(0, 50), st.integers(1, 500),
           st.lists(st.integers(0, 3000), min_size=1, max_size=25),
           st.sampled_from([0.0, 0.2, 0.6]))
    @settings(**SETTINGS)
    def test_train_and_estimate(self, seed, experiment_id, ids, loss):
        assert train_follows_the_definition(seed, experiment_id, ids, [loss] * len(ids))

    def test_a_spiking_lossy_block(self):
        """2 000 probes: ~80 spikes, ~400 losses, every median size."""
        ids = list(range(100, 386))
        assert train_follows_the_definition(SEED, 11, ids, [0.2] * len(ids))


# -- (e) mutations ---------------------------------------------------------------


def train_digest() -> str:
    """SHA-256 over 28 000 probe delays and their 4 000 RTT estimates
    above a zero base — nothing for a last-bit difference to hide in."""
    prober, ids, losses = IcmpProber(seed=SEED), range(100, 4100), [0.2] * 4000
    delays = prober.delays(ids, losses, 11, range(7))
    estimates = estimate_rtts(prober, ids, losses, 11, numpy.zeros(4000), 0.0)
    return hashlib.sha256(delays.tobytes() + estimates.tobytes()).hexdigest()


class TestMutations:
    def test_numpy_log_for_math_log(self, monkeypatch):
        """``numpy.log`` is SIMD code that differs from libm's in the
        last bit on some CPUs; where it does, results computed with it
        differ, so it must not reach a result.  (A model digest is a
        blunt detector: a median of ~0.5 ms added to a ~100 ms path
        absorbs most last-bit differences — on the paper world the
        mutation moved 3 of 16 800 RTT cells at one campaign seed of
        three — so the check is made on the train itself.)"""
        u = uniforms(noise_key(SEED, "icmp", 1), 0, N)
        differing = int((numpy.log(1.0 - u) != numpy.array(
            [math.log(1.0 - x) for x in u.tolist()]
        )).sum())
        if not differing:
            pytest.skip("numpy.log agrees with math.log on this CPU")
        digest = train_digest()
        assert train_digest() == digest
        monkeypatch.setattr(rng, "exponentials", lambda u, exact=True: -numpy.log(1.0 - u))
        assert not train_follows_the_definition(SEED, 11, list(range(100, 4100)), [0.2] * 4000)
        assert train_digest() != digest

    def test_addressing_by_call_order(self, monkeypatch, hashed_world, deployments):
        """Words handed out in the order targets are asked about —
        what a sequential generator does — make a target's noise depend
        on who else was probed."""
        def by_position(self, target_ids, experiment_id, sequence):
            key = noise_key(self.seed, "icmp", experiment_id)
            return uniform_rows(key, range(len(target_ids)), self.WORDS, row=sequence)

        _, targets = hashed_world
        deployment, rtts, cmap = deployments[0]
        assert views_agree(deployment, rtts, cmap, targets, [3, 40, 7])
        monkeypatch.setattr(IcmpProber, "_words", by_position)
        assert not views_agree(deployment, rtts, cmap, targets, [3, 40, 7])
        assert not train_follows_the_definition(SEED, 11, [5, 2, 9], [0.2] * 3)
