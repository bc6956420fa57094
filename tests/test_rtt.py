"""Tests for RTT estimation and the RTT matrix."""

import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement import rtt
from repro.measurement.icmp import IcmpProber
from repro.measurement.rtt import RttMatrix, estimate_rtts
from repro.measurement.targets import PingTarget
from repro.measurement.tunnels import TunnelManager
from repro.util.errors import MeasurementError
from repro.util.rng import noise_key, uniforms


def target(loss=0.0, tid=1):
    return PingTarget(tid, 100000, "10.0.0.0/24", 2.0, loss)


def estimate_rtt(prober, tunnels, target, site_id, true_path_rtt_ms, experiment_id, **limits):
    """``estimate_rtts`` for one target measured through ``site_id``'s
    tunnel; None when it has no sample."""
    tunnel = tunnels.tunnel(site_id)
    estimate = estimate_rtts(
        prober, [target.target_id], [target.loss_rate], experiment_id,
        numpy.array([true_path_rtt_ms + tunnel.true_rtt_ms]), tunnel.estimated_rtt_ms,
        **limits,
    ).item()
    return None if math.isnan(estimate) else estimate


class TestEstimateRtt:
    def test_close_to_truth(self, testbed):
        prober = IcmpProber(seed=1)
        tunnels = TunnelManager(testbed, seed=1)
        estimate = estimate_rtt(prober, tunnels, target(), 1, 80.0, experiment_id=1)
        assert estimate == pytest.approx(80.0, abs=5.0)

    def test_median_filters_spikes(self, testbed):
        """Across many experiments the estimate stays near truth even
        though individual probes spike."""
        prober = IcmpProber(seed=2)
        tunnels = TunnelManager(testbed, seed=2)
        errors = [
            abs(estimate_rtt(prober, tunnels, target(), 1, 60.0, experiment_id=e) - 60.0)
            for e in range(40)
        ]
        assert sorted(errors)[len(errors) // 2] < 3.0

    def test_total_loss_returns_none(self, testbed):
        prober = IcmpProber(seed=3)
        tunnels = TunnelManager(testbed, seed=3)
        heavy = PingTarget(1, 100000, "10.0.0.0/24", 2.0, 0.999)
        assert estimate_rtt(prober, tunnels, heavy, 1, 60.0, experiment_id=1) is None

    def test_min_valid_enforced(self, testbed):
        prober = IcmpProber(seed=4)
        tunnels = TunnelManager(testbed, seed=4)
        estimate = estimate_rtt(
            prober, tunnels, target(), 1, 60.0, experiment_id=1,
            probes=3, min_valid=4,
        )
        assert estimate is None

    @pytest.mark.parametrize("min_valid", [0, 3])
    def test_an_empty_train_is_no_sample(self, testbed, min_valid):
        prober = IcmpProber(seed=4)
        tunnels = TunnelManager(testbed, seed=4)
        assert prober.delays([1, 2], [0.0, 0.5], 1, []).shape == (2, 0)
        estimate = estimate_rtt(
            prober, tunnels, target(), 1, 60.0, experiment_id=1,
            probes=0, min_valid=min_valid,
        )
        assert estimate is None

    def test_never_negative(self, testbed):
        prober = IcmpProber(seed=5)
        tunnels = TunnelManager(testbed, seed=5)
        estimate = estimate_rtt(prober, tunnels, target(), 1, 0.1, experiment_id=1)
        assert estimate is None or estimate >= 0.0


class TestRttMatrix:
    def make(self):
        m = RttMatrix()
        m.set(1, 10, 50.0)
        m.set(1, 11, 70.0)
        m.set(2, 10, 40.0)
        m.set(2, 11, None)
        return m

    def test_rtt_lookup(self):
        m = self.make()
        assert m.rtt(1, 10) == 50.0
        assert m.rtt(2, 11) is None

    def test_missing_raises(self):
        with pytest.raises(MeasurementError):
            self.make().rtt(9, 9)

    def test_has(self):
        m = self.make()
        assert m.has(1, 10)
        assert not m.has(2, 11)
        assert not m.has(9, 9)

    def test_sites(self):
        assert self.make().sites() == [1, 2]

    def test_mean_unicast(self):
        m = self.make()
        assert m.mean_unicast_rtt(1) == 60.0
        assert m.mean_unicast_rtt(2) == 40.0

    def test_mean_unicast_no_samples_raises(self):
        m = RttMatrix()
        m.set(3, 1, None)
        with pytest.raises(MeasurementError):
            m.mean_unicast_rtt(3)

    def test_set_row_writes_what_set_writes(self):
        by_cell, by_row = self.make(), RttMatrix()
        by_row.set_row(1, [10, 11], [50.0, 70.0])
        by_row.set_row(2, [10, 11], [40.0, None])
        assert by_row == by_cell

    def test_set_row_drops_the_array_memo(self):
        m = self.make()
        assert m.array([1], [10]).tolist() == [[50.0]]
        m.set_row(1, [10], [51.0])
        assert m.array([1], [10]).tolist() == [[51.0]]


# -- the estimate against its all-libm body ------------------------------------


def reference_estimate_rtts(
    prober, target_ids, loss_rates, experiment_id, base_rtt_ms, tunnel_estimate_ms,
    probes=rtt.PROBES_PER_TARGET, min_valid=rtt.MIN_VALID_REPLIES,
):
    """``estimate_rtts`` as it was: every probe's delay through libm
    (``IcmpProber.delays``), one sort, the median of the valid ones."""
    if probes < max(min_valid, 1):
        return numpy.full(len(target_ids), numpy.nan)
    ordered = numpy.sort(prober.delays(target_ids, loss_rates, experiment_id, range(probes)), axis=1)
    valid = numpy.isfinite(ordered).sum(axis=1)
    rows = numpy.arange(len(ordered))
    last = numpy.maximum(valid, 1) - 1
    median = (ordered[rows, last // 2] + ordered[rows, (last + 1) // 2]) / 2.0
    median[valid < max(min_valid, 1)] = numpy.nan
    return numpy.maximum(0.0, base_rtt_ms + median - tunnel_estimate_ms)


class GivenWords(IcmpProber):
    """A prober whose probe words are ``words[target position,
    sequence]``, whatever the ids."""

    def __init__(self, words):
        super().__init__(seed=0)
        self.given = words

    def _words(self, target_ids, experiment_id, sequence):
        return self.given[:, sequence]


#: A block of real probe uniforms, and those of them whose
#: ``numpy.log(1 - u)`` differs from libm's (none on some CPUs).
BLOCK = uniforms(noise_key(3, "icmp", 1), 0, 20_000)
DIFFERING = BLOCK[
    numpy.log(1.0 - BLOCK) != numpy.array([math.log(1.0 - u) for u in BLOCK.tolist()])
][:12].tolist()


def _uniform_pool():
    """Uniforms whose ``numpy.log(1 - u)`` differs from libm's (where
    any does on this CPU), ordinary ones, and each one's neighbours a
    few units in the last place and about one margin away — delays that
    tie, nearly tie, and straddle the exact band's edge."""
    pool = set()
    for u in DIFFERING[:6] + BLOCK[:6].tolist():
        pool.add(u)
        pool.add(math.nextafter(u, 1.0))
        for k in (0.5, 1.0, 2.0):
            pool.add(u * (1.0 + k * rtt._MARGIN))
    return sorted(pool)


UNIFORM_POOL = _uniform_pool()


def answered_words(u1, u2):
    """Words of answered probes without a spike whose Box–Muller pair
    is ``(u1, u2)``, broadcast."""
    u1, u2 = numpy.broadcast_arrays(numpy.asarray(u1, float), numpy.asarray(u2, float))
    words = numpy.full(u1.shape + (5,), 0.5)
    words[..., 1], words[..., 2] = u1, u2
    return words


def inverted_pair():
    """Words ``(a, b)`` of two probes whose estimated delays order
    ``a < b`` and whose exact ones order ``b < a``, or None where none
    is found: ``b`` of a differing uniform whose estimate is high,
    ``a``'s cosine word stepped ulp by ulp around where the two delays
    meet."""
    prober = IcmpProber()
    for ub in DIFFERING:
        b = answered_words([ub], [0.125])
        b_estimate, b_exact = prober.queueing(b, exact=False)[0], prober.queueing(b)[0]
        if b_estimate <= b_exact:
            continue
        for ua in DIFFERING:
            cos = math.sqrt(math.log(1.0 - ub) / math.log(1.0 - ua)) * math.cos(math.pi / 4)
            if cos >= 1.0:
                continue
            meet = math.acos(cos) / (2 * math.pi)
            a = answered_words(ua, meet + numpy.spacing(meet) * numpy.arange(-3000, 3001))
            a_estimate, a_exact = prober.queueing(a, exact=False), prober.queueing(a)
            hit = numpy.flatnonzero((a_estimate < b_estimate) & (b_exact < a_exact))
            if len(hit):
                return a[hit[0]], b[0]
    return None


@st.composite
def trains(draw):
    """``(words, loss_rates, probes, min_valid)``: a few targets' trains
    of 0–8 probes, the jitter words drawn from :data:`UNIFORM_POOL`
    (duplicates are exact ties), each target losing none, some or all
    of its probes, spikes on or off."""
    targets = draw(st.integers(1, 6))
    probes = draw(st.sampled_from([0, 1, 2, 3, 7, 8]))
    words = numpy.empty((targets, probes, 5))
    for t in range(targets):
        for s in range(probes):
            words[t, s] = [
                draw(st.sampled_from([0.1, 0.9])),           # loss decision
                draw(st.sampled_from(UNIFORM_POOL)),         # Box-Muller pair
                draw(st.sampled_from(UNIFORM_POOL)),
                draw(st.sampled_from([0.01, 0.5])),          # spike or not
                draw(st.sampled_from(UNIFORM_POOL)),         # spike size
            ]
    losses = numpy.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 0.95]), min_size=targets, max_size=targets
    )))
    return words, losses, probes, draw(st.integers(0, probes + 1))


class TestEstimateIsTheAllLibmBody:
    """Estimated delays, exact only near the median's order statistics:
    byte-equal to every delay through libm."""

    @given(trains())
    @settings(max_examples=200, deadline=None)
    def test_given_words(self, train):
        words, losses, probes, min_valid = train
        prober = GivenWords(words)
        ids = list(range(len(words)))
        base = numpy.array([40.0, 0.0, numpy.nan, 0.0, 12.5, 0.0][: len(ids)])
        for tunnel in (0.0, 3.5):
            got = estimate_rtts(prober, ids, losses, 1, base, tunnel, probes, min_valid)
            expected = reference_estimate_rtts(prober, ids, losses, 1, base, tunnel, probes, min_valid)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("loss", [0.0, 0.2, 0.6])
    def test_twenty_thousand_targets(self, loss):
        """On a zero base, so that a last-bit difference in a median is
        a difference in the result; on a CPU whose ``numpy.log`` differs
        from libm's, medians of estimates alone differ here."""
        ids, losses = numpy.arange(100, 20_100), numpy.full(20_000, loss)
        for seed in (7, 11):
            prober = IcmpProber(seed=seed)
            got = estimate_rtts(prober, ids, losses, 11, numpy.zeros(len(ids)), 0.0)
            expected = reference_estimate_rtts(prober, ids, losses, 11, numpy.zeros(len(ids)), 0.0)
            assert got.tobytes() == expected.tobytes()

    def test_a_probe_the_estimates_put_above_the_median(self):
        """A small probe, then ``a`` and ``b`` whose estimates order
        ``a < b`` and exact delays ``b < a``: the estimated median is
        ``a``, the true one is ``b``, whose estimate lies outside
        ``[a, a]`` — only the band's margin makes it exact."""
        pair = inverted_pair()
        if pair is None:
            pytest.skip("no estimate inverts an exact order on this CPU")
        prober = GivenWords(numpy.stack([answered_words(1e-6, 0.0), *pair])[None])
        args = prober, [0], numpy.zeros(1), 1, numpy.zeros(1), 0.0, 3
        got = estimate_rtts(*args)
        assert got.tobytes() == reference_estimate_rtts(*args).tobytes()
        assert got[0] == prober.queueing(pair[1][None])[0]

    def test_valid_replies_at_the_minimum(self):
        """Targets with exactly ``min_valid`` replies keep a sample, one
        fewer do not — the same ones either way."""
        ids, losses = numpy.arange(3000), numpy.full(3000, 0.5)
        prober = IcmpProber(seed=5)
        replies = numpy.isfinite(prober.delays(ids, losses, 2, range(7))).sum(axis=1)
        assert {2, 3} <= set(replies.tolist())
        got = estimate_rtts(prober, ids, losses, 2, numpy.zeros(3000), 0.0)
        assert got.tobytes() == reference_estimate_rtts(
            prober, ids, losses, 2, numpy.zeros(3000), 0.0
        ).tobytes()
        assert numpy.isnan(got[replies == 2]).all() and not numpy.isnan(got[replies == 3]).any()
