"""Tests for probe-level loss and jitter simulation."""

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.util.stats import median


def target(loss=0.0, tid=1):
    return PingTarget(tid, 100000, "10.0.0.0/24", 2.0, loss)


class TestProbe:
    def test_lossless_target_always_replies(self):
        prober = IcmpProber(seed=1)
        for seq in range(50):
            assert prober.probe(target(), 30.0, experiment_id=1, sequence=seq) is not None

    def test_rtt_at_least_true_value(self):
        prober = IcmpProber(seed=1)
        for seq in range(50):
            assert prober.probe(target(), 30.0, experiment_id=1, sequence=seq) >= 30.0

    def test_jitter_usually_small(self):
        prober = IcmpProber(seed=1)
        samples = [
            prober.probe(target(), 30.0, 1, seq) for seq in range(200)
        ]
        assert median(samples) < 32.0

    def test_occasional_spikes_exist(self):
        prober = IcmpProber(seed=1)
        samples = [
            prober.probe(target(), 30.0, 1, seq) for seq in range(500)
        ]
        assert max(samples) > 35.0

    def test_lossy_target_loses_roughly_expected_fraction(self):
        prober = IcmpProber(seed=1)
        n = 1000
        lost = sum(
            prober.probe(target(loss=0.3), 30.0, 1, seq) is None for seq in range(n)
        )
        assert 0.2 < lost / n < 0.4

    def test_deterministic_per_key(self):
        a = IcmpProber(seed=5).probe(target(), 30.0, 2, 3)
        b = IcmpProber(seed=5).probe(target(), 30.0, 2, 3)
        assert a == b

    def test_different_experiments_independent(self):
        prober = IcmpProber(seed=5)
        a = prober.probe(target(), 30.0, 1, 0)
        b = prober.probe(target(), 30.0, 2, 0)
        assert a != b


class TestProbeTrain:
    def test_seven_probes_default(self):
        from repro.measurement.rtt import PROBES_PER_TARGET

        train = IcmpProber(seed=1).delays([1], [0.0], 1, range(PROBES_PER_TARGET))
        assert train.shape == (1, 7)

    def test_sequences_distinct(self):
        train = IcmpProber(seed=1).delays([1], [0.0], 1, range(7))
        assert len(set(train[0].tolist())) == 7
