"""Tests for RTT estimation and the RTT matrix."""

import math

import numpy
import pytest

from repro.measurement.icmp import IcmpProber
from repro.measurement.rtt import RttMatrix, estimate_rtts
from repro.measurement.targets import PingTarget
from repro.measurement.tunnels import TunnelManager
from repro.util.errors import MeasurementError


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
