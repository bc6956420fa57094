"""Tests for ping-target selection."""

import pytest

from repro.measurement.targets import PingTarget, TargetSet, select_targets
from repro.util.errors import MeasurementError


class TestPingTarget:
    def test_valid(self):
        t = PingTarget(1, 100000, "10.0.0.0/24", 2.0, 0.1)
        assert t.loss_rate == 0.1

    def test_loss_rate_bounds(self):
        with pytest.raises(MeasurementError):
            PingTarget(1, 100000, "10.0.0.0/24", 2.0, 1.0)
        with pytest.raises(MeasurementError):
            PingTarget(1, 100000, "10.0.0.0/24", 2.0, -0.1)

    def test_negative_last_mile(self):
        with pytest.raises(MeasurementError):
            PingTarget(1, 100000, "10.0.0.0/24", -1.0, 0.0)

    def test_negative_id(self):
        """An id addresses the target's noise words, which start at 0:
        a negative one fails here, typed, not deep in a draw."""
        with pytest.raises(MeasurementError, match="negative target id"):
            PingTarget(-5, 100000, "10.0.0.0/24", 2.0, 0.0)
        assert PingTarget(0, 100000, "10.0.0.0/24", 2.0, 0.0).target_id == 0


class TestTargetSet:
    def test_duplicate_ids_rejected(self):
        t = PingTarget(1, 100000, "10.0.0.0/24", 2.0, 0.0)
        with pytest.raises(MeasurementError):
            TargetSet([t, t])

    def test_iteration_and_len(self, targets):
        assert len(list(targets)) == len(targets)

    def test_indexing(self, targets):
        assert targets[0].target_id == 0

    def test_in_as(self, targets):
        asn = targets[0].asn
        group = targets.in_as(asn)
        assert all(t.asn == asn for t in group)
        assert targets[0] in group

    def test_in_as_unknown_empty(self, targets):
        assert targets.in_as(424242) == []

    def test_by_id(self, targets):
        assert targets.by_id(3).target_id == 3
        with pytest.raises(MeasurementError):
            targets.by_id(10**9)


class TestSelectTargets:
    def test_covers_every_client_hosting_as(self, testbed, targets):
        graph = testbed.internet.graph
        hosting = [
            a for a in graph.client_asns() if graph.as_of(a).hosts_clients
        ]
        assert targets.asns() == hosting

    def test_content_stubs_have_no_targets(self, testbed, targets):
        graph = testbed.internet.graph
        content = [
            a for a in graph.client_asns() if not graph.as_of(a).hosts_clients
        ]
        assert content, "the generator should produce content stubs"
        for asn in content:
            assert targets.in_as(asn) == []

    def test_density_bounds_respected(self, testbed):
        ts = select_targets(testbed.internet, 2, 3, seed=5)
        for asn in ts.asns():
            assert 2 <= len(ts.in_as(asn)) <= 3

    def test_some_targets_lossy(self, testbed):
        ts = select_targets(testbed.internet, 2, 3, lossy_fraction=0.3, seed=5)
        lossy = [t for t in ts if t.loss_rate > 0]
        assert lossy
        assert all(t.loss_rate < 1.0 for t in ts)

    def test_deterministic(self, testbed):
        a = select_targets(testbed.internet, 1, 2, seed=5)
        b = select_targets(testbed.internet, 1, 2, seed=5)
        assert [(t.target_id, t.asn, t.loss_rate) for t in a] == [
            (t.target_id, t.asn, t.loss_rate) for t in b
        ]

    def test_invalid_bounds(self, testbed):
        with pytest.raises(MeasurementError):
            select_targets(testbed.internet, 0, 2)
        with pytest.raises(MeasurementError):
            select_targets(testbed.internet, 3, 2)

    def test_prefixes_unique_within_as(self, targets):
        for asn in targets.asns()[:20]:
            prefixes = [t.prefix for t in targets.in_as(asn)]
            assert len(prefixes) == len(set(prefixes))
