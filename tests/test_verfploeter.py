"""Tests for Verfploeter-style catchment mapping."""

import pickle

import numpy
import pytest

from repro.core.config import AnycastConfig
from repro.measurement.verfploeter import CatchmentMap
from repro.util.errors import MeasurementError


@pytest.fixture()
def deployment(clean_orchestrator):
    return clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))


class TestCatchmentMap:
    def test_mapping_contains_all_targets(self, deployment, targets):
        cmap = deployment.measure_catchments()
        assert set(cmap.mapping) == {t.target_id for t in targets}

    def test_sites_are_enabled_ones(self, deployment):
        cmap = deployment.measure_catchments()
        assert {s for s in cmap.mapping.values() if s is not None} <= {1, 6}

    def test_unprobed_target_raises(self, deployment):
        cmap = deployment.measure_catchments()
        with pytest.raises(MeasurementError):
            cmap.site_of(10**9)

    def test_targets_of_site_partition(self, deployment):
        cmap = deployment.measure_catchments()
        t1 = cmap.targets_of_site(1)
        t6 = cmap.targets_of_site(6)
        assert not (t1 & t6)
        assert len(t1) + len(t6) == cmap.mapped_count()

    def test_catchment_sizes(self, deployment):
        cmap = deployment.measure_catchments()
        sizes = cmap.catchment_sizes()
        assert sum(sizes.values()) == cmap.mapped_count()
        assert set(sizes) <= {1, 6}

    def test_lossless_targets_always_mapped(self, deployment, targets):
        cmap = deployment.measure_catchments()
        for t in targets:
            if t.loss_rate == 0.0:
                assert cmap.site_of(t.target_id) is not None

    def test_catchment_matches_forwarding(self, deployment, targets):
        """The measured catchment (when mapped) is the data plane's
        ground truth — Verfploeter observes, never distorts."""
        cmap = deployment.measure_catchments()
        for t in targets:
            site = cmap.site_of(t.target_id)
            if site is not None:
                assert site == deployment.forwarding(t).site_id

    def test_empty_map_helpers(self):
        cmap = CatchmentMap(experiment_id=0)
        assert cmap.mapped_count() == 0
        assert cmap.catchment_sizes() == {}
        assert cmap.targets_of_site(1) == set()

    def test_views_read_the_site_column(self):
        """Sparse ids in probing order, ``-1`` unmapped: every view
        answers what the dict it replaced answered."""
        cmap = CatchmentMap(3, (90, 4, 71, 12, 5), numpy.array([6, -1, 1, 6, -1]))
        expected = {90: 6, 4: None, 71: 1, 12: 6, 5: None}
        assert cmap.mapping == expected and list(cmap.mapping) == list(expected)
        assert len(cmap.mapping) == 5 and cmap.mapping.get(7) is None
        assert [cmap.site_of(t) for t in expected] == list(expected.values())
        assert list(cmap.catchment_sizes().items()) == [(6, 2), (1, 1)]   # first seen first
        assert cmap.targets_of_site(6) == {90, 12} and cmap.mapped_count() == 3
        assert pickle.loads(pickle.dumps(cmap)) == cmap
        assert cmap != CatchmentMap(3, cmap.ids, numpy.array([6, -1, 1, 1, -1]))
        with pytest.raises(MeasurementError):
            cmap.site_of(7)
