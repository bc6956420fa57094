"""Tests for AnycastConfig."""

import pytest

from repro.core.config import AnycastConfig
from repro.util.errors import ConfigurationError


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            AnycastConfig(site_order=())

    def test_peers_only_allowed(self):
        cfg = AnycastConfig(site_order=(), peer_ids=(3,))
        assert cfg.peer_ids == (3,)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            AnycastConfig(site_order=(1, 2, 1))

    def test_duplicate_peers_rejected(self):
        with pytest.raises(ConfigurationError):
            AnycastConfig(site_order=(1,), peer_ids=(3, 3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_unusable_spacing_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="spacing_ms"):
            AnycastConfig(site_order=(1, 2), spacing_ms=bad)
        for fine in (None, 0.0, 360_000.0):
            assert AnycastConfig(site_order=(1, 2), spacing_ms=fine).spacing_ms == fine


class TestAccessors:
    def test_sites_sorted(self):
        cfg = AnycastConfig(site_order=(9, 2, 5))
        assert cfg.sites == (2, 5, 9)

    def test_with_peers_preserves_order(self):
        cfg = AnycastConfig(site_order=(9, 2))
        cfg2 = cfg.with_peers([1, 2])
        assert cfg2.site_order == (9, 2)
        assert cfg2.peer_ids == (1, 2)
        assert cfg.peer_ids == ()

    def test_announce_order_of(self):
        cfg = AnycastConfig(site_order=(9, 2, 5))
        assert cfg.announce_order_of(2, 9) == (9, 2)
        assert cfg.announce_order_of(2, 5) == (2, 5)

    def test_announce_order_of_missing_site(self):
        cfg = AnycastConfig(site_order=(9, 2))
        with pytest.raises(ConfigurationError):
            cfg.announce_order_of(9, 5)

    def test_hashable(self):
        assert len({AnycastConfig((1, 2)), AnycastConfig((1, 2))}) == 1
        assert AnycastConfig((1, 2)) != AnycastConfig((2, 1))
