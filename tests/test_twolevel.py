"""Tests for two-level preference discovery."""

import pytest

from repro.core.experiments import ExperimentRunner
from repro.core.twolevel import (
    FlatPreferenceModel,
    SiteLevelMode,
    TwoLevelModel,
    discover_two_level,
)
from repro.measurement.rtt import RttMatrix
from repro.util.errors import ConfigurationError, ReproError
from tests.reference_order import site_ranking_within


@pytest.fixture(scope="module")
def clean_model(testbed, targets):
    from repro.measurement.orchestrator import Orchestrator
    from repro.runtime import CampaignSettings

    orch = Orchestrator(
        testbed, targets, seed=7, settings=CampaignSettings.noiseless()
    )
    runner = ExperimentRunner(orch)
    rtt_matrix = orch.measure_rtt_matrix()
    return discover_two_level(runner, rtt_matrix=rtt_matrix)


class TestDiscovery:
    def test_provider_matrix_covers_all_pairs(self, clean_model, testbed):
        assert len(clean_model.provider_matrix.pairs()) == 15  # C(6,2)

    def test_site_matrices_for_multi_site_providers(self, clean_model, testbed):
        for provider in testbed.provider_asns():
            sites = testbed.sites_of_provider(provider)
            matrix = clean_model.site_matrices[provider]
            expected_pairs = len(sites) * (len(sites) - 1) // 2
            assert len(matrix.pairs()) == expected_pairs

    def test_rtt_heuristic_requires_matrix(self, clean_runner):
        with pytest.raises(ReproError):
            discover_two_level(
                clean_runner, rtt_matrix=None,
                site_level_mode=SiteLevelMode.RTT_HEURISTIC,
            )


class TestTotalOrder:
    def test_most_clients_have_total_order(self, clean_model, testbed, targets):
        order = tuple(testbed.site_ids())
        have = sum(
            1
            for t in targets
            if clean_model.total_order(t.target_id, order).has_total_order
        )
        assert have / len(targets) > 0.8

    def test_order_contains_exactly_requested_sites(self, clean_model, targets):
        request = (1, 6, 4, 12)
        for t in list(targets)[:50]:
            result = clean_model.total_order(t.target_id, request)
            if result.has_total_order:
                assert sorted(result.order) == sorted(request)

    def test_sites_grouped_by_provider_rank(self, clean_model, testbed, targets):
        """In the composed order, all sites of a more-preferred
        provider precede all sites of a less-preferred one."""
        order = tuple(testbed.site_ids())
        checked = 0
        for t in targets:
            result = clean_model.total_order(t.target_id, order)
            if not result.has_total_order:
                continue
            providers_seen = []
            for site in result.order:
                p = testbed.provider_of(site)
                if p not in providers_seen:
                    providers_seen.append(p)
            # Group contiguity: sites of one provider are consecutive.
            blocks = [testbed.provider_of(s) for s in result.order]
            for p in providers_seen:
                idxs = [i for i, b in enumerate(blocks) if b == p]
                assert idxs == list(range(idxs[0], idxs[-1] + 1))
            checked += 1
            if checked >= 30:
                break
        assert checked > 0

    def test_single_provider_order(self, clean_model, testbed, targets):
        ntt_sites = tuple(testbed.sites_of_provider(testbed.provider_asns()[1]))
        result = clean_model.total_order(targets[0].target_id, ntt_sites)
        if result.has_total_order:
            assert sorted(result.order) == sorted(ntt_sites)

    def test_empty_order_rejected(self, clean_model):
        with pytest.raises(ConfigurationError):
            clean_model.total_order(0, ())


class TestRttHeuristic:
    def test_ranking_follows_rtts(self, clean_model, testbed, targets):
        model = TwoLevelModel(
            testbed=testbed,
            provider_matrix=clean_model.provider_matrix,
            site_matrices={},
            rtt_matrix=clean_model.rtt_matrix,
            site_level_mode=SiteLevelMode.RTT_HEURISTIC,
        )
        ntt = testbed.internet.tier1_by_name("NTT")
        sites = testbed.sites_of_provider(ntt)
        for t in list(targets)[:30]:
            ranking = site_ranking_within(model, t.target_id, ntt, sites)
            if ranking is None:
                continue
            rtts = [model.rtt_matrix.rtt(s, t.target_id) for s in ranking]
            assert rtts == sorted(rtts)

    def test_missing_rtt_returns_none(self, clean_model, testbed):
        model = TwoLevelModel(
            testbed=testbed,
            provider_matrix=clean_model.provider_matrix,
            site_matrices={},
            rtt_matrix=RttMatrix(),
            site_level_mode=SiteLevelMode.RTT_HEURISTIC,
        )
        ntt = testbed.internet.tier1_by_name("NTT")
        sites = testbed.sites_of_provider(ntt)
        assert site_ranking_within(model, 0, ntt, sites) is None

    def test_rtt_heuristic_close_to_pairwise_ground_truth(
        self, clean_model, testbed, targets
    ):
        """S4.3: a client's intra-provider RTT ranking usually matches
        its measured site-level preference."""
        ntt = testbed.internet.tier1_by_name("NTT")
        sites = testbed.sites_of_provider(ntt)
        rtt_model = TwoLevelModel(
            testbed=testbed,
            provider_matrix=clean_model.provider_matrix,
            site_matrices={},
            rtt_matrix=clean_model.rtt_matrix,
            site_level_mode=SiteLevelMode.RTT_HEURISTIC,
        )
        agree = 0
        comparable = 0
        for t in targets:
            measured = site_ranking_within(clean_model, t.target_id, ntt, sites)
            heuristic = site_ranking_within(rtt_model, t.target_id, ntt, sites)
            if measured is None or heuristic is None:
                continue
            comparable += 1
            if measured[0] == heuristic[0]:
                agree += 1
        assert comparable > 0
        assert agree / comparable > 0.6


class TestFlatModel:
    def test_flat_model_orders(self, clean_runner, targets):
        matrix = clean_runner.pairwise_sweep([1, 4, 6])
        model = FlatPreferenceModel(matrix)
        result = model.total_order(targets[0].target_id, (1, 4, 6))
        if result.has_total_order:
            assert sorted(result.order) == [1, 4, 6]
