"""Tests for baseline strategies and the inference predictor."""

import pytest

from repro.baselines import (
    TopologyInferencePredictor,
    all_sites_config,
    greedy_unicast_config,
    random_config,
    random_small_config,
)
from repro.bgp.dataplane import DataPlane
from repro.core.config import AnycastConfig
from repro.util.errors import ConfigurationError


class TestGreedyUnicast:
    def test_picks_lowest_mean_sites(self, anyopt_model):
        cfg = greedy_unicast_config(anyopt_model.rtt_matrix, 3)
        means = {
            s: anyopt_model.rtt_matrix.mean_unicast_rtt(s)
            for s in anyopt_model.rtt_matrix.sites()
        }
        best3 = sorted(means, key=lambda s: (means[s], s))[:3]
        assert sorted(cfg.site_order) == sorted(best3)

    def test_announce_order_ascending_mean(self, anyopt_model):
        cfg = greedy_unicast_config(anyopt_model.rtt_matrix, 4)
        means = [
            anyopt_model.rtt_matrix.mean_unicast_rtt(s) for s in cfg.site_order
        ]
        assert means == sorted(means)

    def test_k_bounds(self, anyopt_model):
        with pytest.raises(ConfigurationError):
            greedy_unicast_config(anyopt_model.rtt_matrix, 0)
        with pytest.raises(ConfigurationError):
            greedy_unicast_config(anyopt_model.rtt_matrix, 99)


class TestRandomConfigs:
    def test_random_config_size(self, testbed):
        cfg = random_config(testbed, 5, seed=1)
        assert len(cfg.site_order) == 5
        assert set(cfg.site_order) <= set(testbed.site_ids())

    def test_random_config_deterministic(self, testbed):
        assert random_config(testbed, 5, seed=1) == random_config(testbed, 5, seed=1)

    def test_random_config_seed_sensitivity(self, testbed):
        assert random_config(testbed, 5, seed=1) != random_config(testbed, 5, seed=2)

    def test_random_config_bounds(self, testbed):
        with pytest.raises(ConfigurationError):
            random_config(testbed, 0)
        with pytest.raises(ConfigurationError):
            random_config(testbed, 16)

    def test_small_config_structure(self, testbed):
        cfg = random_small_config(testbed, n_providers=2, sites_per_provider=2, seed=3)
        assert len(cfg.site_order) == 4
        providers = {testbed.provider_of(s) for s in cfg.site_order}
        assert len(providers) == 2

    def test_small_config_infeasible_raises(self, testbed):
        with pytest.raises(ConfigurationError):
            random_small_config(testbed, n_providers=7, sites_per_provider=2)


class TestAllSites:
    def test_enables_everything(self, testbed):
        cfg = all_sites_config(testbed)
        assert cfg.site_order == tuple(testbed.site_ids())


class TestTopologyInference:
    @pytest.fixture(scope="class")
    def predictor(self, testbed):
        return TopologyInferencePredictor(testbed)

    def test_predictions_cover_clients(self, predictor, testbed):
        cfg = AnycastConfig(site_order=(1, 6))
        preds = predictor.predict_all(cfg)
        assert set(preds) == set(testbed.internet.graph.client_asns())
        for p in preds.values():
            assert p.site_id in (1, 6, None)

    def test_certainty_decays_with_sites(self, predictor, testbed):
        """The paper's critique of inference-based prediction: the
        number of nodes with certain predictions shrinks as anycast
        sites are added."""
        few = predictor.predict_all(AnycastConfig(site_order=(1, 6)))
        many = predictor.predict_all(
            AnycastConfig(site_order=tuple(testbed.site_ids()))
        )
        certain_few = sum(p.certain for p in few.values())
        certain_many = sum(p.certain for p in many.values())
        assert certain_many < certain_few

    def test_inference_less_accurate_than_anyopt(
        self, predictor, testbed, targets, anyopt, anyopt_model
    ):
        """Measured AnyOpt predictions beat pure topology inference."""
        cfg = AnycastConfig(site_order=(1, 4, 6, 12))
        deployment = anyopt.deploy(cfg)
        inferred = predictor.predict_all(cfg)
        measured_batch = anyopt_model.predictor.predict(cfg, targets)
        anyopt_ok = anyopt_ok_n = infer_ok = infer_n = 0
        for t, measured in zip(targets, measured_batch):
            outcome = deployment.forwarding(t)
            if outcome is None:
                continue
            predicted = measured.site
            if predicted is not None:
                anyopt_ok_n += 1
                anyopt_ok += predicted == outcome.site_id
            guess = inferred[t.asn]
            infer_n += 1
            infer_ok += guess.site_id == outcome.site_id
        assert anyopt_ok / anyopt_ok_n > infer_ok / infer_n

    def test_certainty_builds_no_stub_state(self, testbed, monkeypatch):
        """``certain`` is read off next hops, which an aggregated stub
        answers without a ``RouterState`` — and it is what the states'
        ``multipath`` lists say once they are built."""
        predictor = TopologyInferencePredictor(testbed)
        runs = []
        run = predictor.engine.run
        monkeypatch.setattr(
            predictor.engine, "run", lambda injections: runs.append(run(injections)) or runs[-1]
        )
        preds = predictor.predict_all(AnycastConfig(site_order=(1, 6, 9)))
        (converged,) = runs
        states = converged.states
        assert states._aggregated >= set(preds)
        assert not states._aggregated & set(states._materialized)
        dataplane = DataPlane(predictor.inferred, converged)
        assert {p.certain for p in preds.values()} == {True, False}
        for asn, pred in preds.items():
            path = dataplane.forward(asn, asn).as_path
            assert pred.certain == all(len(states[hop].multipath) <= 1 for hop in path)

    def test_single_client_prediction(self, predictor, testbed):
        asn = testbed.internet.graph.client_asns()[0]
        p = predictor.predict(AnycastConfig(site_order=(1,)), asn)
        assert p.site_id == 1
