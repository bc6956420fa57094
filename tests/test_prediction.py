"""Tests for catchment/RTT prediction: against deployments, and
against the per-client reference that ``CatchmentPredictor.predict``
used to be.

``predict`` is a view over the batched ``total_orders`` and
``RttMatrix.array``; :func:`reference_predict` below is the plain form
it replaced — scalar ``total_order`` per client, RTT straight from the
dict — and the two must agree row for row, ``==`` and type for type.
"""

import json
import random
from collections import namedtuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_config
from repro.core.config import AnycastConfig
from repro.core.prediction import (
    REASON_QUARANTINED,
    REASON_RTT_HOLE,
    REASON_UNMAPPED,
    CatchmentPredictor,
    Prediction,
    PredictionBatch,
    PredictionReport,
    encode_row,
    model_clients,
)
from repro.core.preferences import PairObservation, PreferenceMatrix
from repro.core.twolevel import FlatPreferenceModel
from repro.measurement.rtt import RttMatrix
from repro.serve import LookupEngine, compile_snapshot
from repro.util.errors import ReproError
from tests.test_search_plane import SETTINGS, Providers, random_matrix, two_level_worlds


def reference_predict(model, rtt_matrix, config, clients):
    """The oracle: one client at a time, the paper's sentence as
    written — most preferred enabled site of the scalar total order,
    RTT from the measured dict."""
    known = model_clients(model, rtt_matrix)
    rows = []
    for client in clients:
        client_id = getattr(client, "target_id", client)
        if client_id not in known:
            rows.append(Prediction(client_id, None, None, REASON_UNMAPPED))
            continue
        order = model.total_order(client_id, config.site_order)
        site = order.most_preferred(config.sites)
        if site is None:
            rows.append(Prediction(client_id, None, None, REASON_QUARANTINED))
            continue
        rtt = rtt_matrix.values.get((site, client_id))
        if rtt is None:
            rows.append(Prediction(client_id, site, None, REASON_RTT_HOLE))
        else:
            rows.append(Prediction(client_id, site, rtt))
    return rows


def assert_predictions_match(model, rtt_matrix, config, clients):
    """``predict`` equals the oracle: same rows in request order, and
    exact Python ``int`` / ``float`` / ``None`` in every field (the
    JSON encoder and ``==`` on served bytes depend on it)."""
    clients = list(clients)
    batch = CatchmentPredictor(model, rtt_matrix).predict(config, iter(clients))
    assert batch.config is config
    assert batch.predictions == reference_predict(model, rtt_matrix, config, clients)
    for p in batch:
        assert type(p.client_id) is int
        assert p.site is None or type(p.site) is int
        assert p.rtt_ms is None or type(p.rtt_ms) is float
    return batch


Target = namedtuple("Target", "target_id")


def awkward_request(rng, clients):
    """Known and unseen ids, repeated, shuffled, some wrapped in
    ``PingTarget``-likes."""
    request = clients + rng.sample(clients, min(3, len(clients))) + [999, 10**9, 999]
    rng.shuffle(request)
    return [Target(c) if rng.random() < 0.3 else c for c in request]


class TestPredictIsTheReference:
    @given(two_level_worlds(), st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_two_level_models(self, world, seed):
        """Pairwise and RTT-heuristic site levels, single-site and
        single-provider orders, UNDECIDED / inconsistent / unmeasured
        cells, RTT holes and ``None`` samples."""
        model, clients, order = world
        request = awkward_request(random.Random(seed), clients)
        assert_predictions_match(
            model, model.rtt_matrix, AnycastConfig(site_order=order), request
        )

    @given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 10))
    @settings(**SETTINGS)
    def test_flat_model(self, seed, n_sites, n_clients):
        rng = random.Random(seed)
        sites = list(range(1, n_sites + 1))
        clients = list(range(n_clients))
        model = FlatPreferenceModel(random_matrix(rng, clients, sites + [50]))
        rtt = RttMatrix()
        for site in sites:
            for client in clients + [77]:  # 77: RTT samples only
                roll = rng.random()
                if roll >= 0.1:
                    rtt.set(site, client, None if roll < 0.2 else rng.uniform(1.0, 90.0))
        order = tuple(rng.sample(sites, rng.randint(1, n_sites)))
        assert_predictions_match(
            model, rtt, AnycastConfig(site_order=order), awkward_request(rng, clients + [77])
        )

    def test_every_reason_appears(self):
        """One hand-made world, one row per outcome."""
        model = FlatPreferenceModel(PreferenceMatrix())
        for client, winner in ((1, 1), (2, 2), (3, None)):
            model.matrix.record(client, PairObservation(1, 2, winner, winner))
        rtt = RttMatrix()
        rtt.set(1, 1, 12.5)
        rtt.set(2, 2, None)
        batch = assert_predictions_match(
            model, rtt, AnycastConfig(site_order=(1, 2)), [3, 2, 1, 4]
        )
        assert batch.predictions == [
            Prediction(3, None, None, REASON_QUARANTINED),
            Prediction(2, 2, None, REASON_RTT_HOLE),
            Prediction(1, 1, 12.5),
            Prediction(4, None, None, REASON_UNMAPPED),
        ]

    def test_discovered_model(self, anyopt_model, targets, testbed):
        rng = random.Random(9)
        sites = testbed.site_ids()
        for size in (len(sites), 5, 2, 1):
            config = AnycastConfig(site_order=tuple(rng.sample(sites, size)))
            batch = assert_predictions_match(
                anyopt_model.twolevel, anyopt_model.rtt_matrix, config, targets
            )
            assert batch.decided_count > len(batch) // 2

    def test_empty_request(self, anyopt_model):
        config = AnycastConfig(site_order=(1, 4))
        assert anyopt_model.predictor.predict(config, []).predictions == []
        assert len(anyopt_model.predictor.predict(config, [10**9])) == 1


class SnapshotWorld(Providers):
    """What ``compile_snapshot`` asks of a testbed, over a
    ``two_level_worlds`` provider map."""

    def site_ids(self):
        return sorted(self._provider_of)

    def provider_asns(self):
        return sorted(set(self._provider_of.values()))


def engine_for(model):
    """A ``LookupEngine`` over a snapshot of a bare two-level model (the
    fingerprint wants a whole ``AnyOptModel``; nothing served reads it)."""
    world = SimpleNamespace(
        twolevel=model, rtt_matrix=model.rtt_matrix,
        testbed=SnapshotWorld(model.testbed._provider_of),
    )
    with mock.patch("repro.audit.repair.model_fingerprint", return_value="0" * 64):
        return LookupEngine(compile_snapshot(world))


def dumped(batch, version):
    """The body the server used to build: dict view, then json."""
    return json.dumps({**batch.to_dict(), "model_version": version}).encode("utf-8")


class TestServedBytes:
    """``to_json`` is ``json.dumps`` of ``to_dict`` byte for byte, and
    the columns materialise to the oracle's rows — from the predictor
    (every row encoded) and from the engine (rows cached per cell, so
    each request is made twice: filling the cells, then reading them)."""

    @given(two_level_worlds(), st.integers(0, 2**32), st.text(max_size=6))
    @settings(**SETTINGS)
    def test_both_predictors_both_site_level_modes(self, world, seed, version):
        model, clients, order = world
        config = AnycastConfig(site_order=order)
        request = awkward_request(random.Random(seed), clients)
        eager = reference_predict(model, model.rtt_matrix, config, request)
        engine = engine_for(model)
        for predict in (
            CatchmentPredictor(model, model.rtt_matrix).predict,
            engine.predict, engine.predict,
        ):
            batch = predict(config, request)
            assert batch.to_json(version) == dumped(batch, version)
            assert batch.predictions == eager and list(batch) == eager
            assert [batch[i] for i in range(len(batch))] == eager
            assert batch.decided_count == sum(p.decided for p in eager)
            assert batch.sites() == {p.client_id: p.site for p in eager}
        everyone = reference_predict(
            model, model.rtt_matrix, config, sorted(model_clients(model, model.rtt_matrix))
        )
        for _ in range(2):
            batch = engine.predict(config)
            assert batch.to_json(version) == dumped(batch, version)
            assert batch.predictions == everyone

    def test_summary_reads_the_columns_like_the_rows(self):
        """Reason keys in first-occurrence order, the mean the same
        ``sum`` over the same floats, None without any."""
        batch = PredictionBatch(
            AnycastConfig(site_order=(3, 5)), [4, 1, 2, 9, 1], [None, 0, 1, 2, 0],
            [1, -1, 0], [0.1, float("nan"), float("nan")], [3, 5],
        )
        assert batch.counts_by_reason() == {
            REASON_UNMAPPED: 1, REASON_QUARANTINED: 1, REASON_RTT_HOLE: 1,
        }
        assert list(batch.counts_by_reason()) == [p.reason for p in batch if p.reason]
        assert batch.mean_rtt_ms == sum([0.1, 0.1]) / 2 and batch.decided_count == 3
        assert batch.to_json("v") == dumped(batch, "v")
        nothing = PredictionBatch(batch.config, [7], [None], [], [], [3, 5])
        assert nothing.mean_rtt_ms is None and nothing.decided_count == 0
        assert nothing.to_json("v") == dumped(nothing, "v")
        assert nothing != batch and nothing == PredictionBatch(batch.config, [7], [None], [], [], [])

    @given(
        st.integers(-2**70, 2**70), st.one_of(st.none(), st.integers(0, 2**40)),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from(["", REASON_UNMAPPED, REASON_QUARANTINED, REASON_RTT_HOLE]),
    )
    @settings(**SETTINGS)
    def test_encode_row_is_json_dumps_of_the_row(self, client_id, site, rtt_ms, reason):
        row = Prediction(client_id, site, rtt_ms, reason)
        assert encode_row(client_id, site, rtt_ms, reason) == json.dumps(row.to_dict()).encode()


class TestRttArray:
    @given(st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_equals_the_dict_cell_by_cell(self, seed):
        rng = random.Random(seed)
        matrix = RttMatrix()
        for site in range(1, 6):
            for client in range(8):
                roll = rng.random()
                if roll >= 0.2:
                    matrix.set(site, client, None if roll < 0.3 else rng.uniform(0.0, 300.0))
        sites = rng.sample(range(1, 8), rng.randint(0, 6))
        clients = [rng.randrange(10) for _ in range(rng.randint(0, 9))]
        array = matrix.array(sites, clients)
        assert array.dtype == np.float64 and array.shape == (len(sites), len(clients))
        for i, site in enumerate(sites):
            for j, client in enumerate(clients):
                value = matrix.values.get((site, client))
                if value is None:
                    assert np.isnan(array[i, j])
                else:
                    assert array[i, j] == value

    def test_read_only_and_dropped_by_set(self):
        matrix = RttMatrix()
        matrix.set(1, 10, 5.0)
        first = matrix.array([1, 2], [10])
        assert matrix.array([1, 2], [10]) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        matrix.set(2, 10, 7.0)
        second = matrix.array([1, 2], [10])
        assert second.tolist() == [[5.0], [7.0]] and np.isnan(first[1, 0])
        predictor = CatchmentPredictor(FlatPreferenceModel(PreferenceMatrix()), matrix)
        config = AnycastConfig(site_order=(2,))
        assert predictor.predict(config, [10])[0] == Prediction(10, 2, 7.0)
        matrix.set(2, 10, 8.0)
        assert predictor.predict(config, [10])[0] == Prediction(10, 2, 8.0)


@pytest.fixture(scope="module")
def predictor(anyopt_model):
    return anyopt_model.predictor


class TestPredictBatch:
    def test_predicts_enabled_site_or_none(self, predictor, targets, testbed):
        cfg = AnycastConfig(site_order=(1, 4, 6))
        for p in predictor.predict(cfg, list(targets)[:100]):
            assert p.site in (1, 4, 6, None)
            assert p.decided == (p.site is not None)

    def test_singleton_prediction_is_that_site(self, predictor, targets):
        cfg = AnycastConfig(site_order=(9,))
        predicted = {p.site for p in predictor.predict(cfg, targets)}
        assert predicted <= {9, None}

    def test_prediction_respects_announce_order(self, predictor, targets):
        """For order-dependent clients, reversing the configured
        announcement order can change the prediction."""
        ab = predictor.predict(AnycastConfig(site_order=(1, 6)), targets)
        ba = predictor.predict(AnycastConfig(site_order=(6, 1)), targets)
        changed = sum(
            1
            for p, q in zip(ab, ba)
            if p.site is not None and p.site != q.site
        )
        assert changed > 0

    def test_predict_catchments_bulk(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 6))
        result = predictor.predict_catchments(cfg, targets)
        assert len(result) == len(targets)

    def test_batch_preserves_request_order(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 6))
        ids = [t.target_id for t in targets][:20][::-1]
        batch = predictor.predict(cfg, ids)
        assert [p.client_id for p in batch] == ids

    def test_unknown_client_is_unmapped(self, predictor):
        cfg = AnycastConfig(site_order=(1, 6))
        batch = predictor.predict(cfg, [10**9])
        assert batch[0] == Prediction(10**9, None, None, REASON_UNMAPPED)
        assert batch.counts_by_reason() == {REASON_UNMAPPED: 1}

    def test_reasons_partition_the_batch(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 4, 6))
        batch = predictor.predict(cfg, targets)
        undecided = sum(batch.counts_by_reason().values()) - sum(
            1 for p in batch if p.decided and p.reason
        )
        assert batch.decided_count + undecided == len(batch)

    def test_empty_batch_mean_rtt_is_none(self, predictor):
        cfg = AnycastConfig(site_order=(1,))
        assert predictor.predict(cfg, []).mean_rtt_ms is None


class TestPredictRtt:
    def test_rtt_from_matrix(self, predictor, targets, anyopt_model):
        cfg = AnycastConfig(site_order=(1, 6))
        for p in predictor.predict(cfg, list(targets)[:50]):
            if p.rtt_ms is not None:
                assert p.rtt_ms == anyopt_model.rtt_matrix.rtt(p.site, p.client_id)

    def test_mean_rtt_positive(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 4, 6, 12))
        assert predictor.predict_mean_rtt(cfg, targets) > 0


class TestEvaluate:
    def test_accuracy_high_on_random_configs(self, anyopt, anyopt_model, testbed):
        """The paper's S5.2 result: held-out random configurations are
        predicted with >90% catchment accuracy."""
        for i in range(3):
            cfg = random_config(testbed, 4 + 3 * i, seed=50 + i)
            report = anyopt.evaluate(anyopt_model, cfg)
            assert report.accuracy > 0.9
            assert 0.5 < report.coverage <= 1.0

    def test_rtt_error_small(self, anyopt, anyopt_model, testbed):
        cfg = random_config(testbed, 8, seed=77)
        report = anyopt.evaluate(anyopt_model, cfg)
        assert report.rel_rtt_error < 0.25

    def test_report_consistency(self, anyopt, anyopt_model, testbed):
        cfg = random_config(testbed, 5, seed=78)
        report = anyopt.evaluate(anyopt_model, cfg)
        assert report.n_correct <= report.n_predicted <= report.n_targets
        assert report.abs_rtt_error_ms == pytest.approx(
            abs(report.predicted_mean_rtt - report.measured_mean_rtt)
        )

    def test_empty_report_raises(self):
        report = PredictionReport(
            config=AnycastConfig(site_order=(1,)),
            n_targets=10, n_predicted=0, n_correct=0,
            predicted_mean_rtt=1.0, measured_mean_rtt=1.0,
        )
        with pytest.raises(ReproError):
            report.accuracy
        assert report.accuracy_or_none is None

    def test_batch_to_dict_shape(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 6))
        doc = predictor.predict(cfg, list(targets)[:5]).to_dict()
        assert doc["sites"] == [1, 6]
        assert doc["summary"]["clients"] == 5
        assert len(doc["predictions"]) == 5
        assert isinstance(doc["predictions"][0], dict)


def test_prediction_batch_is_sequence_like():
    cfg = AnycastConfig(site_order=(3,))
    batch = PredictionBatch(cfg, [1, 2], [0, 1], [0, -1], [10.0, float("nan")], [3])
    assert batch.predictions == [
        Prediction(1, 3, 10.0), Prediction(2, None, None, "quarantined")
    ]
    assert len(batch) == 2
    assert batch[0].decided and not batch[1].decided
    assert batch.decided_count == 1
    assert batch.sites() == {1: 3, 2: None}
    assert batch.mean_rtt_ms == 10.0
