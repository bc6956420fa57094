"""Round-trip tests for testbed and model serialization."""

import json

import pytest

from repro.core.config import AnycastConfig
from repro.io import (
    atomic_write,
    load_model,
    load_testbed,
    model_from_dict,
    model_to_dict,
    save_model,
    save_testbed,
)

# Imported via the module so pytest does not collect the test*-prefixed
# helper names as test functions.
from repro.io import serialization as ser
from repro.measurement.orchestrator import Orchestrator
from repro.runtime import CampaignSettings
from repro.util.errors import ReproError


class TestTestbedRoundTrip:
    def test_structure_preserved(self, testbed):
        clone = ser.testbed_from_dict(ser.testbed_to_dict(testbed))
        assert clone.site_ids() == testbed.site_ids()
        assert clone.peer_ids() == testbed.peer_ids()
        assert len(clone.internet.graph) == len(testbed.internet.graph)
        for asn in testbed.internet.graph.asns():
            a = testbed.internet.graph.as_of(asn)
            b = clone.internet.graph.as_of(asn)
            assert (a.tier, a.name, a.multipath, a.policy_deviant) == (
                b.tier, b.name, b.multipath, b.policy_deviant
            )
            assert a.hosts_clients == b.hosts_clients

    def test_links_preserved(self, testbed):
        clone = ser.testbed_from_dict(ser.testbed_to_dict(testbed))
        for link in testbed.internet.graph.links():
            other = clone.internet.graph.link(link.a, link.b)
            assert other.rtt_ms == link.rtt_ms
            assert other.prop_delay_ms == link.prop_delay_ms
            assert other.igp_cost == link.igp_cost
            assert other.attach_pop == link.attach_pop
            assert clone.internet.graph.rel(link.a, link.b) is (
                testbed.internet.graph.rel(link.a, link.b)
            )

    def test_pop_networks_preserved(self, testbed):
        clone = ser.testbed_from_dict(ser.testbed_to_dict(testbed))
        for asn, net in testbed.internet.pop_networks.items():
            other = clone.internet.pop_networks[asn]
            assert other.pop_count == net.pop_count
            for i in range(net.pop_count):
                for j in range(net.pop_count):
                    assert other.igp_km(i, j) == pytest.approx(net.igp_km(i, j))

    def test_catchments_identical_after_roundtrip(self, testbed, targets):
        """The loaded testbed routes every flow exactly as the
        original (the bar that matters)."""
        clone = ser.testbed_from_dict(ser.testbed_to_dict(testbed))
        config = AnycastConfig(site_order=(1, 4, 6))
        kwargs = dict(seed=5, settings=CampaignSettings.noiseless())
        dep_a = Orchestrator(testbed, targets, **kwargs).deploy(config)
        dep_b = Orchestrator(clone, targets, **kwargs).deploy(config)
        for t in list(targets)[:80]:
            oa, ob = dep_a.forwarding(t), dep_b.forwarding(t)
            assert (oa is None) == (ob is None)
            if oa is not None:
                assert oa.site_id == ob.site_id
                assert oa.rtt_ms == pytest.approx(ob.rtt_ms)

    def test_file_roundtrip(self, testbed, tmp_path):
        path = tmp_path / "testbed.json"
        save_testbed(testbed, path)
        clone = load_testbed(path)
        assert clone.site_ids() == testbed.site_ids()

    def test_json_serializable(self, testbed):
        json.dumps(ser.testbed_to_dict(testbed))

    def test_wrong_format_rejected(self):
        with pytest.raises(ReproError):
            ser.testbed_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self, testbed):
        raw = ser.testbed_to_dict(testbed)
        raw["version"] = 999
        with pytest.raises(ReproError):
            ser.testbed_from_dict(raw)


class TestModelRoundTrip:
    def test_rtt_matrix_preserved(self, anyopt_model, testbed):
        clone = model_from_dict(model_to_dict(anyopt_model), testbed)
        assert clone.rtt_matrix.values == anyopt_model.rtt_matrix.values
        assert clone.experiments_used == anyopt_model.experiments_used

    def test_predictions_identical(self, anyopt_model, testbed, targets):
        clone = model_from_dict(model_to_dict(anyopt_model), testbed)
        config = AnycastConfig(site_order=(1, 4, 6, 12))
        sample = list(targets)[:100]
        cloned = clone.predictor.predict(config, sample)
        original = anyopt_model.predictor.predict(config, sample)
        assert cloned.predictions == original.predictions

    def test_total_orders_identical(self, anyopt_model, testbed, targets):
        clone = model_from_dict(model_to_dict(anyopt_model), testbed)
        order = tuple(testbed.site_ids())
        for t in list(targets)[:60]:
            assert clone.total_order(t.target_id, order).order == (
                anyopt_model.total_order(t.target_id, order).order
            )

    def test_file_roundtrip(self, anyopt_model, testbed, tmp_path):
        path = tmp_path / "model.json"
        save_model(anyopt_model, path)
        clone = load_model(path, testbed)
        assert clone.rtt_matrix.values == anyopt_model.rtt_matrix.values

    def test_wrong_format_rejected(self, testbed):
        with pytest.raises(ReproError):
            model_from_dict({"format": "anyopt-testbed", "version": 1}, testbed)

    def test_undecided_cells_round_trip(self):
        from repro.core.preferences import (
            PairObservation,
            PreferenceMatrix,
            PreferenceOutcome,
        )
        from repro.io.serialization import matrix_from_list, matrix_to_list

        matrix = PreferenceMatrix()
        matrix.record(100, PairObservation(1, 2, 1, 1))
        matrix.record(100, PairObservation.undecided_pair(1, 3))
        clone = matrix_from_list(matrix_to_list(matrix))
        assert clone == matrix
        assert clone.observation(100, 1, 3).outcome() is PreferenceOutcome.UNDECIDED

    def test_rows_not_six_columns_rejected(self):
        """A model file is outside input: no guessing a missing
        ``undecided`` flag, no ignoring a surplus column."""
        from repro.io.serialization import matrix_from_list

        good = [100, 1, 3, 1, 1, False]
        for bad in ([100, 1, 2, 1, 1], [100, 1, 2, 1, 1, False, 0]):
            with pytest.raises(ReproError, match=rf"row 1 has {len(bad)} columns, expected 6"):
                matrix_from_list([good, bad])


class TestAtomicWrite:
    """Every artifact is replaced whole or not at all."""

    def test_write_that_fails_mid_stream_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "model.json"
        target.write_bytes(b"the previous model")

        def torn():
            yield b"half of the"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, torn())
        assert target.read_bytes() == b"the previous model"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_in_place_save_model_survives_a_failed_replace(
        self, anyopt_model, tmp_path, monkeypatch
    ):
        """``anyopt audit --model m.json --repair --out m.json`` overwrites
        its only copy; a crash at the last step must not truncate it."""
        path = tmp_path / "model.json"
        save_model(anyopt_model, path)
        before = path.read_bytes()
        from repro.io import atomic

        def crash(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(atomic.os, "replace", crash)
        with pytest.raises(OSError, match="killed"):
            save_model(anyopt_model, path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_text_and_bytes(self, tmp_path):
        atomic_write(tmp_path / "a", "é")
        atomic_write(tmp_path / "b", b"\x00\x01")
        assert (tmp_path / "a").read_bytes() == "é".encode("utf-8")
        assert (tmp_path / "b").read_bytes() == b"\x00\x01"
