"""Tests for the serve-path chaos harness and its fault injector.

The headline test self-hosts a guarded, watching ``ModelServer`` and
drives a small seeded fault storm through it — hostile clients and
corrupt publishes included — asserting every chaos invariant holds
and the report round-trips through JSON.
"""

import json

import pytest

from repro.runtime.faults import (
    SERVE_FAULT_KINDS,
    SERVE_REQUEST_FAULTS,
    ServeFaultInjector,
)
from repro.report import render_chaos_report
from repro.serve import (
    ChaosConfig,
    LookupEngine,
    compile_snapshot,
    load_snapshot,
    run_chaos,
    write_snapshot,
)
from repro.serve.chaos import compile_variant, corrupt_bytes, scrape_counters
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def snapshot_path(anyopt_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "model.snap"
    write_snapshot(compile_snapshot(anyopt_model), str(path))
    return str(path)


@pytest.fixture
def storm_path(snapshot_path, tmp_path):
    """A private copy: the harness republishes over this path."""
    path = tmp_path / "storm.snap"
    path.write_bytes(open(snapshot_path, "rb").read())
    return str(path)


class TestServeFaultInjector:
    def test_decisions_are_seed_deterministic(self):
        a = ServeFaultInjector(42).plan(50, 8)
        b = ServeFaultInjector(42).plan(50, 8)
        assert a == b
        c = ServeFaultInjector(43).plan(50, 8)
        assert a != c

    def test_decisions_are_order_independent(self):
        injector = ServeFaultInjector(7)
        forward = [injector.request_fault(i) for i in range(30)]
        backward = [injector.request_fault(i) for i in reversed(range(30))]
        assert forward == list(reversed(backward))

    def test_probability_edges(self):
        never = ServeFaultInjector(1, request_fault_prob=0.0,
                                   publish_corrupt_prob=0.0)
        assert all(never.request_fault(i) is None for i in range(20))
        assert not any(never.publish_corrupt(i) for i in range(20))
        always = ServeFaultInjector(1, request_fault_prob=1.0,
                                    publish_corrupt_prob=1.0)
        drawn = {always.request_fault(i) for i in range(100)}
        assert drawn <= set(SERVE_REQUEST_FAULTS)
        assert len(drawn) > 1  # the seed spreads across kinds
        assert all(always.publish_corrupt(i) for i in range(20))

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ServeFaultInjector(0, request_fault_prob=1.5)
        with pytest.raises(ValueError):
            ServeFaultInjector(0, publish_corrupt_prob=-0.1)
        with pytest.raises(ValueError):
            ServeFaultInjector(0, kinds=("slow-read", "made-up"))
        # corrupt-snapshot is a publish fault, not a request fault.
        with pytest.raises(ValueError):
            ServeFaultInjector(0, kinds=SERVE_FAULT_KINDS)

    def test_jitter_stays_in_range(self):
        injector = ServeFaultInjector(5)
        values = [injector.jitter("pace", i, 0.2, 0.8) for i in range(50)]
        assert all(0.2 <= v <= 0.8 for v in values)
        assert values == [injector.jitter("pace", i, 0.2, 0.8) for i in range(50)]


class TestChaosPieces:
    def test_chaos_config_validates(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(requests=0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(publishes=-1)
        with pytest.raises(ConfigurationError):
            ChaosConfig(request_fault_prob=2.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(watch_interval_s=0.0)

    def test_variant_snapshot_differs_and_loads(self, snapshot_path, tmp_path):
        original = LookupEngine(load_snapshot(snapshot_path))
        variant_bytes, variant = compile_variant(snapshot_path, str(tmp_path))
        assert variant.version != original.version
        # Same universe, nudged RTT: the variant answers for the same
        # clients and sites.
        assert variant.site_ids() == original.site_ids()
        assert list(variant.client_ids()) == list(original.client_ids())
        path = tmp_path / "roundtrip.snap"
        path.write_bytes(variant_bytes)
        assert LookupEngine(load_snapshot(str(path))).version == variant.version

    def test_corrupt_bytes_never_load(self, snapshot_path, tmp_path):
        good = open(snapshot_path, "rb").read()
        from repro.serve import SnapshotError
        for index in range(6):
            bad = corrupt_bytes(good, seed=0, index=index)
            assert bad != good
            path = tmp_path / f"bad{index}.snap"
            path.write_bytes(bad)
            with pytest.raises(SnapshotError):
                load_snapshot(str(path))

    def test_scrape_counters_parses_exposition(self):
        text = (
            "# HELP anyopt_serve_requests_total requests\n"
            "# TYPE anyopt_serve_requests_total counter\n"
            "anyopt_serve_requests_total 41\n"
            "anyopt_serve_request_ms{quantile=\"0.5\"} 1.25 extra\n"
            "anyopt_serve_shed_requests_total 2\n"
        )
        values = scrape_counters(text)
        assert values["anyopt_serve_requests_total"] == 41.0
        assert values["anyopt_serve_shed_requests_total"] == 2.0


class TestChaosRun:
    def test_seeded_storm_holds_every_invariant(self, storm_path, tmp_path):
        """The acceptance criterion: a seeded chaos run completes with
        zero 500s, byte-identical answers, accounted sheds, a
        converged watcher, and zero stuck connections."""
        config = ChaosConfig(
            seed=3, requests=24, concurrency=3, publishes=2,
            watch_interval_s=0.1, client_timeout_s=30.0,
        )
        version_before = LookupEngine(load_snapshot(storm_path)).version
        report = run_chaos(storm_path, config)
        rendered = render_chaos_report(report)
        assert report.passed, rendered
        names = {inv.name for inv in report.invariants}
        assert {
            "no-500s", "byte-identical-answers", "sheds-accounted",
            "ready-throughout", "no-client-timeouts", "watcher-converged",
            "no-stuck-connections",
        } <= names
        assert report.answers_checked > 0
        assert report.mismatches == []
        assert report.stuck_connections == 0
        # The storm actually injected faults (seeded, so stable).
        assert sum(
            count for kind, count in report.faults_injected.items()
            if kind != "none"
        ) > 0
        # The report is an artifact: JSON round-trip must be exact.
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["passed"] is True
        assert doc["seed"] == 3
        assert "PASS" in rendered
        # The harness put the original snapshot back.
        assert LookupEngine(load_snapshot(storm_path)).version == version_before
