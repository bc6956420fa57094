"""Tests for live telemetry: sliding-window instruments, the SLO
engine, campaign heartbeats, and the Prometheus exposition lint.

Everything time-dependent runs on a :class:`FakeClock` — state
transitions are driven by advancing a number, never by sleeping.
"""

import json
import threading

import pytest

from repro.obs.export import (
    lint_prometheus,
    render_prometheus,
    sanitize_label_value,
    sanitize_metric_name,
)
from repro.obs.heartbeat import (
    HeartbeatWriter,
    follow_heartbeats,
    load_heartbeats,
)
from repro.obs.live import (
    FakeClock,
    LiveMetrics,
    RateCounter,
    WindowReservoir,
)
from repro.obs.slo import SloEngine, SloSpec, worst_state
from repro.report import render_heartbeat, render_heartbeat_history
from repro.runtime.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError, ReproError
from repro.util.stats import percentile


# --- sliding-window instruments ---------------------------------------------


class TestWindowReservoir:
    def test_percentiles_match_exact_before_wraparound(self):
        """Under capacity, rolling percentiles are exact percentiles."""
        clock = FakeClock(1000.0)
        reservoir = WindowReservoir("rtt", window_s=60, capacity=256, clock=clock)
        values = [float((7 * i) % 101) for i in range(200)]
        for value in values:
            reservoir.observe(value)
        summary = reservoir.summary()
        assert summary["count"] == len(values)
        for label, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert summary[label] == percentile(values, q)
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)

    def test_wraparound_keeps_newest_capacity_values(self):
        """Past capacity, the ring holds exactly the newest N values,
        and percentiles equal exact percentiles over that suffix."""
        clock = FakeClock(1000.0)
        reservoir = WindowReservoir("rtt", window_s=60, capacity=64, clock=clock)
        values = [float(i) for i in range(1000)]
        for value in values:
            reservoir.observe(value)
        assert reservoir.total_observed == 1000
        retained = sorted(reservoir.values_in_window())
        assert retained == values[-64:]
        summary = reservoir.summary()
        assert summary["count"] == 64
        assert summary["p50"] == percentile(values[-64:], 50)
        assert summary["p99"] == percentile(values[-64:], 99)

    def test_window_expiry(self):
        clock = FakeClock(0.0)
        reservoir = WindowReservoir("rtt", window_s=10, capacity=16, clock=clock)
        reservoir.observe(1.0)
        clock.advance(5)
        reservoir.observe(2.0)
        assert sorted(reservoir.values_in_window()) == [1.0, 2.0]
        clock.advance(6)  # t=11: the first observation (t=0) expired
        assert reservoir.values_in_window() == [2.0]
        clock.advance(10)  # everything expired
        assert reservoir.summary() == {"count": 0}
        assert reservoir.quantile(99) is None

    def test_memory_is_bounded(self):
        reservoir = WindowReservoir("rtt", capacity=8, clock=FakeClock())
        for i in range(10_000):
            reservoir.observe(float(i))
        assert len(reservoir._slots) == 8

    def test_concurrent_observers(self):
        reservoir = WindowReservoir("rtt", capacity=4096, clock=FakeClock())

        def hammer():
            for i in range(1000):
                reservoir.observe(float(i))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reservoir.total_observed == 4000
        assert reservoir.summary()["count"] == 4000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowReservoir("x", window_s=0)
        with pytest.raises(ConfigurationError):
            WindowReservoir("x", capacity=0)
        with pytest.raises(ConfigurationError):
            FakeClock().advance(-1)


class TestRateCounter:
    def test_rate_over_window(self):
        clock = FakeClock(100.0)
        rate = RateCounter("req", window_s=10, clock=clock)
        for _ in range(5):
            rate.increment()
            clock.advance(1)
        assert rate.count_in_window() == 5
        assert rate.rate_per_s() == pytest.approx(0.5)
        assert rate.total == 5

    def test_old_buckets_age_out(self):
        clock = FakeClock(0.0)
        rate = RateCounter("req", window_s=5, clock=clock)
        rate.increment(amount=10)
        assert rate.count_in_window() == 10
        clock.advance(5)
        assert rate.count_in_window() == 0
        assert rate.total == 10  # lifetime total is monotonic

    def test_bucket_reuse_after_wheel_wrap(self):
        """An epoch far in the future reuses slots without counting
        stale events."""
        clock = FakeClock(0.0)
        rate = RateCounter("req", window_s=3, clock=clock)
        rate.increment()
        clock.advance(100)
        rate.increment()
        assert rate.count_in_window() == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateCounter("x", window_s=0.5)


class TestLiveMetrics:
    def test_get_or_create_shares_clock(self):
        clock = FakeClock(50.0)
        live = LiveMetrics(clock=clock, window_s=30)
        assert live.reservoir("a") is live.reservoir("a")
        assert live.rate("b") is live.rate("b")
        live.reservoir("a").observe(1.0)
        clock.advance(31)
        assert live.reservoir("a").summary() == {"count": 0}

    def test_snapshot_shape(self):
        clock = FakeClock(10.0)
        live = LiveMetrics(clock=clock)
        live.reservoir("lat").observe(5.0)
        live.rate("req").increment()
        snap = live.snapshot()
        assert snap["reservoirs"]["lat"]["count"] == 1
        assert snap["reservoirs"]["lat"]["total"] == 1
        assert snap["rates"]["req"]["count"] == 1
        assert snap["rates"]["req"]["total"] == 1


# --- SLO engine -------------------------------------------------------------


def _drive(engine, clock, ok_count, bad_count, step_s=1.0):
    """Interleave good/bad requests over time."""
    for i in range(ok_count + bad_count):
        engine.record(ok=i >= bad_count)
        clock.advance(step_s)


class TestSloEngine:
    def test_availability_states_transition_with_fake_clock(self):
        clock = FakeClock(10_000.0)
        spec = SloSpec(
            "avail", "availability", 0.9,
            fast_window_s=60, slow_window_s=300,
            warn_burn=1.0, page_burn=5.0,
        )
        engine = SloEngine([spec], clock=clock)

        # All good: ok.
        _drive(engine, clock, ok_count=50, bad_count=0)
        (status,) = engine.evaluate()
        assert status.state == "ok"
        assert status.budget_remaining == pytest.approx(1.0)

        # 100% bad burns 10x the budget in both windows: page.
        for _ in range(60):
            engine.record(ok=False)
            clock.advance(1)
        (status,) = engine.evaluate()
        assert status.state == "page"
        assert status.burn_fast > spec.page_burn
        assert status.budget_remaining == 0.0

        # Recovery: the fast window goes clean long before the slow
        # one, and the multi-window rule de-escalates on the fast one.
        for _ in range(70):
            engine.record(ok=True)
            clock.advance(1)
        (status,) = engine.evaluate()
        assert status.burn_fast < spec.warn_burn  # fast window clean
        assert status.burn_slow > spec.warn_burn  # slow window still dirty
        assert status.state == "ok"

        # Full recovery once the slow window ages out.
        clock.advance(300)
        (status,) = engine.evaluate()
        assert status.state == "ok"
        assert status.budget_remaining == pytest.approx(1.0)

    def test_latency_slo_counts_threshold_misses(self):
        clock = FakeClock(5000.0)
        spec = SloSpec(
            "p99", "latency", 0.9, latency_threshold_ms=100.0,
            fast_window_s=60, slow_window_s=60, warn_burn=1.0, page_burn=3.0,
        )
        engine = SloEngine([spec], clock=clock)
        for i in range(20):
            # Every other request misses the 100 ms bound: 50% bad =
            # 5x the 10% budget.
            engine.record(ok=True, latency_ms=50.0 if i % 2 else 500.0)
            clock.advance(1)
        (status,) = engine.evaluate()
        assert status.state == "page"
        assert status.detail["threshold_ms"] == 100.0
        assert status.detail["window_p99_ms"] >= 100.0
        assert status.detail["fast"]["bad"] == 10

    def test_freshness_slo_warns_then_pages_as_age_grows(self):
        clock = FakeClock(0.0)
        spec = SloSpec(
            "fresh", "freshness", 100.0, warn_burn=0.75, page_burn=1.0
        )
        engine = SloEngine([spec], clock=clock)
        age = {"value": 0.0}
        engine.set_gauge_source("fresh", lambda: age["value"])

        (status,) = engine.evaluate()
        assert status.state == "ok"
        age["value"] = 80.0  # 80% of the budget: past warn, below page
        (status,) = engine.evaluate()
        assert status.state == "warn"
        age["value"] = 150.0
        (status,) = engine.evaluate()
        assert status.state == "page"
        assert status.detail == {"age_s": 150.0, "max_age_s": 100.0}

    def test_freshness_without_gauge_source_pages(self):
        engine = SloEngine(
            [SloSpec("fresh", "freshness", 100.0)], clock=FakeClock()
        )
        (status,) = engine.evaluate()
        assert status.state == "page"
        assert status.detail["error"] == "no gauge source"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind, knob", [
        ("freshness", {"objective"}),
        ("latency", {"latency_threshold_ms"}),
        ("availability", {"fast_window_s", "slow_window_s"}),
        ("availability", {"warn_burn", "page_burn"}),
    ])
    def test_spec_rejects_non_finite_bounds(self, kind, knob, bad):
        fields = {"objective": 0.9, "latency_threshold_ms": 250.0}
        fields.update(dict.fromkeys(knob, bad))
        with pytest.raises(ConfigurationError):
            SloSpec("x", kind, **fields)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SloSpec("x", "nonsense", 0.9)
        with pytest.raises(ConfigurationError):
            SloSpec("x", "availability", 1.5)
        with pytest.raises(ConfigurationError):
            SloSpec("x", "latency", 0.9)  # missing threshold
        with pytest.raises(ConfigurationError):
            SloSpec("x", "freshness", -1.0)
        with pytest.raises(ConfigurationError):
            SloSpec("x", "availability", 0.9, fast_window_s=600, slow_window_s=60)
        with pytest.raises(ConfigurationError):
            SloSpec("x", "availability", 0.9, warn_burn=5.0, page_burn=1.0)
        with pytest.raises(ConfigurationError):
            SloEngine([
                SloSpec("dup", "availability", 0.9),
                SloSpec("dup", "availability", 0.99),
            ])

    def test_worst_state(self):
        assert worst_state([]) == "ok"
        assert worst_state(["ok", "warn", "ok"]) == "warn"
        assert worst_state(["warn", "page"]) == "page"


# --- Prometheus exposition --------------------------------------------------


class TestPrometheusFormat:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("serve_request_ms") == "serve_request_ms"
        assert sanitize_metric_name("a.b-c d") == "a_b_c_d"
        assert sanitize_metric_name("7bad") == "_7bad"
        assert sanitize_metric_name("") == "_unnamed"

    def test_sanitize_label_value(self):
        assert sanitize_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_render_with_live_and_slo_passes_lint(self):
        clock = FakeClock(100.0)
        live = LiveMetrics(clock=clock)
        for v in (1.0, 2.0, 3.0):
            live.reservoir("serve request.ms").observe(v)
        live.rate("req").increment(5)
        engine = SloEngine(
            [SloSpec("avail", "availability", 0.999)], clock=clock
        )
        engine.record(ok=True)
        registry = MetricsRegistry()
        registry.counter("experiments").increment(3)
        registry.histogram("rtt ms").observe(1.5)
        text = render_prometheus(
            registry.snapshot(),
            live=live.snapshot(),
            slo=[s.to_dict() for s in engine.evaluate()],
        )
        assert lint_prometheus(text) == []
        # Dotted/spaced names were sanitized, not emitted raw.
        assert "anyopt_live_serve_request_ms" in text
        assert "anyopt_rtt_ms" in text

    def test_output_ordering_is_stable(self):
        registry = MetricsRegistry()
        registry.counter("zeta").increment()
        registry.counter("alpha").increment()
        text = render_prometheus(registry.snapshot())
        assert text.index("anyopt_alpha_total") < text.index("anyopt_zeta_total")
        assert render_prometheus(registry.snapshot()) == text

    def test_one_type_line_per_family(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        text = render_prometheus(registry.snapshot())
        assert text.count("# TYPE anyopt_a_total counter") == 1

    def test_lint_catches_format_violations(self):
        assert lint_prometheus("anyopt_x 1\n")  # sample without TYPE
        assert lint_prometheus("# TYPE anyopt_x counter\nanyopt_x 1\n")  # no _total
        assert lint_prometheus(
            "# TYPE anyopt_x_total counter\nanyopt_x_total nope\n"
        )  # bad value
        assert lint_prometheus(
            "# TYPE anyopt_x_total counter\n"
            "# TYPE anyopt_x_total counter\n"
            "anyopt_x_total 1\n"
        )  # duplicate TYPE
        assert lint_prometheus(
            "# TYPE anyopt_x_total counter\nanyopt_x_total 1"
        )  # missing trailing newline
        assert lint_prometheus(
            "# TYPE anyopt_x_total counter\n"
            "anyopt_x_total 1\nanyopt_x_total 2\n"
        )  # duplicate series
        good = "# TYPE anyopt_x_total counter\nanyopt_x_total 1\n"
        assert lint_prometheus(good) == []


# --- heartbeats -------------------------------------------------------------


class TestHeartbeat:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        clock = FakeClock(0.0)
        registry = MetricsRegistry()
        # Pre-existing work (a resumed campaign) must be baselined out.
        registry.counter("experiments").increment(100)
        writer = HeartbeatWriter(
            str(path), registry, interval_s=5.0, campaign="discover",
            total_experiments=50, clock=clock,
        )
        with writer as hb:
            hb.set_phase("discover")
            registry.counter("experiments").increment(10)
            registry.counter("convergence_events").increment(500)
            clock.advance(10.0)
            record = hb.beat()
        records = load_heartbeats(path)
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert records[-1]["final"] is True
        assert record["experiments_done"] == 10  # baseline excluded
        assert record["experiments_per_s"] == pytest.approx(1.0)
        assert record["convergence_events"] == 500
        assert record["events_per_s"] == pytest.approx(50.0)
        assert record["experiments_total"] == 50
        assert record["eta_s"] == pytest.approx(40.0)
        assert record["phase"] == "discover"
        assert set(record) == {
            "seq", "campaign", "t_unix", "elapsed_s", "phase",
            "experiments_done", "experiments_failed", "convergence_events",
            "events_per_s", "experiments_per_s", "final",
            "experiments_total", "eta_s",
        }

    def test_first_and_final_records_exist_for_instant_campaign(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        with HeartbeatWriter(str(path), MetricsRegistry(), clock=FakeClock()):
            pass
        records = load_heartbeats(path)
        assert len(records) >= 2
        assert records[0]["seq"] == 0 and not records[0]["final"]
        assert records[-1]["final"] is True

    def test_error_exit_is_recorded(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        with pytest.raises(RuntimeError):
            with HeartbeatWriter(str(path), MetricsRegistry(), clock=FakeClock()):
                raise RuntimeError("campaign exploded")
        final = load_heartbeats(path)[-1]
        assert final["final"] is True
        assert final["error"] == "campaign exploded"

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        with HeartbeatWriter(str(path), MetricsRegistry(), clock=FakeClock()):
            pass
        complete = load_heartbeats(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "torn')  # no newline: a killed writer
        assert load_heartbeats(path) == complete

    def test_corrupt_complete_line_raises(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"seq": 0}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="corrupt heartbeat"):
            load_heartbeats(path)
        path.write_text('{"no_seq": true}\n', encoding="utf-8")
        with pytest.raises(ReproError, match="not a heartbeat record"):
            load_heartbeats(path)

    def test_unwritable_path_fails_fast(self, tmp_path):
        writer = HeartbeatWriter(
            str(tmp_path / "missing-dir" / "hb.jsonl"),
            MetricsRegistry(), clock=FakeClock(),
        )
        with pytest.raises(OSError):
            writer.__enter__()

    def test_follow_yields_and_stops_at_final(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        with HeartbeatWriter(
            str(path), MetricsRegistry(), campaign="audit", clock=FakeClock()
        ) as hb:
            hb.beat()
        seen = list(follow_heartbeats(path, poll_s=0.01, max_polls=3))
        assert seen[-1]["final"] is True
        assert [r["seq"] for r in seen] == list(range(len(seen)))

    def test_flusher_thread_emits_on_interval(self, tmp_path):
        """The daemon thread beats on real time (the only wall-clock
        test here, with a generous bound)."""
        import time as _time

        path = tmp_path / "hb.jsonl"
        with HeartbeatWriter(str(path), MetricsRegistry(), interval_s=0.05):
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline:
                if len(load_heartbeats(path)) >= 3:
                    break
                _time.sleep(0.02)
        assert len(load_heartbeats(path)) >= 3

    def test_interval_validation(self):
        # Event.wait(nan) returns at once: a NaN interval would spin.
        for bad in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                HeartbeatWriter("x", MetricsRegistry(), interval_s=bad)


class TestHeartbeatRendering:
    def test_render_single_record(self):
        line = render_heartbeat({
            "seq": 42, "campaign": "discover", "phase": "discover",
            "elapsed_s": 500, "experiments_done": 512,
            "experiments_total": 1200, "experiments_per_s": 3.2,
            "eta_s": 215,
        })
        assert "done 512/1200 (42.7%)" in line
        assert "3.2/s" in line
        assert "eta 3m35s" in line

    def test_render_omits_missing_optionals(self):
        line = render_heartbeat({
            "seq": 0, "campaign": "audit", "elapsed_s": 2,
            "experiments_done": 3, "experiments_per_s": 1.5,
            "final": True,
        })
        assert "done 3" in line
        assert "done 3/" not in line  # no total hint was given
        assert "eta" not in line
        assert "(final)" in line

    def test_render_error_and_failures(self):
        line = render_heartbeat({
            "seq": 1, "campaign": "discover", "elapsed_s": 10,
            "experiments_done": 5, "experiments_per_s": 0.5,
            "experiments_failed": 2, "error": "boom", "final": True,
        })
        assert "failed 2" in line
        assert "ERROR: boom" in line

    def test_render_history(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        with HeartbeatWriter(str(path), MetricsRegistry(), clock=FakeClock()):
            pass
        text = render_heartbeat_history(load_heartbeats(path))
        assert len(text.splitlines()) == len(load_heartbeats(path))
        with pytest.raises(ReproError):
            render_heartbeat_history([])
