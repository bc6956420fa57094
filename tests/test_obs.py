"""The observability layer: spans, histograms, logs, and exporters.

The load-bearing property mirrors the metrics layer's: the exported
span tree (ids, attributes, parentage — everything except wall-clock
fields) must be identical for every run of the same campaign, because
span ids derive from reserved experiment ids, never from wall clocks.
"""

import io
import json
import logging

import pytest

from repro import AnyOpt, CampaignSettings
from repro.cli import main
from repro.io import save_testbed
from repro.obs import Tracer, render_record, span_sort_key, strip_timing
from repro.obs.export import load_trace, render_prometheus, write_trace_jsonl
from repro.obs.inspect import phase_breakdown, summarize_trace
from repro.obs.log import JsonFormatter, KeyValueFormatter, configure_logging, get_logger
from repro.runtime import Histogram, MetricsRegistry
from repro.util.errors import ReproError

from tests.conftest import SEED

FAULTY = CampaignSettings(
    fault_announcement_prob=0.15, fault_convergence_timeout_prob=0.05
)


def comparable(records):
    """A trace reduced to its deterministic form: JSONL lines with the
    wall-clock fields stripped."""
    return [render_record(strip_timing(r)) for r in records]


def discover_trace(testbed, targets, settings=None):
    anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    anyopt.discover()
    return anyopt.tracer.records()


# --- the tracer itself ------------------------------------------------------


class TestTracer:
    def test_ids_derive_from_tree_position(self):
        tracer = Tracer()
        with tracer.span("campaign") as root:
            with tracer.span("deploy"):
                pass
            with tracer.span("deploy"):
                pass
            with tracer.span("experiment", key="exp:17") as exp:
                assert exp.parent_id == root.span_id
        ids = [r["span_id"] for r in tracer.records()]
        assert ids == [
            "campaign#0",
            "campaign#0/deploy#0",
            "campaign#0/deploy#1",
            "campaign#0/exp:17",
        ]

    def test_explicit_parent_overrides_thread_local(self):
        tracer = Tracer()
        with tracer.span("campaign") as root:
            with tracer.span("child", parent=None) as orphan:
                assert orphan.parent_id is None
            with tracer.span("child", parent=root.span_id) as child:
                assert child.parent_id == root.span_id

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record["status"] == "error"
        assert "ValueError: boom" in record["error"]

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("attempt"):
            tracer.add_event("fault", fault="announcement", attempt=0)
        (record,) = tracer.records()
        assert record["events"][0]["name"] == "fault"
        assert record["events"][0]["attributes"]["fault"] == "announcement"
        # With no open span, events are dropped, not errors.
        tracer.add_event("fault", fault="ignored")

    def test_max_records_keeps_the_last_finished(self):
        ring = Tracer(max_records=3)
        for seq in range(10):
            with ring.span("http-request", key=f"req:{seq}", parent=None):
                pass
        ring.record("converge")
        ring.record("reload")
        assert [r["span_id"] for r in ring.records()] == ["converge#0", "reload#0", "req:9"]
        assert ring.finished_count == 3
        everything = Tracer()
        for seq in range(10):
            with everything.span("http-request", key=f"req:{seq}", parent=None):
                pass
        assert everything.finished_count == 10

    def test_records_under_reads_only_the_open_spans_descendants(self):
        tracer = Tracer()
        with tracer.span("experiment", key="exp:1"):
            with tracer.span("deploy"):
                pass
        with tracer.span("experiment", key="exp:10") as exp:
            with tracer.span("attempt"):
                pass
            tracer.record("converge", parent=None)
            with tracer.span("deploy"):
                with tracer.span("attempt"):
                    pass
            assert [r["span_id"] for r in tracer.records_under(exp)] == [
                "exp:10/attempt#0",
                "exp:10/deploy#0/attempt#0",
                "exp:10/deploy#0",
            ]
        ring = Tracer(max_records=2)
        with ring.span("experiment") as exp:
            for _ in range(3):
                with ring.span("attempt"):
                    pass
            assert [r["span_id"] for r in ring.records_under(exp)] == [
                "experiment#0/attempt#1",
                "experiment#0/attempt#2",
            ]

    def test_span_sort_key_orders_numerically(self):
        ids = ["d#0/exp:10", "d#0/exp:9", "d#0", "d#0/exp:9/deploy#0"]
        assert sorted(ids, key=span_sort_key) == [
            "d#0",
            "d#0/exp:9",
            "d#0/exp:9/deploy#0",
            "d#0/exp:10",
        ]

    def test_strip_timing_removes_only_clock_fields(self):
        tracer = Tracer()
        with tracer.span("deploy") as span:
            span.add_event("fault", fault="x")
        (record,) = tracer.records()
        stripped = strip_timing(record)
        assert "start_unix" not in stripped and "duration_s" not in stripped
        assert "time_unix" not in stripped["events"][0]
        assert stripped["events"][0]["attributes"] == {"fault": "x"}
        # The original record is untouched.
        assert "start_unix" in record


# --- run-to-run determinism -------------------------------------------------


class TestDeterministicTraces:
    def test_span_trees_identical_under_faults(self, testbed, targets):
        first = discover_trace(testbed, targets, settings=FAULTY)
        second = discover_trace(testbed, targets, settings=FAULTY)
        assert comparable(first) == comparable(second)
        # Faults actually fired and were rolled up onto experiment spans.
        faulted = [
            r
            for r in first
            if r["name"] == "experiment" and r["attributes"].get("faults")
        ]
        assert faulted
        assert any(r["attributes"]["retries"] for r in faulted)

    def test_experiment_spans_carry_campaign_attributes(self, testbed, targets):
        records = discover_trace(testbed, targets)
        experiments = [r for r in records if r["name"] == "experiment"]
        assert experiments
        pairwise = [r for r in experiments if r["attributes"]["kind"] == "pairwise"]
        assert pairwise
        for record in pairwise:
            attrs = record["attributes"]
            a, b = attrs["site_pair"]
            assert attrs["announce_orders"] == [[a, b], [b, a]]
            assert len(attrs["experiment_ids"]) == 2
            assert record["span_id"].endswith(f"exp:{attrs['experiment_ids'][0]}")
        # Deploy spans carry retry accounting, converge spans their work.
        deploys = [r for r in records if r["name"] == "deploy"]
        assert all("attempts" in r["attributes"] for r in deploys)
        converges = [r for r in records if r["name"] == "converge"]
        assert converges
        for record in converges:
            attrs = record["attributes"]
            assert set(attrs) == {"messages", "events", "convergence_time_ms"}
            assert attrs["events"] >= attrs["messages"] > 0


# --- histograms -------------------------------------------------------------


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram("h")
        for value in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 10
        assert summary["min"] == 1.0 and summary["max"] == 10.0
        assert summary["mean"] == pytest.approx(5.5)
        assert summary["p50"] == pytest.approx(5.5)
        assert summary["p90"] == pytest.approx(9.1)
        assert Histogram("empty").summary() == {"count": 0}

    def test_snapshot_omits_empty_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("touched-but-empty")
        registry.histogram("filled").observe(3.0)
        snapshot = registry.snapshot()
        assert list(snapshot["histograms"]) == ["filled"]


# --- exporters --------------------------------------------------------------


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("campaign"):
            with tracer.span("deploy") as span:
                span.add_event("fault", fault="announcement")
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(tracer.records(), path)
        assert load_trace(path) == tracer.records()

    def test_load_trace_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError, match="corrupt trace line 1"):
            load_trace(path)
        path.write_text('{"no_span_id": true}\n')
        with pytest.raises(ReproError, match="not a span record"):
            load_trace(path)

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("experiments").increment(3)
        for value in [1.0, 2.0, 3.0, 4.0]:
            registry.histogram("rtt ms").observe(value)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE anyopt_experiments_total counter" in text
        assert "anyopt_experiments_total 3" in text
        assert "# TYPE anyopt_rtt_ms summary" in text
        assert 'anyopt_rtt_ms{quantile="0.5"} 2.5' in text
        assert "anyopt_rtt_ms_sum 10.0" in text
        assert "anyopt_rtt_ms_count 4" in text
        assert text.endswith("\n")

    def test_inspect_summary_sections(self):
        tracer = Tracer()
        with tracer.span("discover"):
            with tracer.span("rtt-matrix") as phase:
                with tracer.span(
                    "experiment",
                    key="exp:1",
                    parent=phase.span_id,
                    kind="rtt-row",
                    subject="site 3",
                    retries=2,
                    faults={"announcement": 2},
                ):
                    with tracer.span("attempt") as attempt:
                        attempt.add_event(
                            "fault", fault="announcement", experiment_id=1, attempt=0
                        )
        report = summarize_trace(tracer.records(), top=5)
        assert "phase breakdown" in report and "rtt-matrix" in report
        assert "slowest experiments" in report and "site 3" in report
        assert "retry hot spots" in report and "announcementx2" in report
        assert "fault timeline" in report and "announcement" in report

    def test_inspect_summary_empty_trace(self):
        report = summarize_trace([])
        assert "0 spans" in report
        assert "(no retries recorded)" in report
        assert "(no faults injected)" in report


# --- structured logging -----------------------------------------------------


class TestLogging:
    def make_record(self, fields):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "something happened", (), None
        )
        record.fields = fields
        return record

    def test_key_value_formatter(self):
        line = KeyValueFormatter().format(
            self.make_record({"experiment_id": 7, "fault": "announcement"})
        )
        assert 'level=info logger=repro.test msg="something happened"' in line
        assert "experiment_id=7" in line and "fault=announcement" in line

    def test_json_formatter(self):
        line = JsonFormatter().format(self.make_record({"experiment_id": 7}))
        payload = json.loads(line)
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.test"
        assert payload["msg"] == "something happened"
        assert payload["experiment_id"] == 7

    def test_configure_logging_is_idempotent(self, capsys):
        try:
            configure_logging(level="info")
            configure_logging(level="info")
            root = logging.getLogger("repro")
            assert len(root.handlers) == 1
            get_logger("test").info("visible", extra={"fields": {"k": 1}})
            assert "msg=\"visible\" k=1" in capsys.readouterr().err
            with pytest.raises(ValueError, match="unknown log level"):
                configure_logging(level="loud")
        finally:
            logging.getLogger("repro").handlers.clear()
            logging.getLogger("repro").propagate = True

    def test_fault_and_retry_paths_log(self, testbed, targets):
        stream = io.StringIO()
        try:
            configure_logging(level="info", json_output=True, stream=stream)
            anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=FAULTY)
            anyopt.discover()
        finally:
            logging.getLogger("repro").handlers.clear()
            logging.getLogger("repro").propagate = True
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        fault_logs = [e for e in events if e["logger"] == "repro.faults"]
        retry_logs = [e for e in events if e["logger"] == "repro.retry"]
        assert fault_logs and retry_logs
        assert fault_logs[0]["fault"]
        assert "attempt" in retry_logs[0]


# --- CLI --------------------------------------------------------------------


class TestCli:
    @pytest.fixture(scope="class")
    def testbed_path(self, tmp_path_factory, testbed):
        path = tmp_path_factory.mktemp("obs-cli") / "testbed.json"
        save_testbed(testbed, path)
        return str(path)

    def test_trace_and_metrics_out_flags(self, testbed_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main([
            "discover", "--testbed", testbed_path, "--seed", str(SEED),
            "--out", str(tmp_path / "model.json"),
            "--trace", str(trace), "--metrics-out", str(prom), "--stats",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"trace written to {trace}" in stdout
        assert "histogram" in stdout  # --stats renders the histogram table
        records = load_trace(trace)
        # --stats prints the phase view inspect-trace renders from the file.
        assert phase_breakdown(records) in stdout
        assert records[0]["span_id"] == "discover#0"
        assert any(r["name"] == "experiment" for r in records)
        text = prom.read_text()
        assert "# TYPE" in text and 'quantile="0.99"' in text

    def test_inspect_trace_command(self, testbed_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "discover", "--testbed", testbed_path, "--seed", str(SEED),
            "--out", str(tmp_path / "model.json"),
            "--fault-announcement", "0.15", "--trace", str(trace),
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["inspect-trace", str(trace), "--top", "3"])
        assert code == 0
        report = capsys.readouterr().out
        assert "slowest experiments (top 3)" in report
        assert "fault timeline" in report
        assert "announcement" in report

    def test_inspect_trace_missing_file(self, capsys):
        assert main(["inspect-trace", "/nonexistent/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_heartbeat_flag_and_watch_command(self, testbed_path, tmp_path, capsys):
        """--heartbeat writes a tailable JSONL file; 'anyopt watch
        --no-follow' renders it; follow mode stops at the final record."""
        heartbeat = tmp_path / "hb.jsonl"
        code = main([
            "discover", "--testbed", testbed_path, "--seed", str(SEED),
            "--out", str(tmp_path / "model.json"),
            "--heartbeat", str(heartbeat), "--heartbeat-interval", "0.2",
        ])
        assert code == 0
        capsys.readouterr()

        from repro.obs.heartbeat import load_heartbeats

        records = load_heartbeats(heartbeat)
        assert records[0]["campaign"] == "discover"
        assert records[-1]["phase"] == "discover"
        assert records[-1]["final"] is True
        assert records[-1]["experiments_done"] > 0
        assert records[-1]["experiments_total"] > 0
        # The heartbeat observes the campaign's own counters.
        events = [record["convergence_events"] for record in records]
        assert events == sorted(events) and events[-1] > 0

        assert main(["watch", str(heartbeat), "--no-follow"]) == 0
        out = capsys.readouterr().out
        assert "(final)" in out
        assert len(out.strip().splitlines()) == len(records)

        # Follow mode reaches the final record and exits on its own.
        assert main(["watch", str(heartbeat), "--poll", "0.01"]) == 0
        assert "(final)" in capsys.readouterr().out

    def test_watch_missing_file(self, capsys):
        assert main(["watch", "/nonexistent/hb.jsonl", "--no-follow"]) == 2
        assert "error:" in capsys.readouterr().err


class TestInspectFunctions:
    """Direct coverage for the obs.inspect section builders."""

    def _trace(self):
        tracer = Tracer()
        with tracer.span("discover"):
            with tracer.span("provider-matrix") as phase:
                for i, retries in enumerate((0, 3, 1)):
                    with tracer.span(
                        "experiment", key=f"exp:{i}", parent=phase.span_id,
                        kind="pairwise", subject=f"pair {i}",
                        retries=retries, faults={"convergence-timeout": retries},
                    ) as exp:
                        if retries:
                            exp.add_event(
                                "fault", fault="convergence-timeout",
                                experiment_id=i, attempt=0,
                            )
        return tracer.records()

    def test_phase_breakdown_lists_phases(self):
        from repro.obs.inspect import phase_breakdown

        text = phase_breakdown(self._trace())
        assert "provider-matrix" in text
        assert "experiments" in text  # the table header
        assert phase_breakdown([]) == "(no phase spans in trace)"

    def test_slowest_experiments_ranks_and_truncates(self):
        from repro.obs.inspect import slowest_experiments

        text = slowest_experiments(self._trace(), top=2)
        assert "wall (s)" in text  # the table header
        assert text.count("pair ") == 2  # truncated to top 2 subjects
        assert slowest_experiments([]) == "(no experiment spans in trace)"

    def test_retry_hot_spots_orders_by_retry_count(self):
        from repro.obs.inspect import retry_hot_spots

        text = retry_hot_spots(self._trace(), top=10)
        lines = [l for l in text.splitlines() if "pair" in l]
        assert "pair 1" in lines[0]  # 3 retries ranks first
        assert "convergence-timeoutx3" in text

    def test_fault_timeline_counts_events(self):
        from repro.obs.inspect import fault_timeline

        text = fault_timeline(self._trace())
        assert "convergence-timeout" in text


# --- the phase view ---------------------------------------------------------


def phase_rows(table):
    """``phase_breakdown``'s rows as (name, experiments, status)."""
    return [(cells[0], cells[2], cells[3]) for cells in map(str.split, table.splitlines()[2:])]


class TestPhaseView:
    def test_live_and_loaded_traces_render_the_same_table(self, testbed, targets, tmp_path):
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED)
        model = anyopt.discover()
        anyopt.audit(model)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(anyopt.tracer.records(), path)
        live = phase_breakdown(anyopt.tracer.records())
        assert phase_breakdown(load_trace(path)) == live
        rows = phase_rows(live)
        assert [name for name, *_ in rows] == [
            "discover", "rtt-matrix", "provider-pairwise", "site-pairwise", "audit"
        ]
        experiments = {name: int(count) for name, count, _ in rows}
        assert experiments["discover"] == model.experiments_used
        assert experiments["discover"] == sum(
            experiments[phase] for phase in ("rtt-matrix", "provider-pairwise", "site-pairwise")
        )
        assert experiments["audit"] == 0

    def test_discover_row_counts_the_experiments_that_ran_under_faults(self, testbed, targets):
        settings = CampaignSettings.noiseless(
            fault_announcement_prob=0.15,
            fault_convergence_timeout_prob=0.05,
            retry_max_attempts=2,
        )
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
        model = anyopt.discover()
        assert model.failures  # some experiments exhausted their retries
        (discover,) = [
            row for row in phase_rows(phase_breakdown(anyopt.tracer.records()))
            if row[0] == "discover"
        ]
        # experiments_used counts reserved ids, those of failed
        # experiments too; the view counts deployments that succeeded.
        failed_ids = sum(len(failure.experiment_ids) for failure in model.failures)
        assert int(discover[1]) == model.experiments_used - failed_ids
        assert int(discover[1]) == anyopt.metrics.snapshot()["counters"]["experiments"]
