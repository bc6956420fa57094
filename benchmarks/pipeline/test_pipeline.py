"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q

The smoke tests run every workload for one second, untraced on seed 11
and traced on seed 7, as the driver would, so the whole file takes a
few minutes.
"""

import functools
import itertools
import json
import os
import subprocess
import sys

import pytest

import compare
import layers
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


@functools.lru_cache(maxsize=None)
def run_benchmark(workload: str, seed: int, trace: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,seed", [(0, 11), (1, 7)])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_exactly_the_manifest_metrics(workload, trace, seed):
    table, result = run_benchmark(workload, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [line.split() for line in table if line.split()[:1] == [metric["name"]]]
        assert printed and printed[0][2] == metric["unit"], metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_layer_shares_point_at_the_layer_each_workload_stresses():
    share = {
        w: {k: v["value"] for k, v in run_benchmark(w, 7, 1)[1]["metrics"].items()}
        for w in ("campaign_paper", "deploy_scale", "optimize_paper")
    }
    assert share["campaign_paper"]["share.measurement_pct"] > share["campaign_paper"]["share.bgp_pct"]
    assert share["campaign_paper"]["bgp.dataplane.busy_ms"] > share["campaign_paper"]["bgp.converge.busy_ms"]
    assert share["deploy_scale"]["share.bgp_pct"] > 5 * share["deploy_scale"]["share.measurement_pct"]
    assert share["optimize_paper"]["share.splpo_pct"] > share["optimize_paper"]["share.core_pct"]
    assert share["optimize_paper"]["bgp.converge.calls"] == 0
    for metrics in share.values():
        assert metrics["bench.unattributed_pct"] <= 15
        assert metrics["bench.unresolved_wraps"] == 0


def test_traced_counts_repeat_exactly():
    first = run_benchmark("deploy_scale", 7, 1)[1]["metrics"]
    run_benchmark.cache_clear()
    second = run_benchmark("deploy_scale", 7, 1)[1]["metrics"]
    for name in first:
        if name.endswith((".calls", ".events", ".evaluations")) or name.startswith("loc."):
            assert first[name] == second[name], name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_op_lists_are_a_function_of_the_seed(workload):
    def op_list(seed):
        instance = workloads.WORKLOADS[workload](seed, scratch="")
        instance.build_world()
        return json.dumps(list(itertools.islice(instance.ops(), 120)))

    assert op_list(7) == op_list(7)
    assert op_list(7) != op_list(11)


def test_self_time_is_duration_minus_the_union_of_children():
    #  0 root 0..10 | 1 child 1..4 | 2 child 3..6 (overlaps 1) | 3 grandchild 3.5..4.5
    #  4 child 8..12 (runs past the parent: clipped to 8..10)
    tree = [
        ["root", 0.0, 10.0, None, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 0],
        ["b", 3.0, 6.0, 0, 0, 0],
        ["c", 3.5, 4.5, 2, 0, 0],
        ["d", 8.0, 12.0, 0, 0, 0],
    ]
    assert spans.self_times(tree) == [10.0 - (5.0 + 2.0), 3.0, 2.0, 1.0, 4.0]
    assert spans.covered([(1, 4), (3, 6), (8, 10)]) == 7
    ops, setup = layers.aggregate(tree)
    assert ops["root"].calls == 1 and ops["root"].self_ms == 3000.0
    assert setup == {}


def test_probe_samples_go_under_the_span_open_around_them():
    recorder = spans.SpanRecorder()
    recorder.spans = [
        ["op", 0.0, 10.0, None, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 0],
        ["b", 2.0, 3.0, 1, 0, 0],
        ["c", 5.0, 9.0, 0, 0, 0],
    ]
    recorder.add_enclosed("bench.calib", [(2.2, 2.4), (3.5, 3.8), (4.5, 4.8), (11.0, 12.0)])
    assert [span[3] for span in recorder.spans[4:]] == [2, 1, 0, None]
    assert [span[4] for span in recorder.spans[4:]] == [0, 0, 0, spans.SETUP_OP]
    assert spans.self_times(recorder.spans)[:4] == [
        pytest.approx(10.0 - 3.0 - 4.0 - 0.3), pytest.approx(3.0 - 1.0 - 0.3),
        pytest.approx(1.0 - 0.2), 4.0,
    ]


def test_a_wrap_point_that_no_longer_resolves_warns_and_reads_null():
    recorder = spans.SpanRecorder()
    unresolved = recorder.install([
        ("core.gone", "repro.core.optimizer.no_such_function", "call", None),
        ("core.total_order", "repro.core.twolevel.TwoLevelModel.total_order", "call", None),
    ])
    try:
        assert unresolved == ["core.gone"]
        assert len(recorder.warnings) == 1 and "core.gone" in recorder.warnings[0]
    finally:
        recorder.uninstall()
    metrics = layers.layer_metrics([], {}, ["core.total_order"])
    assert metrics["core.total_order.calls"] is None
    assert metrics["bgp.converge.calls"] == 0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    # lower is better, bound 10 %
    assert compare.verdict(steady, [x * 1.05 for x in steady], "lower", 0.10)[2] == "ok"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10)[2] == "regressed"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "lower", 0.10)[2] == "ok"
    # higher is better: a drop is the regression
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10)[2] == "regressed"
    # spread wider than the bound and the runs overlap: cannot say
    noisy = [80.0, 95.0, 100.0, 110.0, 125.0]
    assert compare.verdict(noisy, [x * 1.15 for x in noisy], "lower", 0.10)[2] == "unresolved"
    # wide spread but every B run is better than every A run
    assert compare.verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.10)[2] == "ok"
