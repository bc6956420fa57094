#!/usr/bin/env python3
"""The repo benchmark: four pipeline workloads, end to end and by layer.

    python3 benchmarks/pipeline/run.py                      # all four, untraced
    python3 benchmarks/pipeline/run.py --trace 1            # all four, per-layer
    python3 benchmarks/pipeline/run.py --workload deploy_scale --seed 11 \\
            --seconds 25 --trace 0                          # one, as the driver runs it

Each workload runs in its own fresh process (this script re-invokes
itself per workload when none is named), single-threaded, closed loop:
one caller that waits for each reply.  The last line of a one-workload
run is the result object; README.md explains every name in it.
"""

import time

T0 = time.perf_counter()   # process start, as near as a script can see it

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
#: Snapshots and other scratch files live here (ignored by git), one
#: directory per run, removed when the run ends.  Not the system temp
#: directory: a run may read and write only inside its checkout.
SCRATCH = os.path.join(HERE, ".scratch")


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Pass:
    """One closed-loop pass over the op stream and what it measured.

    Op clocks exclude the host probe's own samples (their time is
    known exactly), op preparation and output checks.
    """

    def __init__(self):
        self.wall = []      # per op, seconds
        self.cpu = []       # per op, seconds (this process, all threads)
        self.units = 0
        self.failures = []
        self.began = self.ended = 0.0
        self.children_cpu = 0.0
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.wall)


def run_ops(workload, ops, probe, recorder, seconds=None, count=None) -> Pass:
    """Run ops until ``seconds`` have passed (finishing the op in
    flight) or exactly ``count`` ops."""
    result = Pass()
    workload.recorder = recorder
    workload.begin_pass()
    gc.collect()
    children = children_cpu()
    result.began = time.perf_counter()
    while True:
        op = next(ops)
        prepared = workload.prepare(op)
        span = None
        if recorder is not None:
            recorder.op = result.attempted
            span = recorder.open("bench.op")
        probe_busy = probe.busy_s
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            outcome = workload.do(prepared)
            error = None
        except Exception:   # the op failed; the benchmark goes on and reports it
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        probe_busy = probe.busy_s - probe_busy
        if span is not None:
            recorder.close(span)
        if error is None:
            try:
                result.units += workload.check(op, outcome)
            except Exception as exc:   # a wrong output is a failed op too
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            result.failures.append(error)
        result.wall.append(end - start - probe_busy)
        result.cpu.append(cpu - probe_busy)
        if result.attempted <= workload.rss_ops:
            # The high-water mark once a fixed number of ops is done: read
            # at exit it would grow with however many ops the host's
            # speed let the run fit (the program's tracers keep every span).
            result.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if count is not None:
            if result.attempted >= count:
                break
        elif end - result.began >= seconds:
            break
    result.ended = time.perf_counter()
    result.children_cpu = children_cpu() - children
    return result


def run_one(args, manifest) -> int:
    from hostprobe import HostProbe

    probe = HostProbe()
    probe.start()
    # Importing the program is part of set-up.  It is imported from the
    # checkout's src/, never from an installed copy.
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
        import workloads
        if not os.path.abspath(repro.__file__).startswith(source + os.sep):
            raise ImportError(f"repro is {repro.__file__}")
    except ImportError as exc:
        probe.stop()
        print(f"error: cannot import the program from {source}: {exc}",
              file=sys.stderr)
        return 2

    recorder = None
    unresolved = []
    if args.trace:
        from spans import SpanRecorder
        from wrap_points import WRAP_POINTS

        recorder = SpanRecorder()
        unresolved = recorder.install(WRAP_POINTS)

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    post_clock = note = None
    try:
        workload.setup()
        ready = time.perf_counter()
        setup_busy = probe.busy_s
        ops = workload.ops()
        if args.trace:
            timed = run_ops(workload, ops, probe, recorder, count=workload.trace_ops)
            extras = workload.extras()
            recorder.uninstall()
            # Probe time is no layer's self time.
            recorder.add_enclosed("bench.calib", probe.samples(T0, timed.ended))
        else:
            timed = run_ops(workload, ops, probe, None, seconds=args.seconds)
        try:
            note = workload.finish()
        except Exception as exc:
            post_clock = f"{type(exc).__name__}: {exc}"
    finally:
        probe.stop()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass   # another run's directory is still in it

    failures = list(timed.failures)
    if post_clock is not None:
        failures.append(f"after the clock stopped: {post_clock}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{timed.attempted} ops attempted, {len(failures)} failed  "
          f"(work unit: {workload.work_unit})")
    if not args.trace:
        wanted = manifest["end_to_end"]
        values, raw = end_to_end(probe, ready - T0 - setup_busy, ready, timed)
        print(f"  times are at reference host speed: raw times divided by the host's "
              f"slowdown, {raw['host.slowdown']:.2f}x in the timed phase, "
              f"{raw['host.setup_slowdown']:.2f}x in set-up")
        for metric in wanted:
            name = metric["name"]
            beside = f"   (raw {raw[name]:.4f})" if name in raw else ""
            count = f"   n={timed.attempted} ops" if name.startswith("op_") else ""
            print(f"  {name:<14}{values[name]:>14.4f} {metric['unit']:<6}{count}{beside}")
    else:
        wanted = manifest["per_layer"]
        values = per_layer(probe, recorder, unresolved, extras, timed)
        raw = {"samples": timed.attempted, "spans": len(recorder.spans)}
        for line in recorder.warnings:
            print(line)
            print(line, file=sys.stderr)
        for metric in wanted:
            value = values.get(metric["name"], 0)
            shown = "null" if value is None else f"{value:.4f}"
            print(f"  {metric['name']:<36}{shown:>16} {metric['unit']}")
        if args.out:
            recorder.write_jsonl(f"{args.out}.{args.workload}.spans.jsonl")
    if note:
        print(f"  after the clock stopped: {note}")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")

    result = {
        "correct": not failures,
        "attempted": timed.attempted,
        "failed": len(failures),
        # A metric this workload's spans never feed reads 0; so does one
        # whose wrap point no longer resolves (bench.unresolved_wraps
        # counts those, the table above prints them as null).
        "metrics": {
            m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
            for m in wanted
        },
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "raw": raw, **result,
            }) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(probe, setup_raw: float, ready: float, timed: Pass):
    """The gate's metrics, at reference host speed, and the raw
    numbers they were made from."""
    slow = probe.slowdown(timed.began, timed.ended)
    setup_slow = probe.slowdown(T0, ready)
    p50 = statistics.median(timed.wall) * 1000.0
    cpu = (sum(timed.cpu) + timed.children_cpu) / timed.attempted * 1000.0
    rate = timed.units / sum(timed.wall)
    values = {
        "setup_s": setup_raw / setup_slow,
        "op_p50_ms": p50 / slow,
        "op_cpu_ms": cpu / slow,
        "work_per_s": rate * slow,
        "peak_rss_mb": timed.peak_rss_mb,
    }
    raw = {
        "setup_s": setup_raw, "op_p50_ms": p50, "op_cpu_ms": cpu, "work_per_s": rate,
        "host.calib_p50_ms": probe.median_ms(timed.began, timed.ended),
        "host.slowdown": slow, "host.setup_slowdown": setup_slow,
        "samples": timed.attempted, "timed_s": timed.ended - timed.began,
    }
    return values, raw


def per_layer(probe, recorder, unresolved, extras, traced: Pass):
    from layers import count_loc, layer_metrics
    from spans import SETUP_OP, span_cost_s

    values = layer_metrics(recorder.spans, extras, unresolved)
    # What the spans themselves cost: their number times the price of
    # one, measured now on a no-op.  (Repeating the pass untraced and
    # comparing medians reads +-10 % on this host whatever the truth.)
    in_ops = sum(1 for span in recorder.spans if span[4] != SETUP_OP)
    values["bench.trace_overhead_pct"] = (
        100.0 * in_ops * span_cost_s() / sum(traced.wall)
    )
    values["bench.unresolved_wraps"] = len(unresolved)
    values["host.calib_p50_ms"] = probe.median_ms(traced.began, traced.ended)
    values["host.slowdown"] = probe.slowdown(traced.began, traced.ended)
    values["host.cpus"] = os.cpu_count()
    values.update(count_loc(os.path.join(ROOT, "src", "repro")))
    return values


def run_all(args, manifest) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for workload in manifest["workloads"]:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", os.path.abspath(args.out)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if lines and lines[-1].startswith('{"correct"'):
            lines.pop()   # the driver's result object; the table says the same
        print("\n".join(lines))
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this one in this process (default: all, "
                             "each in a fresh process)")
    parser.add_argument("--seed", type=int, default=7,
                        help="generates the op list (default 7)")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="length of the timed phase; the op in flight finishes")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: one fixed pass with spans, prints per-layer metrics")
    parser.add_argument("--out", help="append one JSON result line per workload "
                                      "here; a traced run also writes its spans "
                                      "to <this>.<workload>.spans.jsonl")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, manifest)
    return run_one(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
