#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/pipeline/compare.py A.jsonl... -- B.jsonl...

Each file holds result lines written by ``run.py --out``.  For every
(workload, end-to-end metric) this prints each side's median and
quartiles, how much worse B's median is than A's as a share of A's
(the base of every ratio is named), the bound, and a verdict:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — a side's own runs spread (quartile distance over
  median) wider than the bound *and* the two sides' runs overlap, so
  neither "worse" nor "unchanged" can be said;
- ``ok``         — otherwise.

The bound is :data:`REVIEW_BOUNDS`, what a claim is held to.  The
``gate`` column is the looser ``bound`` of ``BENCHMARK.json``, at which
the driver rejects a change outright: it has no ``unresolved``, so it
has to clear the host's run-to-run spread (README.md, "Bounds").

Exit status 1 when any row regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Share of A's median by which B's may be worse before the row reads
#: ``regressed`` (ISSUE 13: a tenth, set-up 15 %).
REVIEW_BOUNDS = {
    "setup_s": 0.15, "op_p50_ms": 0.10, "op_cpu_ms": 0.10,
    "work_per_s": 0.10, "peak_rss_mb": 0.10,
}


def read_runs(paths):
    """``{(workload, metric): [values]}`` of the untraced, correct runs,
    plus the host calibration medians seen."""
    values = {}
    calib = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                run = json.loads(line)
                if run["trace"]:
                    continue
                if not run["correct"]:
                    raise SystemExit(f"{path}: a {run['workload']} run was not correct")
                calib.append(run["raw"]["host.calib_p50_ms"])
                for name, metric in run["metrics"].items():
                    values.setdefault((run["workload"], name), []).append(metric["value"])
    return values, calib


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), first, third


def verdict(a, b, better: str, bound: float):
    """(share of A's median by which B's is worse, spread, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    worse_by = sign * (med_b - med_a) / med_a
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return worse_by, spread, "unresolved"
    return worse_by, spread, "regressed" if worse_by > bound else "ok"


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    side_a, calib_a = read_runs(argv[:split])
    side_b, calib_b = read_runs(argv[split + 1:])
    print(f"host.calib_p50_ms  A median {statistics.median(calib_a):.3f} "
          f"(n={len(calib_a)})   B median {statistics.median(calib_b):.3f} "
          f"(n={len(calib_b)})")
    print(f"{'workload':<16}{'metric':<13}{'unit':<5}"
          f"{'A median [q1, q3] n':>38}{'B median [q1, q3] n':>38}"
          f"{'B worse by':>12}{'of A =':>11}{'bound':>7}{'gate':>6}{'spread':>8}  verdict")
    regressed = False
    for workload in manifest["workloads"]:
        for metric in manifest["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in side_a or key not in side_b:
                continue
            a, b = side_a[key], side_b[key]
            bound = REVIEW_BOUNDS.get(metric["name"], metric["bound"])
            worse_by, spread, word = verdict(a, b, metric["better"], bound)
            regressed = regressed or word == "regressed"
            cells = [
                f"{m:.3f} [{q1:.3f}, {q3:.3f}] {len(v)}"
                for v in (a, b) for m, q1, q3 in (summary(v),)
            ]
            print(f"{key[0]:<16}{key[1]:<13}{metric['unit']:<5}"
                  f"{cells[0]:>38}{cells[1]:>38}"
                  f"{worse_by:>+12.1%}{summary(a)[0]:>11.3f}"
                  f"{bound:>7.0%}{metric['bound']:>6.0%}{spread:>8.1%}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
