"""Check a run's work counts against the committed count budget.

Usage: ``python count_budget.py BUDGET RESULTS... --workloads NAME...``

``RESULTS`` are JSON-lines files of result lines, ``{"workload": ...,
"trace": 1, "metrics": {name: {"value": ...}}}``: what
``benchmarks/pipeline/run.py --trace 1 --out FILE`` appends, or what a
job that counts by itself writes in the same shape.  Every workload
named by ``--workloads`` must have a traced line, and on each of its
lines every count the budget gives that workload must equal the
budget's number, or stay at or below a ``{"max": n}`` ceiling.  Lines
of the repo benchmark's own workloads (``BENCHMARK.json``) must also
carry the budget's ``loc`` block, row for row.

A count that moves fails the check until the budget file moves with it,
in the same change, so every change of work or of code size is
declared where it is reviewed.  Prints each mismatch and exits 1.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def mismatch(name, want, metrics):
    """Why ``metrics`` breaks the budget's ``want`` for ``name``, or None."""
    got = metrics.get(name, {}).get("value")
    if got is None:
        return f"{name}: no value in the result line"
    if isinstance(want, dict):
        return None if got <= want["max"] else f"{name}: {got}, above its ceiling {want['max']}"
    return None if got == want else f"{name}: {got}, budget {want}"


def check(budget, lines, workloads, benchmarked):
    """Every problem with ``lines`` against ``budget``, as text."""
    problems = []
    traced = {}
    for line in lines:
        if line.get("trace") == 1:
            traced.setdefault(line["workload"], []).append(line["metrics"])
    for workload in workloads:
        counts = dict(budget["workloads"][workload])
        if workload in benchmarked:
            counts.update(budget["loc"])
        runs = traced.get(workload, [])
        if not runs:
            problems.append(f"{workload}: no traced result line")
        for metrics in runs:
            for name, want in sorted(counts.items()):
                problem = mismatch(name, want, metrics)
                if problem:
                    problems.append(f"{workload} {problem}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("budget")
    parser.add_argument("results", nargs="+")
    parser.add_argument("--workloads", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(args.budget, encoding="utf-8") as fh:
        budget = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmarked = {w["name"] for w in json.load(fh)["workloads"]}
    lines = []
    for path in args.results:
        with open(path, encoding="utf-8") as fh:
            lines += [json.loads(line) for line in fh if line.strip()]
    problems = check(budget, lines, args.workloads, benchmarked)
    for problem in problems:
        print(f"count budget: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} count(s) differ from {args.budget}; a change that "
              "moves a count edits the budget file with it", file=sys.stderr)
        return 1
    print(f"{', '.join(args.workloads)}: every count matches {args.budget}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
