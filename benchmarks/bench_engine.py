"""Tracked BGP-engine benchmark: the repository's performance baseline.

Measures what the convergence engine is accountable for and writes it
to ``BENCH_engine.json`` (committed at the repo root, so regressions
show up in review diffs):

- **engine**: repeated same-topology convergence runs — runs/s,
  events per run and events/s of the engine's best batch (best-of
  keeps the figure stable on noisy single-core CI runners).
- **obs**: the same convergence workload with tracing and histograms
  enabled versus disabled — the observability tax on the engine
  (``overhead_pct``; the budget is under 10%).

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_engine.py --out BENCH_engine.json

``--quick`` shrinks every section for CI smoke runs (the CI job fails
only on errors, not on numbers — hardware varies; the committed
baseline is the reviewed artifact).
"""

import argparse
import itertools
import json
import os
import platform
import sys
import time

if __package__ in (None, ""):  # running as a script: make repro importable
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bgp.engine import BGPEngine, SiteInjection
from repro.obs.trace import Tracer
from repro.runtime.metrics import MetricsRegistry
from repro.topology import TopologyParams
from repro.topology.astopo import Relationship
from repro.topology.generator import generate_internet

SEED = 7


def _engine_workloads(internet):
    """Staggered two-site announcements over every pair of eight
    tier-2 hosts — the pairwise-experiment mix a campaign runs on one
    shared topology."""
    graph = internet.graph
    hosts = [asn for asn in graph.asns() if graph.as_of(asn).tier == 2][:8]
    return [
        [
            SiteInjection(
                host_asn=asn,
                site_id=idx,
                pop_id=None,
                link_rtt_ms=5.0,
                rel_from_host=Relationship.CUSTOMER,
                announce_time_ms=idx * 100.0,
            )
            for idx, asn in enumerate(pair)
        ]
        for pair in itertools.combinations(hosts, 2)
    ]


def _time_batch(engine, workloads, runs):
    """Seconds for ``runs`` convergences cycling through the workload
    mix (every run is a distinct configuration doing full work)."""
    t0 = time.perf_counter()
    for i in range(runs):
        engine.run(workloads[i % len(workloads)])
    return time.perf_counter() - t0


def bench_engine(quick: bool) -> dict:
    internet = generate_internet(TopologyParams(n_stub=150, n_tier2=24), seed=SEED)
    workloads = _engine_workloads(internet)
    batch = len(workloads)  # one full pass over the pair mix
    trials = 3 if quick else 10

    metrics = MetricsRegistry()
    engine = BGPEngine(internet, metrics=metrics)
    # Warm up (table build, speaker pool, allocator) outside the timings.
    _time_batch(engine, workloads, 4)
    warm = metrics.snapshot()["counters"]

    best = min(_time_batch(engine, workloads, batch) for _ in range(trials))

    # Counted over the timed batches only, each one full pass of the mix,
    # so the figure is the mix's and the same in both modes.
    counters = metrics.snapshot()["counters"]
    events_per_run = (
        (counters["convergence_events"] - warm["convergence_events"])
        / (counters["convergence_runs"] - warm["convergence_runs"])
    )
    return {
        "workload": "28 distinct 2-site pairwise configs, 174-AS shared topology",
        "batch_runs": batch,
        "trials": trials,
        "runs_per_s": round(batch / best, 1),
        "events_per_run": round(events_per_run, 1),
        "events_per_s": round(events_per_run * batch / best, 0),
    }


def bench_obs(quick: bool) -> dict:
    """Observability overhead on the engine: identical convergence
    work with the tracer + histogram registry attached versus bare."""
    internet = generate_internet(TopologyParams(n_stub=150, n_tier2=24), seed=SEED)
    workloads = _engine_workloads(internet)
    batch = len(workloads)
    trials = 3 if quick else 10

    plain = BGPEngine(internet)
    traced = BGPEngine(internet, metrics=MetricsRegistry(), tracer=Tracer())
    _time_batch(plain, workloads, 4)
    _time_batch(traced, workloads, 4)

    plain_best = traced_best = float("inf")
    for _ in range(trials):
        plain_best = min(plain_best, _time_batch(plain, workloads, batch))
        traced_best = min(traced_best, _time_batch(traced, workloads, batch))
    return {
        "plain_runs_per_s": round(batch / plain_best, 1),
        "traced_runs_per_s": round(batch / traced_best, 1),
        "overhead_pct": round(100 * (traced_best / plain_best - 1.0), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument(
        "--quick", action="store_true", help="smaller batches (CI smoke run)"
    )
    args = parser.parse_args(argv)

    engine = bench_engine(args.quick)
    print(f"engine: {engine['runs_per_s']} runs/s, "
          f"{engine['events_per_s']:.0f} events/s")

    obs = bench_obs(args.quick)
    print(f"obs: plain {obs['plain_runs_per_s']} runs/s, "
          f"traced {obs['traced_runs_per_s']} runs/s "
          f"-> {obs['overhead_pct']}% overhead")

    payload = {
        "format": "anyopt-bench-engine",
        "version": 5,
        "quick": args.quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "engine": engine,
        "obs": obs,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
