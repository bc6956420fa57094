"""Runtime bench: the convergence cache.

Redeploys one configuration under noise-free settings to show the
convergence cache absorbing the repeat, and reports the cold and
cached deploy times plus the campaign's counters as JSON.
"""

import json
import time

from repro import AnyOpt, AnycastConfig, CampaignSettings
from benchmarks.conftest import SEED, record


def test_convergence_cache_absorbs_redeploys(benchmark, bench_testbed, bench_targets):
    def run():
        anyopt = AnyOpt(
            bench_testbed,
            targets=bench_targets,
            seed=SEED,
            settings=CampaignSettings.noiseless(),
        )
        config = AnycastConfig(site_order=tuple(bench_testbed.site_ids()[:6]))

        t0 = time.perf_counter()
        anyopt.deploy(config)
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        anyopt.deploy(config)
        warm_s = time.perf_counter() - t0
        return anyopt, cold_s, warm_s

    anyopt, cold_s, warm_s = benchmark.pedantic(run, rounds=1, iterations=1)
    cache = anyopt.orchestrator.convergence_cache

    assert cache.hits == 1
    assert cache.misses == 1

    metrics_json = json.dumps(
        {
            "cold_deploy_seconds": round(cold_s, 4),
            "cached_deploy_seconds": round(warm_s, 4),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "counters": anyopt.metrics.snapshot()["counters"],
        },
        sort_keys=True,
    )
    record(
        "Convergence cache (runtime bench)",
        f"cold deploy   : {cold_s * 1000:7.1f}ms",
        f"cached deploy : {warm_s * 1000:7.1f}ms",
        f"metrics: {metrics_json}",
    )
