"""Figure 4b: networks without a total provider-level order.

Vary the number of transit providers (3-6) and measure the fraction of
client networks whose pairwise preferences do NOT form a total order —
once with order-aware pairwise experiments, once with the naive
simultaneous announcements.  Paper: at six providers, 21.7% naive vs
10.8% order-aware; the order-aware curve stays roughly flat while the
naive one grows.
"""

import random

import numpy as np

from repro.core import ExperimentRunner
from repro.core.preferences import tournament
from repro.core.twolevel import SiteLevelMode, discover_two_level
from repro.measurement import Orchestrator
from repro.measurement.rtt import RttMatrix
from benchmarks.conftest import SEED, record
from repro.util.stats import mean


def no_order_fraction(testbed, targets, providers, ordered, seed):
    orch = Orchestrator(testbed, targets, seed=seed)
    runner = ExperimentRunner(orch)
    model = discover_two_level(
        runner,
        rtt_matrix=RttMatrix(),
        site_level_mode=SiteLevelMode.RTT_HEURISTIC,
        ordered=ordered,
        providers=providers,
    )
    clients = [t.target_id for t in targets]
    codes = model.provider_matrix.winner_codes(clients, providers)
    valid, _ = tournament(codes, range(len(providers)))
    return int(np.count_nonzero(~valid)) / len(targets)


def test_fig4b_total_order_vs_providers(benchmark, bench_testbed, bench_targets):
    providers = bench_testbed.provider_asns()
    rng = random.Random(3)

    def sweep():
        rows = {}
        for n in (3, 4, 5, 6):
            subsets = (
                [sorted(rng.sample(providers, n)) for _ in range(3)]
                if n < 6
                else [providers]
            )
            for label, ordered in (("ordered", True), ("naive", False)):
                vals = [
                    no_order_fraction(
                        bench_testbed, bench_targets, subset, ordered, SEED + i
                    )
                    for i, subset in enumerate(subsets)
                ]
                rows[(n, label)] = mean(vals)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    record(
        "Figure 4b (no total order vs #providers)",
        f"{'#providers':<11} {'order-aware':>12} {'naive':>8}",
    )
    for n in (3, 4, 5, 6):
        record(
            "Figure 4b (no total order vs #providers)",
            f"{n:<11} {100 * rows[(n, 'ordered')]:>11.1f}% "
            f"{100 * rows[(n, 'naive')]:>7.1f}%",
        )
    record(
        "Figure 4b (no total order vs #providers)",
        "paper at 6 providers: 10.8% order-aware vs 21.7% naive",
    )

    # Shape: order-awareness roughly halves the losses at full scale,
    # and the naive curve grows with provider count.
    assert rows[(6, "ordered")] < rows[(6, "naive")]
    assert rows[(6, "naive")] > rows[(3, "naive")]
    assert rows[(6, "ordered")] < 0.25
