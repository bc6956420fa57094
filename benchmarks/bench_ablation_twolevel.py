"""Ablation 2: two-level discovery vs flat all-pairs discovery.

The two-level split (S4.3) cuts the pairwise budget from O(|S|^2) to
O(|I|^2) + O(avgSite^2 * |I|).  Compare the experiment counts and the
resulting catchment accuracy of both approaches on the testbed.
"""

from repro.baselines import random_config
from repro.core import ExperimentRunner
from repro.core.twolevel import FlatPreferenceModel
from repro.measurement import Orchestrator
from benchmarks.conftest import SEED, record
from repro.util.stats import mean


def test_ablation_two_level_vs_flat(benchmark, bench_anyopt, bench_model, bench_testbed, bench_targets):
    def flat_discovery():
        orch = Orchestrator(bench_testbed, bench_targets, seed=SEED + 90)
        runner = ExperimentRunner(orch)
        matrix = runner.pairwise_sweep(bench_testbed.site_ids(), ordered=True)
        return FlatPreferenceModel(matrix), orch.experiment_count

    flat_model, flat_experiments = benchmark.pedantic(
        flat_discovery, rounds=1, iterations=1
    )

    clients = [t.target_id for t in bench_targets]
    accs = {"two-level": [], "flat": []}
    for i in range(3):
        config = random_config(bench_testbed, 9 + i, seed=9000 + i)
        deployment = bench_anyopt.deploy(config)
        measured = [deployment.forwarding(t) for t in bench_targets]
        for label, model in (("two-level", bench_model), ("flat", flat_model)):
            # Every site is enabled, so the prediction is the head.
            valid, orders = model.total_orders(clients, config.site_order)
            accs[label] += [
                head == outcome.site_id
                for outcome, ok, head in zip(measured, valid.tolist(), orders[:, 0].tolist())
                if outcome is not None and ok
            ]

    two_level_experiments = bench_model.experiments_used - 15  # minus singletons
    record(
        "Ablation: two-level vs flat discovery (S4.3)",
        f"{'approach':<10} {'pairwise experiments':>21} {'accuracy':>9}",
        f"{'two-level':<10} {two_level_experiments:>21} "
        f"{100 * mean(accs['two-level']):>8.1f}%",
        f"{'flat':<10} {flat_experiments:>21} "
        f"{100 * mean(accs['flat']):>8.1f}%",
        "two-level needs O(|I|^2)+O(avgSite^2*|I|) experiments instead "
        "of O(|S|^2) at equivalent accuracy",
    )

    assert two_level_experiments < flat_experiments
    assert mean(accs["two-level"]) > mean(accs["flat"]) - 0.03
