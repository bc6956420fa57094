"""Ablation 1: does modeling announcement order actually matter?

Predict the same deployed configuration twice — once with the
order-aware model fed the configuration's true announcement order,
once with the order fed in backwards (an order-ignorant operator) —
and compare catchment accuracy.  This isolates the value of the
paper's S4.2 arrival-order machinery.
"""

from repro.core.config import AnycastConfig
from benchmarks.conftest import record
from repro.util.stats import mean


def test_ablation_announcement_order(benchmark, bench_anyopt, bench_model, bench_testbed, bench_targets):
    clients = [t.target_id for t in bench_targets]

    def run():
        rows = []
        for k, seed in ((6, 1), (10, 2), (14, 3)):
            from repro.baselines import random_config

            config = random_config(bench_testbed, k, seed=7000 + seed)
            deployment = bench_anyopt.deploy(config)
            measured = [deployment.forwarding(t) for t in bench_targets]
            row = [k]
            for order in (config.site_order, tuple(reversed(config.site_order))):
                # Every site is enabled, so the prediction is the head.
                valid, orders = bench_model.total_orders(clients, order)
                hits = [
                    head == outcome.site_id
                    for outcome, ok, head in zip(measured, valid.tolist(), orders[:, 0].tolist())
                    if outcome is not None and ok
                ]
                row.append(sum(hits) / len(hits))
            rows.append(tuple(row))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    record(
        "Ablation: announcement-order modeling",
        f"{'#sites':<7} {'true order':>11} {'reversed order':>15}",
    )
    for k, with_order, without in rows:
        record(
            "Ablation: announcement-order modeling",
            f"{k:<7} {100 * with_order:>10.1f}% {100 * without:>14.1f}%",
        )
    avg_with = mean([r[1] for r in rows])
    avg_without = mean([r[2] for r in rows])
    record(
        "Ablation: announcement-order modeling",
        f"feeding the model the wrong announcement order costs "
        f"{100 * (avg_with - avg_without):.1f} accuracy points",
    )

    assert avg_with > avg_without
