"""Figure 4c: networks with a total site-level order vs #sites.

Compare the naive approach (flat simultaneous pairwise sweeps over all
sites) with AnyOpt's order-aware two-level discovery as the anycast
network grows from 6 to 15 sites.  Paper: at 15 sites only 15.3% of
networks keep a total order under the naive approach, versus 88.9%
with announcement-order modeling and two-level discovery.
"""

from repro.core import ExperimentRunner
from repro.core.twolevel import FlatPreferenceModel
from repro.measurement import Orchestrator
from benchmarks.conftest import SEED, record

SITE_STEPS = (6, 9, 12, 15)


def test_fig4c_total_order_vs_sites(
    benchmark, bench_testbed, bench_targets, bench_model
):
    def ordered_share(model, subset):
        """The share of targets with a total order over ``subset``."""
        valid, _ = model.total_orders([t.target_id for t in bench_targets], subset)
        return int(valid.sum()) / len(bench_targets)

    def naive_fractions():
        orch = Orchestrator(bench_testbed, bench_targets, seed=SEED + 50)
        runner = ExperimentRunner(orch)
        flat = FlatPreferenceModel(
            runner.pairwise_sweep(bench_testbed.site_ids(), ordered=False)
        )
        sites = tuple(bench_testbed.site_ids())
        return {n: ordered_share(flat, sites[:n]) for n in SITE_STEPS}

    naive = benchmark.pedantic(naive_fractions, rounds=1, iterations=1)

    sites = tuple(bench_testbed.site_ids())
    twolevel = {n: ordered_share(bench_model, sites[:n]) for n in SITE_STEPS}

    record(
        "Figure 4c (total order vs #sites)",
        f"{'#sites':<7} {'two-level+order':>16} {'naive':>8}",
    )
    for n in SITE_STEPS:
        record(
            "Figure 4c (total order vs #sites)",
            f"{n:<7} {100 * twolevel[n]:>15.1f}% {100 * naive[n]:>7.1f}%",
        )
    record(
        "Figure 4c (total order vs #sites)",
        "paper at 15 sites: 88.9% two-level+order vs 15.3% naive",
    )

    # Shape: the naive curve collapses as sites are added, the
    # order-aware two-level curve stays high.
    assert naive[15] < naive[6]
    assert twolevel[15] > naive[15]
    assert twolevel[15] > 0.75
