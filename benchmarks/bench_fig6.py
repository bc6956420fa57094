"""Figure 6: RTT distribution of AnyOpt vs baseline configurations.

Deploy the AnyOpt-optimized 12-site configuration, the greedy-by-
unicast 12-site configuration, the best of three random 4-site
configurations, and all 15 sites; plot the per-target RTT CDFs.
Paper: AnyOpt's median is 43 ms vs 76 ms for 12-Greedy (a 43.4%
improvement, >=30 ms lower mean), and 15-all is worse than AnyOpt-12.
"""

from repro.baselines import all_sites_config, greedy_unicast_config, random_small_config
from benchmarks.conftest import record
from repro.util.stats import mean, median, percentile


def measured_rtts(anyopt, config):
    return [r for r in anyopt.deploy(config).measure_rtts() if r is not None]


def test_fig6_rtt_cdfs(benchmark, bench_anyopt, bench_model, bench_testbed, opt12):
    def run_all():
        out = {}
        out["AnyOpt-12"] = measured_rtts(bench_anyopt, opt12.best_config)
        out["12-Greedy"] = measured_rtts(
            bench_anyopt, greedy_unicast_config(bench_model.rtt_matrix, 12)
        )
        out["4-Random"] = min(
            (
                measured_rtts(
                    bench_anyopt, random_small_config(bench_testbed, seed=500 + i)
                )
                for i in range(3)
            ),
            key=mean,
        )
        out["15-all"] = measured_rtts(bench_anyopt, all_sites_config(bench_testbed))
        return out

    series = benchmark.pedantic(run_all, rounds=1, iterations=1)

    record(
        "Figure 6 (RTT CDF by configuration)",
        f"{'configuration':<12} {'p10':>7} {'median':>8} {'p90':>7} {'mean':>7}",
    )
    for label, rtts in series.items():
        record(
            "Figure 6 (RTT CDF by configuration)",
            f"{label:<12} {percentile(rtts, 10):>6.1f}m {median(rtts):>7.1f}m "
            f"{percentile(rtts, 90):>6.1f}m {mean(rtts):>6.1f}m",
        )
    gain = mean(series["12-Greedy"]) - mean(series["AnyOpt-12"])
    record(
        "Figure 6 (RTT CDF by configuration)",
        f"AnyOpt-12 mean RTT is {gain:.1f} ms lower than 12-Greedy "
        "(paper: 33 ms lower, median 43 vs 76 ms)",
    )

    # Shape assertions from S5.3.
    assert median(series["AnyOpt-12"]) < median(series["12-Greedy"])
    assert mean(series["AnyOpt-12"]) < mean(series["12-Greedy"])
    assert mean(series["AnyOpt-12"]) < mean(series["15-all"])
    assert mean(series["AnyOpt-12"]) < mean(series["4-Random"])
    assert gain > 5.0, "the optimization gain should be material"
