"""Figure 7c: AnyOpt vs AnyOpt+BenefitPeers vs AnyOpt+AllPeers.

Paper: one-pass beneficial peers reduce the mean RTT from 68 ms to
63 ms; enabling all peers gives 61 ms — peering helps, but modestly.
"""

from benchmarks.conftest import record
from repro.util.stats import mean, median, percentile


def test_fig7c_peer_configurations(benchmark, bench_anyopt, one_pass_report, bench_testbed):
    base = one_pass_report.base_config

    def run_all():
        series = {}
        for label, config in (
            ("AnyOpt", base),
            ("AnyOpt+BenefitPeers", one_pass_report.final_config),
            ("AnyOpt+AllPeers", base.with_peers(tuple(bench_testbed.peer_ids()))),
        ):
            series[label] = [
                r for r in bench_anyopt.deploy(config).measure_rtts() if r is not None
            ]
        return series

    series = benchmark.pedantic(run_all, rounds=1, iterations=1)

    record(
        "Figure 7c (peering configurations)",
        f"{'configuration':<21} {'median':>8} {'mean':>7} {'p90':>7}",
    )
    for label, rtts in series.items():
        record(
            "Figure 7c (peering configurations)",
            f"{label:<21} {median(rtts):>7.1f}m {mean(rtts):>6.1f}m "
            f"{percentile(rtts, 90):>6.1f}m",
        )
    record(
        "Figure 7c (peering configurations)",
        "paper: 68 ms -> 63 ms (BenefitPeers) -> 61 ms (AllPeers)",
    )

    base_mean = mean(series["AnyOpt"])
    benefit_mean = mean(series["AnyOpt+BenefitPeers"])
    all_mean = mean(series["AnyOpt+AllPeers"])
    # Shape: peers help somewhat; the one-pass selection captures most
    # of the available gain without enabling everything.
    assert benefit_mean <= base_mean + 1.0
    assert all_mean <= base_mean + 1.0
    assert abs(benefit_mean - all_mean) < 0.25 * base_mean
