#!/usr/bin/env python
"""Quickstart: predict and optimize an anycast deployment.

Builds the paper's 15-site / 6-provider testbed on a synthetic
Internet, runs AnyOpt's measurement campaign, finds the best 12-site
configuration offline, and validates the prediction by deploying it.

Run:  python examples/quickstart.py [--seed N] [--stubs N]
"""

import argparse

from repro import AnyOpt, build_paper_testbed, select_targets
from repro.topology import TestbedParams, TopologyParams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="simulation seed")
    parser.add_argument("--stubs", type=int, default=300, help="client ASes")
    args = parser.parse_args()

    print("== Building the Table 1 testbed on a synthetic Internet ==")
    params = TestbedParams(topology=TopologyParams(n_stub=args.stubs))
    testbed = build_paper_testbed(params, seed=args.seed)
    targets = select_targets(testbed.internet, seed=args.seed)
    print(f"   {len(testbed.internet.graph)} ASes, "
          f"{len(targets)} ping targets, "
          f"{len(testbed.peer_links)} peering links")

    print("\n== Measurement campaign (singleton + two-level pairwise) ==")
    anyopt = AnyOpt(testbed, targets=targets, seed=args.seed)
    model = anyopt.discover()
    print(f"   used {model.experiments_used} BGP experiments")

    order = tuple(testbed.site_ids())
    valid, _ = model.total_orders([t.target_id for t in targets], order)
    with_order = int(valid.sum())
    print(f"   {100 * with_order / len(targets):.1f}% of clients have a "
          "consistent total preference order")

    print("\n== Offline configuration search (SPLPO, 12 sites) ==")
    report = anyopt.optimize(model, sizes=[12])
    print(f"   best 12-site configuration: {report.best_config.site_order}")
    print(f"   predicted mean RTT: {report.predicted_mean_rtt:.1f} ms "
          f"({report.evaluations} configurations evaluated)")

    print("\n== Deploying and validating ==")
    evaluation = anyopt.evaluate(model, report.best_config)
    print(f"   catchment prediction accuracy: {100 * evaluation.accuracy:.1f}%")
    print(f"   predicted mean RTT {evaluation.predicted_mean_rtt:.1f} ms vs "
          f"measured {evaluation.measured_mean_rtt:.1f} ms "
          f"({100 * evaluation.rel_rtt_error:.1f}% error)")

    print("\n== Comparing against baselines ==")
    from repro.baselines import all_sites_config, greedy_unicast_config

    for label, config in (
        ("12-Greedy (lowest mean unicast RTT)", greedy_unicast_config(model.rtt_matrix, 12)),
        ("15-all (enable everything)", all_sites_config(testbed)),
    ):
        rtt = anyopt.deploy(config).measure_mean_rtt()
        print(f"   {label}: {rtt:.1f} ms")
    print(f"   AnyOpt-12: {evaluation.measured_mean_rtt:.1f} ms")


if __name__ == "__main__":
    main()
