"""Write the span trees of paper-world campaigns, as bytes.

Usage: ``PYTHONPATH=<src> python traced_bytes.py OUT``

Runs five campaigns on the paper world (seed 7), each with a fresh
tracer: ``discover`` with default settings; ``discover`` with the
fault-injected settings of ``tests/test_audit.py`` (announcement
faults, convergence timeouts, two attempts per experiment); on that
faulty model, ``audit`` with a three-configuration ground-truth
cross-check, then ``audit`` + ``repair``; and one-pass ``peers`` over
every peering link, sites 1, 4 and 6.  Each campaign is a ``#`` header
line, then every span record it finished, in span-id order, as
``render_record(strip_timing(record))``.  Two source trees trace
identically exactly when their outputs ``cmp`` equal.
"""

import argparse

import repro
from repro.obs.trace import render_record, strip_timing

SEED = 7

FAULTY = repro.CampaignSettings.noiseless(
    fault_announcement_prob=0.15,
    fault_convergence_timeout_prob=0.05,
    retry_max_attempts=2,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    testbed = repro.build_paper_testbed(None, seed=SEED)
    targets = repro.select_targets(testbed.internet, seed=SEED)

    def campaign(settings=None):
        return repro.AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)

    with open(args.out, "w") as out:

        def write(label, anyopt):
            out.write(f"# {label}\n")
            for record in anyopt.tracer.records():
                out.write(render_record(strip_timing(record)) + "\n")

        anyopt = campaign()
        anyopt.discover()
        write("discover", anyopt)

        anyopt = campaign(FAULTY)
        model = anyopt.discover()
        write("discover faulty", anyopt)

        anyopt = campaign(FAULTY)
        anyopt.audit(model, ground_truth_k=3, min_accuracy=0.0)
        write("audit faulty", anyopt)

        anyopt = campaign(FAULTY)
        anyopt.repair(model, report=anyopt.audit(model))  # repairs the model in place
        write("audit+repair faulty", anyopt)

        anyopt = campaign()
        anyopt.incorporate_peers(repro.AnycastConfig(site_order=(1, 4, 6)))
        write("peers", anyopt)


if __name__ == "__main__":
    main()
