"""Write what a probed paper-world deployment answers, as bytes.

Usage: ``PYTHONPATH=<src> python probed_bytes.py OUT``

Builds the paper world (seed 7) and deploys 24 seeded configurations of
1–8 sites, some with prepends and some with peer links, then 8 more from
a second orchestrator under heavy session churn (half the ASes churned
per experiment, so many multi-provider stubs decide over churned
interior costs).  For each it writes the ``CatchmentMap`` site column,
the ``measure_rtts()`` row with every RTT as ``float.hex``, and
``forwarding(t)`` (site, AS path, ingress PoP, RTT as ``float.hex``) for
200 targets: every target of a multipath AS — where flows may be hashed
— and a seeded sample of the rest.  Two source trees probe identically
exactly when their outputs ``cmp`` equal.
"""

import argparse
import random

import repro
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator

SEED = 7
DEPLOYMENTS = 24
CHURNED = 8
FORWARDED = 200


def _hex(value):
    return "None" if value is None else float(value).hex()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    testbed = repro.build_paper_testbed(None, seed=SEED)
    targets = repro.select_targets(testbed.internet, seed=SEED)
    graph = testbed.internet.graph
    rng = random.Random(SEED)
    everyone = list(targets)
    hashing = [t for t in everyone if graph.as_of(t.asn).multipath][:FORWARDED // 2]
    rest = [t for t in everyone if not graph.as_of(t.asn).multipath]
    forwarded = hashing + rng.sample(rest, FORWARDED - len(hashing))
    orchestrator = Orchestrator(testbed, targets, seed=SEED)
    churning = Orchestrator(
        testbed, targets, seed=SEED, settings=repro.CampaignSettings(session_churn_prob=0.5)
    )
    sites, peers = testbed.site_ids(), testbed.peer_ids()
    with open(args.out, "w") as out:
        for number in range(DEPLOYMENTS + CHURNED):
            order = tuple(rng.sample(sites, rng.randint(1, 8)))
            prepends = tuple((site, rng.randint(1, 3)) for site in order if rng.random() < 0.2)
            peer_ids = tuple(sorted(rng.sample(peers, rng.randint(1, 6)))) if number % 3 == 2 else ()
            config = AnycastConfig(site_order=order, peer_ids=peer_ids, prepends=prepends)
            deployment = (orchestrator if number < DEPLOYMENTS else churning).deploy(config)
            out.write(f"# {number} {config}\n")
            catchments = deployment.measure_catchments()
            out.write(" ".join(str(catchments.mapping[t.target_id]) for t in everyone) + "\n")
            out.write(" ".join(map(_hex, deployment.measure_rtts())) + "\n")
            for target in forwarded:
                outcome = deployment.forwarding(target)
                if outcome is None:
                    out.write(f"{target.target_id} None\n")
                else:
                    out.write(
                        f"{target.target_id} {outcome.site_id} {outcome.as_path} "
                        f"{outcome.ingress_pop} {_hex(outcome.rtt_ms)}\n"
                    )


if __name__ == "__main__":
    main()
