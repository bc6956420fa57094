"""Write what the preference audit reports for the paper world, as bytes.

Usage: ``PYTHONPATH=<src> python audited_bytes.py OUT``

Discovers the paper world (seed 7) three times — default settings, the
RTT heuristic for the site level, and the fault-injected settings of
``tests/test_audit.py`` (announcement faults, convergence timeouts, two
attempts per experiment) — and audits each model under the full
announcement order plus 12 seeded ones: random subsets of every size,
one provider's sites, and single sites.  Each audit is one line,
``json.dumps(report.to_dict(), sort_keys=True)``.  Two source trees
audit identically exactly when their outputs ``cmp`` equal.
"""

import argparse
import json
import random

import repro
from repro.audit import audit_model
from repro.core.twolevel import SiteLevelMode

SEED = 7
ORDERS = 12

FAULTY = repro.CampaignSettings.noiseless(
    fault_announcement_prob=0.15,
    fault_convergence_timeout_prob=0.05,
    retry_max_attempts=2,
)

CAMPAIGNS = (
    ("default", SiteLevelMode.PAIRWISE, repro.CampaignSettings()),
    ("rtt-heuristic", SiteLevelMode.RTT_HEURISTIC, repro.CampaignSettings()),
    ("faulty", SiteLevelMode.PAIRWISE, FAULTY),
)


def orders(testbed, rng):
    """The full order, then random subsets, one provider's sites and
    single sites, each shuffled."""
    sites = testbed.site_ids()
    yield tuple(sites)
    for number in range(ORDERS):
        kind = number % 4
        if kind == 1:
            provider = rng.choice(testbed.provider_asns())
            chosen = list(testbed.sites_of_provider(provider))
        elif kind == 3:
            chosen = [rng.choice(sites)]
        else:
            chosen = rng.sample(sites, rng.randint(2, len(sites)))
        rng.shuffle(chosen)
        yield tuple(chosen)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    testbed = repro.build_paper_testbed(None, seed=SEED)
    targets = repro.select_targets(testbed.internet, seed=SEED)
    with open(args.out, "w") as out:
        for label, mode, settings in CAMPAIGNS:
            anyopt = repro.AnyOpt(
                testbed, targets=targets, seed=SEED, site_level_mode=mode, settings=settings
            )
            model = anyopt.discover()
            for order in orders(testbed, random.Random(SEED)):
                report = audit_model(model, targets, announce_order=order)
                out.write(f"# {label} {order}\n")
                out.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
