"""Write what the offline configuration search answers, as bytes.

Usage: ``PYTHONPATH=<src> python searched_bytes.py OUT``

Solves 24 seeded random :class:`~repro.splpo.SPLPOInstance`s (1-12
facilities, the last 16; partial preference lists, float costs and
weights, some with open costs) and the paper world's instance (seed 7).
For each it writes the exhaustive result over all sizes, with
``sizes=``, within a ``max_evaluations=`` budget and with a finite
unserved penalty, the greedy, local_search and annealing results (each
also with the penalty), the sha256 of ``subset_costs()`` (costs and
scale) and a capacitated exhaustive result (at most 2000 subsets; 40
on the paper world).  For the paper world it first writes the
``choose_announcement_order`` result and, for the default (pairwise)
and RTT-heuristic models, the sha256 of ``ranking().valid`` and
``ranking().orders()`` under 13 seeded announcement orders, over every
target plus two unseen clients.  Last come three ``search_configurations``
reports on the pairwise model, each with the sha256 of its instance
(ranks, costs, weights, loads, ids): a :class:`FlatPreferenceModel`
over a pairwise sweep of 7 sites, seeded target weights, and 200
seeded ``exclude_clients``.  Costs print as ``float.hex``.
Two source trees search identically exactly when their outputs ``cmp``
equal.
"""

import argparse
import dataclasses
import hashlib
import math
import random

import numpy as np

import repro
from repro.core.optimizer import (
    build_splpo_instance,
    choose_announcement_order,
    search_configurations,
)
from repro.core.twolevel import FlatPreferenceModel, SiteLevelMode
from repro.splpo import SPLPOInstance, get_solver
from repro.splpo.model import Client

SEED = 7
INSTANCES = 24
ORDERS = 12
#: Sites the flat model's pairwise sweep covers.
FLAT_SITES = 7
#: Subsets a capacitated search scores (``SPLPOInstance.cost`` each).
CAPACITATED = 2000


def _result(result) -> str:
    return (f"{result.solver} {sorted(result.open_facilities)} {float(result.cost).hex()} "
            f"{result.evaluations}")


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def random_instance(rng: random.Random, number: int) -> SPLPOInstance:
    """Facilities, then clients with partial preference lists, float
    costs (integral on every fourth instance) and weights."""
    facilities = rng.sample(range(100), 16 if number == INSTANCES - 1 else rng.randint(1, 12))
    clients = []
    for client in range(rng.randint(1, 60)):
        preference = rng.sample(facilities, rng.randint(1, len(facilities)))
        if number % 4 == 0:
            costs = {f: float(rng.randint(1, 50)) for f in preference}
        else:
            costs = {f: rng.uniform(0.5, 300.0) for f in preference}
        clients.append(Client(client, tuple(preference), costs, weight=rng.choice([1.0, 0.5, 2.5])))
    open_costs = {f: rng.uniform(0.0, 20.0) for f in facilities} if number % 3 == 1 else None
    return SPLPOInstance(facilities, clients, open_costs=open_costs)


def searches(instance: SPLPOInstance, rng: random.Random):
    """The solver results and the subset table of one instance, lines."""
    n = len(instance.facilities)
    exhaustive = get_solver("exhaustive")
    yield _result(exhaustive(instance))
    sizes = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    yield f"sizes={sizes} " + _result(exhaustive(instance, sizes=sizes))
    budget = rng.randint(1, 2 ** n - 1)
    yield f"max_evaluations={budget} " + _result(exhaustive(instance, max_evaluations=budget))
    yield "penalty=500 " + _result(exhaustive(instance, unserved_penalty=500.0))
    for strategy in ("greedy", "local_search", "annealing"):
        yield _result(get_solver(strategy)(instance, seed=SEED))
        yield "penalty=500 " + _result(get_solver(strategy)(
            instance, seed=SEED, unserved_penalty=500.0))
    for penalty in (math.inf, 500.0):
        costs, scale = instance.subset_costs(penalty)
        yield f"subset_costs penalty={penalty} {_sha(costs)} {scale.hex()}"


def capacitated(instance: SPLPOInstance, max_evaluations=None) -> str:
    """The exhaustive result with every site capped at 60% of the load."""
    cap = 0.6 * float(instance.loads.sum())
    capped = SPLPOInstance(instance.facilities, instance.clients, instance.open_costs,
                           capacities={f: cap for f in instance.facilities})
    result = get_solver("exhaustive")(capped, max_evaluations=max_evaluations)
    return "capacitated " + _result(result)


def searched(model, rtt_matrix, targets, sites, **kwargs) -> str:
    """One exhaustive ``search_configurations`` report and the sha256
    of the instance it searched."""
    report = search_configurations(model, rtt_matrix, targets, sites=sites, seed=SEED, **kwargs)
    kept = [t for t in targets if t.target_id not in set(kwargs.get("exclude_clients", ()))]
    instance = build_splpo_instance(model, rtt_matrix, kept, sites, report.announce_order)
    return (f"{list(report.best_config.site_order)} {report.predicted_mean_rtt.hex()} "
            f"{list(report.announce_order)} {report.consistent_clients} {report.total_clients} "
            f"{report.evaluations} " + _sha(instance.ranks, instance.rank_costs, instance.weights,
                                            instance.loads, instance.ids))


def orders(testbed, rng: random.Random):
    """The full order, then random subsets, one provider's sites and
    single sites, each shuffled."""
    sites = testbed.site_ids()
    yield tuple(sites)
    for number in range(ORDERS):
        kind = number % 4
        if kind == 1:
            chosen = list(testbed.sites_of_provider(rng.choice(testbed.provider_asns())))
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
    rng = random.Random(SEED)
    with open(args.out, "w") as out:
        for number in range(INSTANCES):
            instance = random_instance(rng, number)
            out.write(f"# random {number} facilities={list(instance.facilities)}\n")
            for line in searches(instance, rng):
                out.write(line + "\n")
            out.write(capacitated(instance, max_evaluations=CAPACITATED) + "\n")

        testbed = repro.build_paper_testbed(None, seed=SEED)
        targets = repro.select_targets(testbed.internet, seed=SEED)
        asked = [t.target_id for t in targets]
        asked += [max(asked) + 1, max(asked) + 2]  # unseen clients
        for mode in (SiteLevelMode.PAIRWISE, SiteLevelMode.RTT_HEURISTIC):
            anyopt = repro.AnyOpt(testbed, targets=targets, seed=SEED, site_level_mode=mode)
            model = anyopt.discover()
            for order in orders(testbed, random.Random(SEED)):
                ranking = model.ranking(asked, order)
                out.write(f"# ranking {mode.value} {order} "
                          f"{_sha(ranking.valid, ranking.orders())}\n")
            if mode is not SiteLevelMode.PAIRWISE:
                continue
            sites = testbed.site_ids()
            order, consistent = choose_announcement_order(model.twolevel, sites, targets, seed=SEED)
            out.write(f"# paper announce_order={list(order)} consistent={consistent}\n")
            instance = build_splpo_instance(model.twolevel, model.rtt_matrix, targets, sites, order)
            for line in searches(instance, random.Random(SEED)):
                out.write(line + "\n")
            out.write(capacitated(instance, max_evaluations=40) + "\n")
            rng = random.Random(SEED)
            flat_sites = sites[:FLAT_SITES]
            flat = FlatPreferenceModel(anyopt.runner.pairwise_sweep(flat_sites))
            out.write("# flat " + searched(flat, model.rtt_matrix, targets, flat_sites) + "\n")
            weighted = [dataclasses.replace(t, weight=rng.choice([0.5, 1.0, 3.25, 7.0]))
                        for t in targets]
            out.write("# weighted " + searched(
                model.twolevel, model.rtt_matrix, weighted, sites) + "\n")
            excluded = rng.sample(asked[:-2], 200)
            out.write("# excluded " + searched(
                model.twolevel, model.rtt_matrix, targets, sites, exclude_clients=excluded) + "\n")


if __name__ == "__main__":
    main()
