"""Write what seeded deploy-scale convergence runs converge to, as bytes.

Usage: ``PYTHONPATH=<src> python converged_bytes.py OUT``

Builds the 5.4k-AS testbed of the ``deploy_scale`` benchmark workload
(``n_stub=5300, n_tier2=120``, world seed 7) and converges 60 seeded
runs: 2–3-site announcement orders deployed by an ``Orchestrator``
(delay jitter and interior-cost churn per experiment), plus three ``BGPEngine.run`` calls with jitter — one poisoning a
transit AS that carries the route, one withdrawing a site, one with an
injection hosted at a pure stub.  For each run it writes
``convergence_time_ms`` as ``float.hex`` and ``message_count``, every
AS's ``next_hops``, and then, reading every AS's state through the
``states`` mapping, each routed AS's multipath learned-froms, Adj-RIB-In
(learned-from, AS path, arrival time as ``float.hex``, interior cost)
and ``advertised_to`` (each advertised path with its neighbours).  Two
source trees converge identically exactly when their outputs ``cmp``
equal.
"""

import argparse
import random

import repro
from repro import TestbedParams, TopologyParams
from repro.bgp.engine import SiteInjection, SiteWithdrawal
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator
from repro.topology.astopo import Relationship

SEED = 7
DEPLOYMENTS = 57
JITTER_MS = 5.0


def _write(out, label, converged, asns):
    out.write(f"# {label}\n")
    out.write(f"{converged.convergence_time_ms.hex()} {converged.message_count}\n")
    for asn in asns:
        out.write(f"{asn} {converged.next_hops(asn)}\n")
    states = converged.states
    for asn in asns:
        state = states[asn]
        if not state.adj_rib_in and not state.advertised_to:
            continue
        multipath = [route.learned_from for route in state.multipath]
        out.write(f"{asn} multipath {multipath}\n")
        for neighbor, route in sorted(state.adj_rib_in.items()):
            out.write(
                f"{asn} {neighbor} {route.learned_from} {route.as_path} "
                f"{route.arrival_time.hex()} {route.interior_cost}\n"
            )
        advertised = {}
        for neighbor, route in sorted(state.advertised_to.items()):
            advertised.setdefault(route.as_path, []).append(neighbor)
        for path, neighbors in sorted(advertised.items()):
            out.write(f"{asn} advertised {path} {neighbors}\n")


def _injection(testbed, site_id, t=0.0, poison=()):
    site = testbed.site(site_id)
    return SiteInjection(
        host_asn=site.provider_asn,
        site_id=site_id,
        pop_id=site.attach_pop,
        link_rtt_ms=site.access_rtt_ms,
        rel_from_host=Relationship.CUSTOMER,
        announce_time_ms=t,
        poison=tuple(poison),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    params = TestbedParams(topology=TopologyParams(n_stub=5300, n_tier2=120))
    testbed = repro.build_paper_testbed(params, seed=SEED)
    targets = repro.select_targets(testbed.internet, seed=SEED)
    graph = testbed.internet.graph
    asns = sorted(graph.asns())
    orchestrator = Orchestrator(testbed, targets, seed=SEED)
    rng = random.Random(SEED)
    sites = testbed.site_ids()
    spacing = testbed.params.announcement_spacing_ms
    with open(args.out, "w") as out:
        for number in range(DEPLOYMENTS):
            order = tuple(rng.sample(sites, rng.randint(2, 3)))
            config = AnycastConfig(site_order=order, spacing_ms=rng.choice((0.0, spacing)))
            _write(out, f"{number} {config}", orchestrator.deploy(config).converged, asns)

        engine = orchestrator.engine
        first, second = rng.sample(sites, 2)
        plain = engine.run([_injection(testbed, first)])
        carrier = next(
            asn for asn in asns
            if graph.as_of(asn).tier == 2 and plain.states[asn].best is not None
        )
        stub = sorted(graph.tables().stub_providers)[rng.randrange(100)]
        runs = {
            f"poisoned {carrier}": ([_injection(testbed, first, poison=(carrier,))], ()),
            f"withdrawn {second}": (
                [_injection(testbed, first), _injection(testbed, second, t=spacing)],
                [SiteWithdrawal(testbed.site(second).provider_asn, second, 2 * spacing)],
            ),
            f"stub host {stub}": (
                [
                    _injection(testbed, first),
                    SiteInjection(stub, 99, None, 2.0, Relationship.PEER, spacing),
                ],
                (),
            ),
        }
        for nonce, (label, (injections, withdrawals)) in enumerate(runs.items()):
            converged = engine.run(
                injections, delay_jitter_ms=JITTER_MS, delay_nonce=1000 + nonce,
                withdrawals=withdrawals,
            )
            _write(out, label, converged, asns)


if __name__ == "__main__":
    main()
