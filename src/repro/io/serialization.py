"""JSON round-tripping for testbeds and discovered models.

Formats are versioned dicts; ``save_*`` writes them as JSON with
:func:`~repro.io.atomic.atomic_write`, ``load_*`` validates the
version and rebuilds the live objects structurally (no RNG
re-derivation), so a loaded testbed is bit-identical to the saved one
even across library versions that change generation defaults.
"""

import dataclasses
import json
from pathlib import Path
from typing import Dict

from repro.core.anyopt import AnyOptModel
from repro.core.prediction import CatchmentPredictor
from repro.core.preferences import PairObservation, PreferenceMatrix
from repro.core.twolevel import SiteLevelMode, TwoLevelModel
from repro.io.atomic import atomic_write
from repro.measurement.rtt import RttMatrix
from repro.runtime.retry import FailedExperiment
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.generator import Internet, TopologyParams
from repro.topology.geo import GeoPoint
from repro.topology.intradomain import PopNetwork
from repro.topology.testbed import PeeringLink, Site, Testbed, TestbedParams
from repro.util.errors import ReproError

FORMAT_VERSION = 1


def _point_to_list(p: GeoPoint):
    return [p.lat, p.lon, p.name]


def _point_from_list(raw) -> GeoPoint:
    return GeoPoint(raw[0], raw[1], raw[2])


# --- testbed ---------------------------------------------------------------


def testbed_to_dict(testbed: Testbed) -> Dict:
    """Serialize a testbed (graph, PoP backbones, sites, peers)."""
    graph = testbed.internet.graph
    ases = [
        {
            "asn": node.asn,
            "tier": node.tier,
            "location": _point_to_list(node.location),
            "name": node.name,
            "multipath": node.multipath,
            "policy_deviant": node.policy_deviant,
            "arrival_order_tiebreak": node.arrival_order_tiebreak,
            "deviant_prefs": {str(k): v for k, v in node.deviant_prefs.items()},
            "hosts_clients": node.hosts_clients,
        }
        for node in (graph.as_of(a) for a in graph.asns())
    ]
    links = [
        {
            "a": link.a,
            "b": link.b,
            "rel_of_b_from_a": graph.rel(link.a, link.b).value,
            "rtt_ms": link.rtt_ms,
            "prop_delay_ms": link.prop_delay_ms,
            "attach_pop": {str(k): v for k, v in link.attach_pop.items()},
            "igp_cost": {str(k): v for k, v in link.igp_cost.items()},
        }
        for link in sorted(graph.links(), key=lambda l: (l.a, l.b))
    ]
    pop_networks = {
        str(asn): {
            "pops": [_point_to_list(net.pop_location(i)) for i in range(net.pop_count)],
            "edges": net.edges(),
        }
        for asn, net in sorted(testbed.internet.pop_networks.items())
    }
    sites = [
        {
            "site_id": s.site_id,
            "city_name": s.city_name,
            "location": _point_to_list(s.location),
            "provider_name": s.provider_name,
            "provider_asn": s.provider_asn,
            "attach_pop": s.attach_pop,
            "access_rtt_ms": s.access_rtt_ms,
            "n_peers": s.n_peers,
        }
        for s in (testbed.site(i) for i in testbed.site_ids())
    ]
    peers = [
        dataclasses.asdict(testbed.peer_link(p)) for p in testbed.peer_ids()
    ]
    topo_params = dataclasses.asdict(testbed.internet.params)
    return {
        "format": "anyopt-testbed",
        "version": FORMAT_VERSION,
        "seed": testbed.internet.seed,
        "topology_params": topo_params,
        "announcement_spacing_ms": testbed.params.announcement_spacing_ms,
        "orchestrator_city": testbed.params.orchestrator_city,
        "ases": ases,
        "links": links,
        "pop_networks": pop_networks,
        "sites": sites,
        "peer_links": peers,
    }


def testbed_from_dict(raw: Dict) -> Testbed:
    """Rebuild a testbed saved by :func:`testbed_to_dict`."""
    _check(raw, "anyopt-testbed")
    graph = ASGraph()
    for node in raw["ases"]:
        graph.add_as(
            AS(
                asn=node["asn"],
                tier=node["tier"],
                location=_point_from_list(node["location"]),
                name=node["name"],
                multipath=node["multipath"],
                policy_deviant=node["policy_deviant"],
                arrival_order_tiebreak=node["arrival_order_tiebreak"],
                deviant_prefs={int(k): v for k, v in node["deviant_prefs"].items()},
                hosts_clients=node.get("hosts_clients", True),
            )
        )
    for link in raw["links"]:
        graph.add_link(
            link["a"],
            link["b"],
            Relationship(link["rel_of_b_from_a"]),
            rtt_ms=link["rtt_ms"],
            prop_delay_ms=link["prop_delay_ms"],
            attach_pop={int(k): v for k, v in link["attach_pop"].items()},
            igp_cost={int(k): v for k, v in link["igp_cost"].items()},
        )
    pop_networks = {
        int(asn): PopNetwork.from_adjacency(
            int(asn),
            [_point_from_list(p) for p in net["pops"]],
            [tuple(e) for e in net["edges"]],
        )
        for asn, net in raw["pop_networks"].items()
    }
    params = TopologyParams(**raw["topology_params"])
    internet = Internet(graph, pop_networks, params, raw["seed"])
    sites = {
        s["site_id"]: Site(
            site_id=s["site_id"],
            city_name=s["city_name"],
            location=_point_from_list(s["location"]),
            provider_name=s["provider_name"],
            provider_asn=s["provider_asn"],
            attach_pop=s["attach_pop"],
            access_rtt_ms=s["access_rtt_ms"],
            n_peers=s["n_peers"],
        )
        for s in raw["sites"]
    }
    peer_links = {p["peer_id"]: PeeringLink(**p) for p in raw["peer_links"]}
    testbed_params = TestbedParams(
        topology=params,
        announcement_spacing_ms=raw["announcement_spacing_ms"],
        orchestrator_city=raw["orchestrator_city"],
    )
    return Testbed(internet, sites, peer_links, testbed_params)


def save_testbed(testbed: Testbed, path) -> None:
    """Write a testbed to a JSON file."""
    atomic_write(path, json.dumps(testbed_to_dict(testbed)))


def load_testbed(path) -> Testbed:
    """Read a testbed from a JSON file written by :func:`save_testbed`."""
    return testbed_from_dict(json.loads(Path(path).read_text()))


# --- discovered model -------------------------------------------------------


def matrix_to_list(matrix: PreferenceMatrix):
    """Flatten a preference matrix into sorted 6-column rows:
    ``[client, site_a, site_b, winner_a_first, winner_b_first,
    undecided]``."""
    out = []
    for client in matrix.clients():
        for pair in matrix.pairs():
            a, b = sorted(pair)
            obs = matrix.observation(client, a, b)
            if obs is None:
                continue
            out.append(
                [
                    client,
                    obs.site_a,
                    obs.site_b,
                    obs.winner_a_first,
                    obs.winner_b_first,
                    obs.undecided,
                ]
            )
    return out


def matrix_from_list(raw) -> PreferenceMatrix:
    """Rebuild a matrix from :func:`matrix_to_list` rows.  The rows come
    from files: one that is not 6 columns is an error, never a guess."""
    matrix = PreferenceMatrix()
    for index, row in enumerate(raw):
        if len(row) != 6:
            raise ReproError(f"preference row {index} has {len(row)} columns, expected 6")
        client, a, b, w1, w2, undecided = row
        matrix.record(client, PairObservation(a, b, w1, w2, undecided=bool(undecided)))
    return matrix


def state_to_dict(rtt_matrix, provider_matrix, site_matrices, failures=None) -> Dict:
    """The measured state model and checkpoint documents end with: RTT
    rows, the provider matrix and the per-provider site matrices (None
    for a phase not run yet) and, for checkpoints, failed experiments."""
    doc = {
        "rtt_matrix": None if rtt_matrix is None else [
            [site, target, value] for (site, target), value in sorted(rtt_matrix.values.items())
        ],
        "provider_matrix": None if provider_matrix is None else matrix_to_list(provider_matrix),
        "site_matrices": {
            str(provider): matrix_to_list(matrix)
            for provider, matrix in sorted(site_matrices.items())
        },
    }
    if failures is not None:
        doc["failures"] = [f.to_dict() for f in failures]
    return doc


def state_from_dict(raw: Dict) -> Dict:
    """The fields :func:`state_to_dict` wrote, rebuilt, by name."""
    rows = raw["rtt_matrix"]
    state = {
        "rtt_matrix": None if rows is None else RttMatrix({(s, t): v for s, t, v in rows}),
        "provider_matrix": (
            None if raw["provider_matrix"] is None else matrix_from_list(raw["provider_matrix"])
        ),
        "site_matrices": {int(p): matrix_from_list(m) for p, m in raw["site_matrices"].items()},
    }
    if "failures" in raw:
        state["failures"] = [FailedExperiment.from_dict(f) for f in raw["failures"]]
    return state


def model_to_dict(model: AnyOptModel) -> Dict:
    """Serialize a discovered model (not the testbed it references)."""
    twolevel = model.twolevel
    return {
        "format": "anyopt-model",
        "version": FORMAT_VERSION,
        "experiments_used": model.experiments_used,
        "site_level_mode": twolevel.site_level_mode.value,
        **state_to_dict(model.rtt_matrix, twolevel.provider_matrix, twolevel.site_matrices),
    }


def model_from_dict(raw: Dict, testbed: Testbed) -> AnyOptModel:
    """Rebuild a model saved by :func:`model_to_dict` against the
    testbed it was measured on."""
    _check(raw, "anyopt-model")
    state = state_from_dict(raw)
    rtt_matrix = state["rtt_matrix"]
    twolevel = TwoLevelModel(
        testbed=testbed,
        provider_matrix=state["provider_matrix"],
        site_matrices=state["site_matrices"],
        rtt_matrix=rtt_matrix,
        site_level_mode=SiteLevelMode(raw["site_level_mode"]),
    )
    return AnyOptModel(
        testbed=testbed,
        rtt_matrix=rtt_matrix,
        twolevel=twolevel,
        predictor=CatchmentPredictor(twolevel, rtt_matrix),
        experiments_used=raw["experiments_used"],
    )


def save_model(model: AnyOptModel, path) -> None:
    """Write a discovered model to a JSON file."""
    atomic_write(path, json.dumps(model_to_dict(model)))


def load_model(path, testbed: Testbed) -> AnyOptModel:
    """Read a model from a JSON file, rebinding it to ``testbed``."""
    return model_from_dict(json.loads(Path(path).read_text()), testbed)


def _check(raw: Dict, expected_format: str) -> None:
    if raw.get("format") != expected_format:
        raise ReproError(
            f"expected a {expected_format!r} document, got {raw.get('format')!r}"
        )
    if raw.get("version") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported {expected_format} version {raw.get('version')!r}; "
            f"this library reads version {FORMAT_VERSION}"
        )
