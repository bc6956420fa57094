"""Catchment prediction from inferred AS topology alone (S7).

Sermpezis & Kotronis propose predicting catchments by simulating BGP
over the inferred AS-level topology.  The inferred view knows business
relationships and the graph, but *not* the operational details AnyOpt
measures: per-router interior costs, arrival-order tie-breaking,
multipath splitting, or deviant local preferences.  This predictor
simulates exactly that impoverished view: ties that a real router
breaks with hidden state are flagged as *uncertain* predictions —
which is why, as the paper notes, the fraction of certain nodes decays
quickly as sites are added.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bgp.dataplane import DataPlane
from repro.bgp.engine import BGPEngine, SiteInjection
from repro.core.config import AnycastConfig
from repro.topology.astopo import AS, ASGraph
from repro.topology.generator import Internet
from repro.topology.testbed import Testbed
from repro.topology.astopo import Relationship


@dataclass(frozen=True)
class InferencePrediction:
    """One client's inferred catchment."""

    site_id: Optional[int]
    certain: bool


def _inferred_internet(internet: Internet) -> Internet:
    """The topology as an outside observer would infer it: correct
    structure and relationships, defaults for everything hidden."""
    graph = ASGraph()
    for asn in internet.graph.asns():
        node = internet.graph.as_of(asn)
        graph.add_as(
            AS(
                asn=node.asn,
                tier=node.tier,
                location=node.location,
                name=node.name,
                multipath=False,
                policy_deviant=False,
                arrival_order_tiebreak=False,
            )
        )
    for link in internet.graph.links():
        rel = internet.graph.rel(link.a, link.b)
        graph.add_link(
            link.a,
            link.b,
            rel,
            rtt_ms=link.rtt_ms,
            prop_delay_ms=1.0,
            attach_pop=dict(link.attach_pop),
            # Interior costs are hidden state: the inferred view sees
            # every session as equally good.
            igp_cost={},
        )
    return Internet(graph, internet.pop_networks, internet.params, internet.seed)


class TopologyInferencePredictor:
    """Predicts catchments by simulating BGP over inferred topology."""

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.inferred = _inferred_internet(testbed.internet)
        self.engine = BGPEngine(self.inferred)

    def predict_all(
        self, config: AnycastConfig, client_asns=None
    ) -> Dict[int, InferencePrediction]:
        """Predict the catchment of every client AS under ``config``.

        A prediction is *certain* only when no AS along the forwarding
        path held several equally good routes — at such an AS the real
        tie-breaker (IGP cost, arrival order) is unknowable from the
        inferred topology.
        """
        injections = [
            SiteInjection(
                host_asn=self.testbed.site(site_id).provider_asn,
                site_id=site_id,
                pop_id=self.testbed.site(site_id).attach_pop,
                link_rtt_ms=self.testbed.site(site_id).access_rtt_ms,
                rel_from_host=Relationship.CUSTOMER,
                announce_time_ms=0.0,
            )
            for site_id in config.site_order
        ]
        converged = self.engine.run(injections)
        dataplane = DataPlane(self.inferred, converged)
        if client_asns is None:
            client_asns = self.inferred.graph.client_asns()
        out: Dict[int, InferencePrediction] = {}
        for asn in client_asns:
            outcome = dataplane.forward(asn, asn)
            if outcome is None:
                out[asn] = InferencePrediction(site_id=None, certain=False)
                continue
            certain = all(
                len(converged.next_hops(hop)[1]) <= 1 for hop in outcome.as_path
            )
            out[asn] = InferencePrediction(site_id=outcome.site_id, certain=certain)
        return out

    def predict(self, config: AnycastConfig, client_asn: int) -> InferencePrediction:
        """Predict one client AS (convenience wrapper)."""
        return self.predict_all(config, client_asns=[client_asn])[client_asn]
