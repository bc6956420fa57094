"""Tests for the synthetic Internet generator."""

import hashlib
import json

import pytest

from repro.io import serialization
from repro.topology.astopo import Relationship
from repro.topology.generator import (
    TIER1_BACKBONES,
    ScaleSweepParams,
    TopologyParams,
    generate_internet,
    generate_scale_internet,
)
from repro.topology.testbed import Testbed, TestbedParams, build_paper_testbed
from repro.util.errors import TopologyError


class TestParams:
    def test_defaults_valid(self):
        TopologyParams()

    def test_too_few_tier1(self):
        with pytest.raises(TopologyError):
            TopologyParams(n_tier1=1)

    def test_too_many_tier1(self):
        with pytest.raises(TopologyError):
            TopologyParams(n_tier1=len(TIER1_BACKBONES) + 1)

    def test_fraction_bounds(self):
        with pytest.raises(TopologyError):
            TopologyParams(multipath_fraction=1.5)
        with pytest.raises(TopologyError):
            TopologyParams(igp_tie_fraction=-0.1)


class TestStructure:
    @pytest.fixture(scope="class")
    def net(self):
        return generate_internet(TopologyParams(n_stub=120, n_tier2=20), seed=3)

    def test_counts(self, net):
        graph = net.graph
        assert len(graph.tier1_asns()) == 8
        assert len(graph.client_asns()) == 120
        assert len(graph) == 8 + 20 + 120

    def test_validates(self, net):
        net.graph.validate()

    def test_tier1_clique_peerings(self, net):
        t1 = net.graph.tier1_asns()
        for i, a in enumerate(t1):
            for b in t1[i + 1:]:
                assert net.graph.rel(a, b) is Relationship.PEER

    def test_every_stub_has_provider(self, net):
        for asn in net.graph.client_asns():
            assert net.graph.providers(asn)

    def test_tier1s_have_pop_networks(self, net):
        for asn in net.graph.tier1_asns():
            assert net.pop_network(asn) is not None
            assert net.pop_network(asn).pop_count >= 1

    def test_stubs_have_no_pop_networks(self, net):
        for asn in net.graph.client_asns()[:10]:
            assert net.pop_network(asn) is None

    def test_links_have_positive_latency_and_delay(self, net):
        for link in net.graph.links():
            assert link.rtt_ms > 0
            assert link.prop_delay_ms > 0

    def test_igp_costs_assigned_everywhere(self, net):
        for link in net.graph.links():
            assert link.a in link.igp_cost or net.graph.as_of(link.a).tier == 0
            assert link.igp_cost[link.a] >= 0
            assert link.igp_cost[link.b] >= 0

    def test_attach_pops_valid(self, net):
        for link in net.graph.links():
            for asn, pop in link.attach_pop.items():
                pop_net = net.pop_network(asn)
                assert pop_net is not None
                assert 0 <= pop < pop_net.pop_count

    def test_tier1_lookup_by_name(self, net):
        assert net.graph.as_of(net.tier1_by_name("Telia")).name == "Telia"
        with pytest.raises(TopologyError):
            net.tier1_by_name("NotAProvider")

    def test_behaviour_flags_only_on_non_tier1(self, net):
        for asn in net.graph.tier1_asns():
            node = net.graph.as_of(asn)
            assert not node.multipath and not node.policy_deviant


class TestDeterminism:
    def test_same_seed_same_topology(self):
        params = TopologyParams(n_stub=60, n_tier2=12)
        a = generate_internet(params, seed=9)
        b = generate_internet(params, seed=9)
        assert a.graph.asns() == b.graph.asns()
        for link_a in a.graph.links():
            link_b = b.graph.link(link_a.a, link_a.b)
            assert link_a.rtt_ms == link_b.rtt_ms
            assert link_a.prop_delay_ms == link_b.prop_delay_ms
            assert link_a.igp_cost == link_b.igp_cost

    def test_different_seed_differs(self):
        params = TopologyParams(n_stub=60, n_tier2=12)
        a = generate_internet(params, seed=1)
        b = generate_internet(params, seed=2)
        delays_a = sorted(l.prop_delay_ms for l in a.graph.links())
        delays_b = sorted(l.prop_delay_ms for l in b.graph.links())
        assert delays_a != delays_b


class TestRequiredPops:
    def test_required_cities_become_pops(self):
        params = TopologyParams(
            n_stub=30,
            n_tier2=8,
            required_tier1_pops={"Telia": ["Osaka", "Lagos"]},
        )
        net = generate_internet(params, seed=4)
        telia = net.tier1_by_name("Telia")
        pops = net.pop_network(telia)
        names = {pops.pop_location(i).name for i in range(pops.pop_count)}
        assert {"Osaka", "Lagos"} <= names

    def test_unknown_required_city_raises(self):
        params = TopologyParams(required_tier1_pops={"Telia": ["Atlantis"]})
        with pytest.raises(KeyError):
            generate_internet(params, seed=4)


class TestScaleSweep:
    """The internet-scale sweep generator feeding the delta engine's
    scale benchmarks."""

    @pytest.fixture(scope="class")
    def net(self):
        return generate_scale_internet(ScaleSweepParams(n_ases=600), seed=3)

    def test_param_validation(self):
        with pytest.raises(TopologyError):
            ScaleSweepParams(n_ases=10)
        with pytest.raises(TopologyError):
            ScaleSweepParams(waxman_alpha=1.5)
        with pytest.raises(TopologyError):
            ScaleSweepParams(single_home_bias=-0.1)

    def test_total_size_and_validity(self, net):
        assert len(net.graph) == 600
        net.graph.validate()
        net.graph.validate_tier1_clique()

    def test_mostly_aggregatable(self, net):
        """Stubs only buy transit, so the pure-stub share — what the
        delta engine can aggregate — dominates the topology."""
        tables = net.graph.tables()
        assert len(tables.stub_providers) / len(net.graph) > 0.8

    def test_deterministic(self):
        params = ScaleSweepParams(n_ases=400)
        a = generate_scale_internet(params, seed=9)
        b = generate_scale_internet(params, seed=9)
        assert a.graph.asns() == b.graph.asns()
        for link_a in a.graph.links():
            link_b = b.graph.link(link_a.a, link_a.b)
            assert link_a.prop_delay_ms == link_b.prop_delay_ms
            assert link_a.igp_cost == link_b.igp_cost

    def test_seed_changes_wiring(self):
        params = ScaleSweepParams(n_ases=400)
        a = generate_scale_internet(params, seed=1)
        b = generate_scale_internet(params, seed=2)
        pairs_a = sorted((l.a, l.b) for l in a.graph.links())
        pairs_b = sorted((l.a, l.b) for l in b.graph.links())
        assert pairs_a != pairs_b

    def test_multi_homed_stubs_exist(self, net):
        tables = net.graph.tables()
        assert any(len(ps) > 1 for ps in tables.stub_providers.values())


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


class TestGoldenWorlds:
    """The generated worlds, byte for byte, against their past: a
    generator speed-up must draw the same providers, peers and floats.
    Re-pin only in a change that means to alter the worlds, from its
    parent."""

    def test_paper_testbed(self):
        testbed = build_paper_testbed(seed=7)
        assert _digest(serialization.testbed_to_dict(testbed)) == (
            "9aff3e731e14023564fd2ccca445c1eaa36a57807f4a2946f212239bce82d1a8"
        )

    def test_deploy_scale_testbed(self):
        params = TestbedParams(topology=TopologyParams(n_stub=5300, n_tier2=120))
        testbed = build_paper_testbed(params, seed=7)
        assert len(testbed.internet.graph) == 5428
        assert _digest(serialization.testbed_to_dict(testbed)) == (
            "84394de0000d6f74b19e589209e5a778d36d85e8d134c84106680a9ea7da3b80"
        )

    def test_scale_sweep_internet(self):
        net = generate_scale_internet(ScaleSweepParams(n_ases=600), seed=3)
        doc = serialization.testbed_to_dict(Testbed(net, {}, {}, TestbedParams()))
        assert _digest({k: doc[k] for k in ("ases", "links", "pop_networks")}) == (
            "9264ec3ef918520df89ccc570299ed73d1587ca048e2bd91287911335c8c6bd6"
        )
