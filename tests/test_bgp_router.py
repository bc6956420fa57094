"""Unit tests for the BGP speaker state machine."""


from repro.bgp.messages import SitePop
from repro.bgp.router import BGPSpeaker
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.geo import city

PREFIX = "192.0.2.0/24"
ORIGIN = 65000


def build_graph():
    """1 (tier-2) with customer 2 (stub), peer 3, provider 4 (tier-1).

    A second tier-1 (5) peers with 4 so validation-style structure is
    plausible; links carry distinct interior costs at AS 1.
    """
    g = ASGraph()
    g.add_as(AS(asn=1, tier=2, location=city("London")))
    g.add_as(AS(asn=2, tier=3, location=city("Paris")))
    g.add_as(AS(asn=3, tier=2, location=city("Oslo")))
    g.add_as(AS(asn=4, tier=1, location=city("Madrid")))
    g.add_as(AS(asn=5, tier=1, location=city("Milan")))
    g.add_link(1, 2, Relationship.CUSTOMER, igp_cost={1: 1, 2: 1})
    g.add_link(1, 3, Relationship.PEER, igp_cost={1: 2, 3: 1})
    g.add_link(1, 4, Relationship.PROVIDER, igp_cost={1: 3, 4: 1})
    g.add_link(4, 5, Relationship.PEER, igp_cost={4: 1, 5: 1})
    return g


def speaker(graph, asn=1, overlay=None):
    return BGPSpeaker(graph.as_of(asn), PREFIX, graph.tables(), igp_overlay=overlay)


class TestLoopPrevention:
    def test_own_asn_in_path_dropped(self):
        sp = speaker(build_graph())
        out = sp.receive_announcement(4, (4, 1, ORIGIN), med=0, now=1.0)
        assert out == []
        assert not sp.state.has_route()


class TestImport:
    def test_first_route_installed_and_exported(self):
        sp = speaker(build_graph())
        out = sp.receive_announcement(4, (4, ORIGIN), med=0, now=1.0)
        assert sp.state.best.as_path == (4, ORIGIN)
        # Provider route: export to customer 2 only.
        assert [u.neighbor for u in out] == [2]
        assert out[0].as_path == (1, 4, ORIGIN)

    def test_customer_route_exported_widely(self):
        sp = speaker(build_graph())
        out = sp.receive_announcement(2, (2, ORIGIN), med=0, now=1.0)
        assert sorted(u.neighbor for u in out) == [3, 4]

    def test_duplicate_refresh_is_noop(self):
        sp = speaker(build_graph())
        sp.receive_announcement(4, (4, ORIGIN), med=0, now=1.0)
        age = sp.state.adj_rib_in[4].arrival_time
        out = sp.receive_announcement(4, (4, ORIGIN), med=0, now=50.0)
        assert out == []
        assert sp.state.adj_rib_in[4].arrival_time == age

    def test_local_pref_from_relationship(self):
        sp = speaker(build_graph())
        sp.receive_announcement(3, (3, ORIGIN), med=0, now=1.0)
        sp.receive_announcement(4, (4, ORIGIN), med=0, now=2.0)
        # Peer (200) beats provider (100).
        assert sp.state.best.learned_from == 3

    def test_interior_cost_from_link(self):
        sp = speaker(build_graph())
        sp.receive_announcement(4, (4, ORIGIN), med=0, now=1.0)
        assert sp.state.adj_rib_in[4].interior_cost == 3

    def test_igp_overlay_overrides_link_cost(self):
        sp = speaker(build_graph(), overlay={(1, 4): 77})
        sp.receive_announcement(4, (4, ORIGIN), med=0, now=1.0)
        assert sp.state.adj_rib_in[4].interior_cost == 77


class TestExportSetChanges:
    def test_upgrade_to_customer_route_announces_more(self):
        sp = speaker(build_graph())
        sp.receive_announcement(4, (4, ORIGIN), med=0, now=1.0)
        out = sp.receive_announcement(2, (2, ORIGIN), med=0, now=2.0)
        # Customer route now best: newly exported to 3 and 4.
        assert sorted(u.neighbor for u in out if u.as_path) == [3, 4]

    def test_downgrade_withdraws_from_stale_neighbors(self):
        sp = speaker(build_graph())
        sp.receive_announcement(2, (2, ORIGIN), med=0, now=1.0)
        out = sp.receive_withdrawal(2)
        # No route left: withdraw from everyone previously advertised.
        withdrawals = [u.neighbor for u in out if u.as_path is None]
        assert sorted(withdrawals) == [3, 4]

    def test_switch_to_peer_route_after_customer_withdrawal(self):
        sp = speaker(build_graph())
        sp.receive_announcement(2, (2, ORIGIN), med=0, now=1.0)
        sp.receive_announcement(3, (3, ORIGIN), med=0, now=2.0)
        out = sp.receive_withdrawal(2)
        # Peer route becomes best: announce to customer 2, withdraw
        # from 3 (it now supplies the route) and 4 (peer routes do not
        # go to providers).
        announced = {u.neighbor for u in out if u.as_path is not None}
        withdrawn = {u.neighbor for u in out if u.as_path is None}
        assert announced == {2}
        assert withdrawn == {3, 4}

    def test_no_reexport_on_immaterial_change(self):
        sp = speaker(build_graph())
        sp.receive_announcement(2, (2, ORIGIN), med=0, now=1.0)
        # A worse (peer < customer local-pref) route appearing does
        # not change the best, so nothing is re-exported.
        out = sp.receive_announcement(3, (3, ORIGIN), med=0, now=2.0)
        assert out == []


class TestInjection:
    def test_injection_installs_customer_route(self):
        g = build_graph()
        sp = speaker(g, asn=4)
        out = sp.inject(ORIGIN, Relationship.CUSTOMER, SitePop(1, 0, 0.5), now=0.0)
        assert sp.state.best.is_injected()
        assert sp.state.best.as_path == (ORIGIN,)
        # Tier-1 4 exports a customer route to everyone: 1 and 5.
        assert sorted(u.neighbor for u in out) == [1, 5]

    def test_merged_injections_keep_earliest_arrival(self):
        g = build_graph()
        sp = speaker(g, asn=4)
        sp.inject(ORIGIN, Relationship.CUSTOMER, SitePop(1, 0, 0.5), now=5.0)
        out = sp.inject(ORIGIN, Relationship.CUSTOMER, SitePop(2, 1, 0.7), now=9.0)
        best = sp.state.best
        assert best.arrival_time == 5.0
        assert {sp.site_id for sp in best.site_pops} == {1, 2}
        # Merging sites does not change the AS-level route: no exports.
        assert out == []

    def test_withdraw_one_site_keeps_route(self):
        g = build_graph()
        sp = speaker(g, asn=4)
        sp.inject(ORIGIN, Relationship.CUSTOMER, SitePop(1, 0, 0.5), now=0.0)
        sp.inject(ORIGIN, Relationship.CUSTOMER, SitePop(2, 1, 0.7), now=1.0)
        out = sp.withdraw_injection(ORIGIN, site_id=1)
        assert out == []
        assert {s.site_id for s in sp.state.best.site_pops} == {2}

    def test_withdraw_last_site_drops_route(self):
        g = build_graph()
        sp = speaker(g, asn=4)
        sp.inject(ORIGIN, Relationship.CUSTOMER, SitePop(1, 0, 0.5), now=0.0)
        out = sp.withdraw_injection(ORIGIN, site_id=1)
        assert not sp.state.has_route()
        assert all(u.as_path is None for u in out)

    def test_peer_injection_limited_export(self):
        g = build_graph()
        sp = speaker(g, asn=1)
        out = sp.inject(ORIGIN, Relationship.PEER, SitePop(1, None, 3.0), now=0.0)
        # Peer route: export to customers only (AS 2).
        assert [u.neighbor for u in out] == [2]
