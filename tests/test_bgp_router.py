"""Unit tests of the BGP rules on a five-AS graph.

The speaker-level classes test the oracle's :class:`BGPSpeaker`
(``tests/reference_engine.py``) one input at a time; the ``TestRun*``
classes state the same cases as whole ``BGPEngine.run`` convergences
and assert the converged states the shipping loop (``repro.bgp.delta``)
produces.
"""

from repro import TopologyParams
from repro.bgp.engine import BGPEngine, SiteInjection, SiteWithdrawal
from repro.bgp.messages import SitePop
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.generator import Internet
from repro.topology.geo import city
from tests.reference_engine import BGPSpeaker, ReferenceEngine, ReferenceSpeaker

PREFIX = "192.0.2.0/24"
ORIGIN = 65000


def build_graph():
    """1 (tier-2) with customer 2 (stub), peer 3, provider 4 (tier-1).

    A second tier-1 (5) peers with 4 so validation-style structure is
    plausible; links carry distinct interior costs at AS 1 and a 1 ms
    delay each.
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


# -- the same rules through BGPEngine.run ------------------------------------


def run(injections, **kwargs):
    """Converge ``injections`` over a fresh :func:`build_graph`."""
    internet = Internet(build_graph(), {}, TopologyParams(), seed=5)
    return BGPEngine(internet).run(injections, **kwargs)


def site(host, site_id=1, t=0.0, rel=Relationship.CUSTOMER, **kwargs):
    return SiteInjection(host, site_id, None, 0.5, rel, t, **kwargs)


def routeless(converged, asns):
    return all(converged.states[asn].best is None for asn in asns)


class TestRunLoopPrevention:
    def test_poisoned_as_never_receives_the_route(self):
        conv = run([site(4, poison=(1,))])
        assert conv.states[4].best.as_path == (ORIGIN, 1, ORIGIN)
        assert set(conv.states[4].advertised_to) == {5}
        assert conv.states[1].adj_rib_in == {}
        assert routeless(conv, (1, 2))
        assert conv.states[5].best.as_path == (4, ORIGIN, 1, ORIGIN)

    def test_no_route_is_offered_back_along_its_path(self):
        conv = run([site(2)])
        assert set(conv.states[1].advertised_to) == {3, 4}
        assert set(conv.states[4].advertised_to) == {5}
        assert set(conv.states[2].adj_rib_in) == {ORIGIN}
        assert set(conv.states[4].adj_rib_in) == {1}
        # 2→1, 1→3, 1→4, 4→5: nothing sent to an AS on the path.
        assert conv.message_count == 4


class TestRunDuplicateRefresh:
    def test_unchanged_path_is_not_resent_and_keeps_its_age(self):
        one = run([site(4, 1)])
        two = run([site(4, 1), site(4, 2, t=50.0)])
        assert two.states[1].adj_rib_in[4].arrival_time == 1.0
        assert two.message_count == one.message_count
        for asn in (1, 2, 5):
            assert two.states[asn] == one.states[asn]

    def test_receipt_checks_never_fire(self, testbed, monkeypatch):
        """The loop has no receipt-side loop or duplicate check: no
        update names its receiver and none repeats the receiver's
        stored route.  The oracle's speaker, which does check, must see
        neither across jitter, churn, poisoning, prepends, withdrawals
        and a stub-hosted announcement."""
        fired, received = [], []
        original = ReferenceSpeaker.receive_announcement

        def receive(self, neighbor, as_path, med, now):
            received.append(neighbor)
            existing = self.state.adj_rib_in.get(neighbor)
            if self.node.asn in as_path or (
                existing is not None and existing.as_path == as_path and existing.med == med
            ):
                fired.append((self.node.asn, neighbor, as_path))
            return original(self, neighbor, as_path, med, now)

        monkeypatch.setattr(ReferenceSpeaker, "receive_announcement", receive)
        graph = testbed.internet.graph
        engine = ReferenceEngine(testbed.internet)
        hosts = {s: testbed.site(s).provider_asn for s in (1, 4, 6)}

        def at(site_id, t=0.0, **kwargs):
            return SiteInjection(hosts[site_id], site_id, None, 1.0, announce_time_ms=t, **kwargs)

        carrier = next(
            asn for asn, state in engine.run([at(1)]).states.items()
            if graph.as_of(asn).tier == 2 and state.best is not None
        )
        stub = sorted(graph.tables().stub_providers)[0]
        overlay = {s: i % 5 for i, s in enumerate(sorted(graph.tables().session_import)[::7])}
        engine.run([at(1), at(6)], delay_jitter_ms=5.0, delay_nonce=3, igp_overlay=overlay)
        engine.run([at(1, poison=(carrier,)), at(4, t=1000.0, prepend=2)])
        engine.run(
            [at(1), at(6, t=1000.0), SiteInjection(stub, 9, None, 1.0, Relationship.PEER)],
            withdrawals=[SiteWithdrawal(hosts[6], 6, 2000.0)],
            delay_jitter_ms=2.0,
        )
        assert len(received) > 1000
        assert fired == []


class TestRunImport:
    def test_local_pref_from_relationship(self):
        conv = run([site(3, 1), site(4, 2)])
        assert conv.states[1].best.learned_from == 3
        assert conv.states[1].best.local_pref == 200
        assert conv.states[1].adj_rib_in[4].local_pref == 100

    def test_interior_cost_from_link(self):
        assert run([site(4)]).states[1].adj_rib_in[4].interior_cost == 3

    def test_igp_overlay_overrides_link_cost(self):
        conv = run([site(4)], igp_overlay={(1, 4): 77})
        assert conv.states[1].adj_rib_in[4].interior_cost == 77
        assert conv.states[5].adj_rib_in[4].interior_cost == 1


class TestRunExportSetChanges:
    def test_upgrade_to_customer_route_announces_more(self):
        conv = run([site(4, 1), site(2, 2, t=100.0)])
        assert conv.states[1].best.learned_from == 2
        # Newly exported to 3 and 4, withdrawn from 2 (now on the path).
        assert set(conv.states[1].advertised_to) == {3, 4}
        assert set(conv.states[2].adj_rib_in) == {ORIGIN}
        assert conv.states[3].best.as_path == (1, 2, ORIGIN)

    def test_downgrade_withdraws_from_stale_neighbors(self):
        conv = run([site(2)], withdrawals=[SiteWithdrawal(2, 1, 100.0)])
        assert routeless(conv, (1, 2, 3, 4, 5))
        assert conv.states[1].advertised_to == {}
        assert conv.message_count == 8  # four announcements, four withdrawals

    def test_switch_to_peer_route_after_customer_withdrawal(self):
        conv = run([site(2, 1), site(3, 2)], withdrawals=[SiteWithdrawal(2, 1, 100.0)])
        # The peer route is best: announced to customer 2, withdrawn
        # from 3 (it supplies the route) and 4 (peer routes do not go
        # to providers).
        assert conv.states[1].best.learned_from == 3
        assert set(conv.states[1].advertised_to) == {2}
        assert conv.states[2].best.as_path == (1, 3, ORIGIN)
        assert routeless(conv, (4, 5))

    def test_stale_withdrawals_leave_in_neighbour_order(self):
        """1 loses its customer route and falls back to its peer 3's:
        its providers 9 and 16 both go stale at once.  16's withdrawal
        and 9's switch to a path via 4 then reach 20 at the same instant,
        and which 20 handles first decides whether its stub 21 hears one
        update or two — so the withdrawals must be sent in ASN order
        (a set of {9, 16} iterates 16 first)."""
        g = ASGraph()
        for asn in (1, 2, 3, 4, 9, 16, 20, 21):
            g.add_as(AS(asn=asn, tier=2, location=city("London")))
        g.add_provider(2, 1)
        g.add_peering(1, 3)
        for customer, provider in ((1, 9), (1, 16), (3, 4), (4, 9), (20, 9), (21, 20)):
            g.add_provider(customer, provider)
        g.add_peering(16, 20)
        internet = Internet(g, {}, TopologyParams(), seed=5)
        injections = [site(2, 1), site(3, 2)]
        withdrawals = [SiteWithdrawal(2, 1, 100.0)]
        conv = BGPEngine(internet).run(injections, withdrawals=withdrawals)
        assert conv.states[1].best.as_path == (3, ORIGIN)
        assert conv.states[21].best.as_path == (20, 9, 4, 3, ORIGIN)
        assert conv.message_count == 22
        reference = ReferenceEngine(internet).run(injections, withdrawals=withdrawals)
        assert conv.message_count == reference.message_count
        assert conv.states == reference.states

    def test_no_reexport_on_immaterial_change(self):
        one = run([site(2, 1)])
        two = run([site(2, 1), site(3, 2, t=100.0)])
        # The worse peer route at 1 changes nothing downstream: the only
        # extra message is 3's announcement to 1.
        assert two.states[1].best == one.states[1].best
        assert two.states[1].advertised_to == one.states[1].advertised_to
        assert two.states[4] == one.states[4]
        assert two.message_count == one.message_count + 1


class TestRunInjection:
    def test_injection_installs_customer_route(self):
        conv = run([site(4)])
        assert conv.states[4].best.is_injected()
        assert conv.states[4].best.as_path == (ORIGIN,)
        assert set(conv.states[4].advertised_to) == {1, 5}

    def test_merged_injections_keep_earliest_arrival(self):
        conv = run([site(4, 1, t=5.0), site(4, 2, t=9.0)])
        best = conv.states[4].best
        assert best.arrival_time == 5.0
        assert {sp.site_id for sp in best.site_pops} == {1, 2}
        # Merging sites does not change the AS-level route: no exports.
        assert conv.message_count == run([site(4, 1, t=5.0)]).message_count

    def test_withdraw_one_site_keeps_route(self):
        conv = run([site(4, 1), site(4, 2, t=1.0)], withdrawals=[SiteWithdrawal(4, 1, 50.0)])
        assert {s.site_id for s in conv.states[4].best.site_pops} == {2}
        assert conv.states[5].best.as_path == (4, ORIGIN)
        assert conv.message_count == run([site(4, 1)]).message_count

    def test_withdraw_last_site_drops_route(self):
        conv = run([site(4)], withdrawals=[SiteWithdrawal(4, 1, 50.0)])
        assert conv.states[4].adj_rib_in == {}
        assert routeless(conv, (1, 2, 3, 4, 5))

    def test_peer_injection_limited_export(self):
        conv = run([site(1, rel=Relationship.PEER)])
        assert conv.states[1].best.learned_rel is Relationship.PEER
        # Peer route: export to customers only (AS 2).
        assert set(conv.states[1].advertised_to) == {2}
        assert conv.states[2].best.as_path == (1, ORIGIN)
        assert routeless(conv, (3, 4, 5))
