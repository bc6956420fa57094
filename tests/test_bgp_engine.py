"""Tests for the event-driven BGP engine on the session testbed."""

import dataclasses

import pytest

from repro.bgp.engine import ANYCAST_ORIGIN_ASN, BGPEngine, SiteInjection
from repro.topology.astopo import Relationship
from repro.util.errors import ReproError


def injection(testbed, site_id, t=0.0):
    site = testbed.site(site_id)
    return SiteInjection(
        host_asn=site.provider_asn,
        site_id=site_id,
        pop_id=site.attach_pop,
        link_rtt_ms=site.access_rtt_ms,
        rel_from_host=Relationship.CUSTOMER,
        announce_time_ms=t,
    )


@pytest.fixture()
def engine(testbed):
    return BGPEngine(testbed.internet)


class TestRun:
    def test_empty_injections_rejected(self, engine):
        with pytest.raises(ReproError):
            engine.run([])

    def test_unknown_host_rejected(self, engine):
        with pytest.raises(ReproError):
            engine.run([SiteInjection(host_asn=424242, site_id=1, pop_id=None, link_rtt_ms=1.0)])

    def test_repeated_host_and_site_rejected(self, engine, testbed):
        """Two injections sharing (host, site) used to both announce
        with the last one's attributes, silently."""
        twice = [injection(testbed, 1), injection(testbed, 1, t=5000.0)]
        with pytest.raises(ReproError, match="more than once"):
            engine.run(twice)
        # One site through two hosts, or two sites through one, is fine.
        other_host = testbed.site(6).provider_asn
        assert other_host != twice[0].host_asn
        engine.run([twice[0], dataclasses.replace(twice[1], host_asn=other_host)])
        engine.run([twice[0], dataclasses.replace(twice[1], site_id=2)])

    def test_single_site_reaches_everyone(self, engine, testbed):
        conv = engine.run([injection(testbed, 1)])
        for asn in testbed.internet.graph.client_asns():
            assert conv.state_of(asn).has_route(), f"AS {asn} unreachable"

    def test_enabled_sites_recorded(self, engine, testbed):
        conv = engine.run([injection(testbed, 6), injection(testbed, 1, t=100.0)])
        assert conv.enabled_sites == (1, 6)

    def test_injected_route_present_at_host(self, engine, testbed):
        conv = engine.run([injection(testbed, 1)])
        host = testbed.site(1).provider_asn
        best = conv.state_of(host).best
        assert best.is_injected()
        assert best.as_path == (ANYCAST_ORIGIN_ASN,)

    def test_paths_are_loop_free(self, engine, testbed):
        conv = engine.run([injection(testbed, 1), injection(testbed, 4, t=50.0)])
        for state in conv.states.values():
            if state.best is not None:
                path = state.best.as_path
                assert len(path) == len(set(path))

    def test_paths_terminate_at_origin(self, engine, testbed):
        conv = engine.run([injection(testbed, 5)])
        for state in conv.states.values():
            if state.best is not None:
                assert state.best.origin_asn == ANYCAST_ORIGIN_ASN

    def test_valley_free_property(self, engine, testbed):
        """No path goes down (to a customer) and then up (to a
        provider or peer) again."""
        graph = testbed.internet.graph
        conv = engine.run([injection(testbed, 1)])
        for asn, state in conv.states.items():
            if state.best is None or state.best.is_injected():
                continue
            # Walk the path from this AS toward the origin; once we
            # step "down" (next hop is our customer), every further
            # step must also be down.
            hops = (asn,) + state.best.as_path[:-1]
            descending = False
            for cur, nxt in zip(hops, hops[1:]):
                rel = graph.rel(cur, nxt)
                if descending:
                    assert rel is Relationship.CUSTOMER
                elif rel is Relationship.CUSTOMER:
                    descending = True

    def test_determinism(self, engine, testbed):
        a = engine.run([injection(testbed, 1), injection(testbed, 6, t=360000.0)])
        b = engine.run([injection(testbed, 1), injection(testbed, 6, t=360000.0)])
        for asn in testbed.internet.graph.asns():
            ra, rb = a.state_of(asn).best, b.state_of(asn).best
            assert (ra is None) == (rb is None)
            if ra is not None:
                assert ra.as_path == rb.as_path

    def test_message_count_positive(self, engine, testbed):
        conv = engine.run([injection(testbed, 1)])
        assert conv.message_count > len(testbed.internet.graph)

    def test_convergence_time_after_last_announcement(self, engine, testbed):
        conv = engine.run([injection(testbed, 1), injection(testbed, 6, t=360000.0)])
        assert conv.convergence_time_ms > 360000.0


class TestArrivalOrderEffects:
    def test_spaced_reversal_flips_some_catchments(self, engine, testbed):
        """Reversing the announcement order changes the AS-level best
        route of a non-trivial minority of ASes (Figure 4a's cause)."""
        t = 360000.0
        ab = engine.run([injection(testbed, 1), injection(testbed, 6, t=t)])
        ba = engine.run([injection(testbed, 6), injection(testbed, 1, t=t)])
        changed = 0
        total = 0
        for asn in testbed.internet.graph.client_asns():
            ra, rb = ab.state_of(asn).best, ba.state_of(asn).best
            if ra is None or rb is None:
                continue
            total += 1
            if ra.as_path[-2] != rb.as_path[-2]:  # penultimate: entry tier-1
                changed += 1
        assert total > 0
        assert 0 < changed < total * 0.5

    def test_same_provider_sites_merge(self, engine, testbed):
        """Two sites in one provider yield a single AS-level route
        carrying both attachments (S4.3: site-level differences vanish
        on re-advertisement)."""
        conv = engine.run([injection(testbed, 6), injection(testbed, 7, t=360000.0)])
        ntt = testbed.site(6).provider_asn
        best = conv.state_of(ntt).best
        assert {sp.site_id for sp in best.site_pops} == {6, 7}
        # Other ASes see one route with no site detail.
        for asn in testbed.internet.graph.client_asns():
            state = conv.state_of(asn)
            if state.best is not None:
                assert state.best.site_pops == ()

    def test_delay_jitter_changes_simultaneous_race(self, engine, testbed):
        """Jitter flips the winning *provider* for some clients when
        announcements are simultaneous, but spacing the announcements
        keeps the winner stable (only the upstream carrying the same
        route may differ)."""

        def provider_flips(injections):
            a = engine.run(injections, delay_jitter_ms=20.0, delay_nonce=1)
            b = engine.run(injections, delay_jitter_ms=20.0, delay_nonce=2)
            flips = 0
            for asn in testbed.internet.graph.client_asns():
                ra, rb = a.state_of(asn).best, b.state_of(asn).best
                if ra is not None and rb is not None and ra.as_path[-2] != rb.as_path[-2]:
                    flips += 1
            return flips

        simultaneous = provider_flips([injection(testbed, 1), injection(testbed, 6)])
        spaced = provider_flips(
            [injection(testbed, 1), injection(testbed, 6, t=360000.0)]
        )
        assert simultaneous > 0
        assert spaced < simultaneous


class TestPeerInjections:
    def test_peer_catchment_is_customer_cone(self, engine, testbed):
        """A route announced only over a peering link reaches only the
        peer itself and its customer cone."""
        link = next(iter(testbed.peer_links.values()))
        conv = engine.run([
            SiteInjection(
                host_asn=link.peer_asn,
                site_id=link.site_id,
                pop_id=None,
                link_rtt_ms=link.link_rtt_ms,
                rel_from_host=Relationship.PEER,
            )
        ])
        graph = testbed.internet.graph
        # Compute the peer's customer cone.
        cone = {link.peer_asn}
        frontier = [link.peer_asn]
        while frontier:
            nxt = []
            for asn in frontier:
                for c in graph.customers(asn):
                    if c not in cone:
                        cone.add(c)
                        nxt.append(c)
            frontier = nxt
        for asn in graph.asns():
            has = conv.state_of(asn).has_route()
            assert has == (asn in cone), f"AS {asn}: route={has}, in_cone={asn in cone}"
