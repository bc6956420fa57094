"""One decision process: the convergence loop's record against
:func:`repro.bgp.decision.evaluate`.

The loop (:mod:`repro.bgp.delta`) never calls ``evaluate`` per event.
It keeps each AS's Adj-RIB-In as one decision key per sender and
decides incrementally (:func:`repro.bgp.delta._decide`).  Two
properties pin that to the one decision process:

- over random offer sets — local preferences, path lengths, interior
  costs, equal and unequal arrivals, tie-break on and off, with and
  without an injected route — what a converged run answers from its
  record (``next_hops``, before any state is built) is ``evaluate``'s
  best and multipath over the same offers as routes;
- over random announce / withdraw sequences the incremental rule keeps
  the best a full rescan finds.

Mutation check (on a scratch copy of the tree): putting ``0.0`` in
place of the arrival term of the loop's import key turns
``test_record_answer_is_evaluate`` red, and returning ``best`` unchanged
when the best's own sender is replaced or withdrawn (no rescan) turns
``test_incremental_rule_equals_a_rescan`` red.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import TopologyParams
from repro.bgp.decision import evaluate
from repro.bgp.delta import _decide
from repro.bgp.engine import BGPEngine, SiteInjection
from repro.bgp.messages import Route, SitePop, make_route
from repro.topology.astopo import AS, ASGraph, Relationship
from repro.topology.generator import Internet
from repro.topology.geo import city

PREFIX = "192.0.2.0/24"
ORIGIN = 65000
RECEIVER = 1

#: One offer: (local preference, prepends, interior cost, announce
#: time, link delay).  Few values each, so ties are common.
OFFERS = st.tuples(
    st.sampled_from([100, 200, 300]),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([1.0, 2.0]),
)


def star(senders, offers, injected, tiebreak):
    """AS 1 under providers ``senders``, each announcing one site, plus
    a customer (so AS 1 is a transit the loop keeps a record for).  AS 1
    is policy-deviant, so the drawn local preferences are its per-sender
    overrides; an ``injected`` offer is a site it hosts itself as a peer
    of the origin, whose routes go to its customer only, so no provider
    ever hears back from it.  Returns the Internet and the injections."""
    prefs = {sender: offer[0] for sender, offer in zip(senders, offers)}
    if injected is not None:
        prefs[ORIGIN] = injected[0]
    graph = ASGraph()
    graph.add_as(AS(
        asn=RECEIVER, tier=2, location=city("London"), policy_deviant=True,
        deviant_prefs=prefs, arrival_order_tiebreak=tiebreak,
    ))
    graph.add_as(AS(asn=2, tier=3, location=city("Paris")))
    graph.add_provider(2, RECEIVER)
    injections = []
    for site_id, (sender, (_, prepend, interior, t, delay)) in enumerate(
        zip(senders, offers), start=1
    ):
        graph.add_as(AS(asn=sender, tier=1, location=city("Madrid")))
        graph.add_provider(RECEIVER, sender, prop_delay_ms=delay, igp_cost={RECEIVER: interior})
        injections.append(
            SiteInjection(sender, site_id, None, 1.0, announce_time_ms=t, prepend=prepend)
        )
    if injected is not None:
        _, prepend, _, t, _ = injected
        injections.append(
            SiteInjection(RECEIVER, 99, None, 1.0, Relationship.PEER, t, prepend=prepend)
        )
    return Internet(graph, {}, TopologyParams(), seed=5), injections


def offered_routes(senders, offers, injected):
    """The routes AS 1 holds, built from the offers directly."""
    routes = [
        make_route(
            PREFIX, (sender,) + (ORIGIN,) * (1 + prepend), sender, local_pref,
            Relationship.PROVIDER, 0, interior, t + delay,
        )
        for sender, (local_pref, prepend, interior, t, delay) in zip(senders, offers)
    ]
    if injected is not None:
        local_pref, prepend, _, t, _ = injected
        routes.append(Route(
            prefix=PREFIX, as_path=(ORIGIN,) * (1 + prepend), learned_from=ORIGIN,
            local_pref=local_pref, learned_rel=Relationship.PEER, arrival_time=t,
            site_pops=(SitePop(99, None, 1.0),),
        ))
    return routes


@settings(max_examples=150, deadline=None)
@given(
    offers=st.lists(OFFERS, min_size=1, max_size=5),
    injected=st.none() | OFFERS,
    tiebreak=st.booleans(),
    asns=st.permutations(range(10, 20)),
)
# A strict tie that the later-arriving lower sender wins only without
# the arrival term.
@example(
    offers=[(100, 0, 0, 1.0, 1.0), (100, 0, 0, 0.0, 1.0)], injected=None, tiebreak=True,
    asns=list(range(10, 20)),
)
def test_record_answer_is_evaluate(offers, injected, tiebreak, asns):
    senders = asns[:len(offers)]
    internet, injections = star(senders, offers, injected, tiebreak)
    converged = BGPEngine(internet).run(injections)
    answer = converged.next_hops(RECEIVER)
    assert not converged.states._materialized  # answered from the record

    routes = offered_routes(senders, offers, injected)
    best, multipath = evaluate(routes, internet.graph.as_of(RECEIVER))
    assert answer == (best.learned_from, [route.learned_from for route in multipath])
    state = converged.states[RECEIVER]
    assert state.adj_rib_in == {route.learned_from: route for route in routes}
    assert (state.best, state.multipath) == (best, multipath)


def key_of(sender, parts, tiebreak):
    """The record key the loop stores for an offer from ``sender``."""
    local_pref, length, interior, arrival = parts
    path = (sender,) + (ORIGIN,) * length
    return (
        -local_pref, len(path), interior, arrival if tiebreak else 0.0,
        sender, path, Relationship.PEER, arrival,
    )


@settings(max_examples=300, deadline=None)
@given(
    tiebreak=st.booleans(),
    events=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.none() | st.tuples(
                st.sampled_from([100, 200]), st.integers(1, 3), st.integers(0, 2),
                st.sampled_from([0.0, 1.0, 2.0]),
            ),
        ),
        max_size=40,
    ),
)
# The best's own sender withdraws: only a rescan finds the runner-up.
@example(tiebreak=False, events=[(0, (200, 1, 0, 0.0)), (1, (100, 1, 0, 0.0)), (0, None)])
def test_incremental_rule_equals_a_rescan(tiebreak, events):
    node = AS(asn=RECEIVER, tier=2, location=city("London"), arrival_order_tiebreak=tiebreak)
    rib, best = {}, None
    for sender, parts in events:
        key = None if parts is None else key_of(sender, parts, tiebreak)
        before = best
        best = _decide(rib, best, sender, key)
        if not rib:
            assert best is None
            continue
        assert best == min(rib.values()) and best is rib[best[4]]
        if before is not None and sender != before[4] and (key is None or key > before):
            assert best is before  # unchanged: the loop exports nothing
        # The key's minimum and strict ties are evaluate's decision.
        routes = [
            make_route(PREFIX, k[5], k[4], -k[0], k[6], 0, k[2], k[7]) for k in rib.values()
        ]
        chosen, multipath = evaluate(routes, node)
        ties = sorted(s for s, k in rib.items() if k[:3] == best[:3])
        assert (best[4], ties) == (chosen.learned_from, [r.learned_from for r in multipath])
