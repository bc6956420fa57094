"""Unit tests for the BGP best-path decision process."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.decision import evaluate
from repro.bgp.messages import Route
from repro.topology.astopo import AS
from repro.topology.geo import city
from tests.reference_engine import best_route, multipath_set


def node(arrival_tiebreak=True):
    return AS(
        asn=1, tier=2, location=city("London"),
        arrival_order_tiebreak=arrival_tiebreak,
    )


def route(neighbor, path_len=2, local_pref=100, med=0, interior=0, arrival=0.0, origin=0):
    return Route(
        prefix="192.0.2.0/24",
        as_path=tuple(range(100, 100 + path_len - 1)) + (65000,),
        learned_from=neighbor,
        local_pref=local_pref,
        med=med,
        origin_code=origin,
        interior_cost=interior,
        arrival_time=arrival,
    )


class TestBestRoute:
    def test_empty(self):
        assert best_route([], node()) is None

    def test_local_pref_wins_over_everything(self):
        lo = route(1, path_len=1, local_pref=100)
        hi = route(2, path_len=5, local_pref=300)
        assert best_route([lo, hi], node()) is hi

    def test_shorter_path_wins(self):
        short = route(1, path_len=2)
        long = route(2, path_len=3)
        assert best_route([long, short], node()) is short

    def test_med_breaks_path_tie(self):
        a = route(1, med=10)
        b = route(2, med=5)
        assert best_route([a, b], node()) is b

    def test_interior_cost_breaks_med_tie(self):
        a = route(1, interior=100)
        b = route(2, interior=5)
        assert best_route([a, b], node()) is b

    def test_arrival_order_breaks_interior_tie(self):
        early = route(2, arrival=1.0)
        late = route(1, arrival=2.0)
        assert best_route([late, early], node()) is early

    def test_arrival_ignored_when_disabled(self):
        early = route(2, arrival=1.0)
        late = route(1, arrival=2.0)
        # With the tie-break disabled, neighbor id decides: 1 < 2.
        assert best_route([late, early], node(arrival_tiebreak=False)) is late

    def test_neighbor_id_last_resort(self):
        a = route(5, arrival=1.0)
        b = route(3, arrival=1.0)
        assert best_route([a, b], node()) is b

    def test_full_cisco_ordering(self):
        # Build routes that each lose at exactly one step.
        winner = route(3, path_len=2, local_pref=300, med=0, interior=0, arrival=1.0)
        candidates = [
            route(1, path_len=1, local_pref=200),           # loses on pref
            route(2, path_len=3, local_pref=300),           # loses on length
            route(4, path_len=2, local_pref=300, med=7),    # loses on MED
            route(5, path_len=2, local_pref=300, interior=9),  # loses on IGP
            route(6, path_len=2, local_pref=300, arrival=2.0),  # loses on age
            winner,
        ]
        assert best_route(candidates, node()) is winner


class TestMultipathSet:
    def test_empty(self):
        assert multipath_set([], node()) == []

    def test_ties_through_interior_cost(self):
        a = route(1, arrival=1.0)
        b = route(2, arrival=9.0)
        tied = multipath_set([a, b], node())
        assert len(tied) == 2

    def test_excludes_worse_routes(self):
        good = route(1)
        worse = route(2, path_len=4)
        tied = multipath_set([good, worse], node())
        assert tied == [good]

    def test_interior_cost_splits_set(self):
        a = route(1, interior=0)
        b = route(2, interior=1)
        assert multipath_set([a, b], node()) == [a]

    def test_sorted_by_neighbor(self):
        routes = [route(9), route(2), route(5)]
        tied = multipath_set(routes, node())
        assert [r.learned_from for r in tied] == [2, 5, 9]


@st.composite
def rib(draw):
    """An Adj-RIB-In (one route per neighbor) whose attributes come
    from two-valued ranges, so ties occur at every decision step."""
    neighbors = draw(st.lists(st.integers(1, 9), max_size=6, unique=True))
    two = st.integers(0, 1)
    return {
        n: route(
            n,
            path_len=1 + draw(two),
            local_pref=100 + draw(two),
            med=draw(two),
            interior=draw(two),
            arrival=float(draw(two)),
            origin=draw(two),
        )
        for n in neighbors
    }


class TestEvaluate:
    """The one-pass decision the speaker inlines against the two-pass
    functions the reference engine decides with."""

    @given(rib(), st.booleans())
    def test_matches_two_pass_decision(self, adj_rib_in, arrival_tiebreak):
        asys = node(arrival_tiebreak)
        for routes in (list(adj_rib_in.values()), adj_rib_in.values()):
            best, multipath = evaluate(routes, asys)
            assert best is best_route(routes, asys)
            assert multipath == multipath_set(routes, asys)
            assert (best is None) == (not adj_rib_in)
