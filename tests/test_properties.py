"""Property-based tests (hypothesis) on core data structures."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.preferences import PairObservation, PreferenceMatrix, tournament
from repro.splpo import Client, SPLPOInstance, solve_exhaustive, solve_greedy
from repro.topology.geo import GeoPoint, great_circle_km
from repro.util.rng import derive_rng, stable_hash
from repro.util.stats import cdf_points, mean, median, percentile
from tests.reference_order import build_total_order

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
values = st.lists(floats, min_size=1, max_size=50)


class TestStatsProperties:
    @given(values)
    def test_mean_within_bounds(self, xs):
        assert min(xs) - 1e-6 <= mean(xs) <= max(xs) + 1e-6

    @given(values)
    def test_median_within_bounds(self, xs):
        assert min(xs) <= median(xs) <= max(xs)

    @given(st.lists(floats, min_size=1, max_size=51).filter(lambda v: len(v) % 2 == 1))
    def test_odd_median_is_an_element(self, xs):
        assert median(xs) in xs

    @given(values, st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_percentile_monotone(self, xs, q1, q2):
        lo, hi = sorted((q1, q2))
        assert percentile(xs, lo) <= percentile(xs, hi) + 1e-9

    @given(values)
    def test_cdf_monotone_and_complete(self, xs):
        sorted_xs, fracs = cdf_points(xs)
        assert sorted_xs == sorted(xs)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    @given(values, floats)
    def test_mean_shift_equivariance(self, xs, c):
        shifted = mean([x + c for x in xs])
        assert math.isclose(shifted, mean(xs) + c, rel_tol=1e-6, abs_tol=1e-6)


class TestRngProperties:
    @given(st.lists(st.one_of(st.integers(), st.text(max_size=20)), max_size=5))
    def test_stable_hash_deterministic(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)

    @given(st.integers(), st.text(max_size=10))
    def test_derive_rng_reproducible(self, seed, label):
        assert derive_rng(seed, label).random() == derive_rng(seed, label).random()


class TestGeoProperties:
    points = st.builds(
        GeoPoint,
        lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
        lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
    )

    @given(points, points)
    def test_symmetry_and_nonnegativity(self, a, b):
        d = great_circle_km(a, b)
        assert d >= 0
        assert math.isclose(d, great_circle_km(b, a), rel_tol=1e-9, abs_tol=1e-9)

    @given(points)
    def test_identity(self, a):
        assert great_circle_km(a, a) == 0.0

    @given(points, points)
    def test_bounded_by_half_circumference(self, a, b):
        assert great_circle_km(a, b) <= math.pi * 6371.0 + 1e-6


@st.composite
def tournaments(draw):
    """A random complete tournament over 3-6 items as a matrix."""
    n = draw(st.integers(min_value=3, max_value=6))
    items = list(range(1, n + 1))
    matrix = PreferenceMatrix()
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            winner = draw(st.sampled_from([a, b]))
            matrix.record(0, PairObservation(a, b, winner, winner))
    return items, matrix


def kernel_order(matrix, items):
    """:func:`tournament` for client 0, ``items`` announced in order:
    whether it found a total order, and that order (most wins first)."""
    valid, wins = tournament(matrix.winner_codes([0], items), range(len(items)))
    return bool(valid[0]), tuple(np.asarray(items)[np.argsort(-wins[0], kind="stable")].tolist())


class TestTotalOrderProperties:
    @given(st.permutations(list(range(1, 7))))
    def test_strict_ranking_recovered(self, ranking):
        matrix = PreferenceMatrix()
        for i, a in enumerate(ranking):
            for b in ranking[i + 1:]:
                lo, hi = min(a, b), max(a, b)
                matrix.record(0, PairObservation(lo, hi, a, a))
        assert kernel_order(matrix, sorted(ranking)) == (True, tuple(ranking))
        result = build_total_order(matrix, 0, sorted(ranking), sorted(ranking))
        assert result.order == tuple(ranking)

    @given(tournaments())
    @settings(max_examples=60)
    def test_order_exists_iff_transitive(self, data):
        """On the shipping kernel, and on the scalar oracle."""
        items, matrix = data
        valid, _ = kernel_order(matrix, items)
        result = build_total_order(matrix, 0, items, items)
        # Check transitivity directly.
        beats = {}
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                w = matrix.winner(0, a, b, a)
                beats[(a, b)] = w == a
                beats[(b, a)] = w == b
        transitive = all(
            not (beats[(a, b)] and beats[(b, c)]) or beats[(a, c)]
            for a in items
            for b in items
            for c in items
            if len({a, b, c}) == 3
        )
        assert valid == transitive
        assert result.has_total_order == transitive

    @given(tournaments())
    @settings(max_examples=60)
    def test_order_consistent_with_pairwise(self, data):
        items, matrix = data
        valid, order = kernel_order(matrix, items)
        if not valid:
            return
        assert order == build_total_order(matrix, 0, items, items).order
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                assert matrix.winner(0, a, b, a) == a


class TestSerializationProperties:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=5, max_value=25),
    )
    @settings(max_examples=10, deadline=None)
    def test_internet_roundtrip_preserves_links(self, seed, n_stub):
        from repro.io import serialization as ser
        from repro.topology import TestbedParams, TopologyParams, build_paper_testbed

        testbed = build_paper_testbed(
            TestbedParams(
                topology=TopologyParams(n_stub=max(n_stub, 110), n_tier2=16)
            ),
            seed=seed,
        )
        clone = ser.testbed_from_dict(ser.testbed_to_dict(testbed))
        assert clone.internet.graph.asns() == testbed.internet.graph.asns()
        for link in testbed.internet.graph.links():
            other = clone.internet.graph.link(link.a, link.b)
            assert other.rtt_ms == link.rtt_ms
            assert other.igp_cost == link.igp_cost


@st.composite
def splpo_instances(draw):
    n_fac = draw(st.integers(min_value=2, max_value=5))
    facilities = list(range(n_fac))
    n_clients = draw(st.integers(min_value=1, max_value=10))
    clients = []
    for cid in range(n_clients):
        perm = draw(st.permutations(facilities))
        k = draw(st.integers(min_value=1, max_value=n_fac))
        prefs = tuple(perm[:k])
        costs = {
            f: draw(st.floats(min_value=0.1, max_value=100, allow_nan=False))
            for f in prefs
        }
        clients.append(Client(cid, prefs, costs))
    return SPLPOInstance(facilities, clients)


class TestSPLPOProperties:
    @given(splpo_instances(), st.data())
    @settings(max_examples=60)
    def test_fast_cost_matches_cost(self, instance, data):
        subset = data.draw(
            st.sets(st.sampled_from(instance.facilities), min_size=1)
        )
        slow = instance.cost(subset, unserved_penalty=1000.0)
        fast = instance.fast_cost(subset, unserved_penalty=1000.0)
        assert math.isclose(slow, fast, rel_tol=1e-9, abs_tol=1e-6)

    @given(splpo_instances(), st.data())
    @settings(max_examples=60)
    def test_assignment_respects_preferences(self, instance, data):
        subset = data.draw(
            st.sets(st.sampled_from(instance.facilities), min_size=1)
        )
        assignment = instance.assignment(subset)
        for client in instance.clients:
            assigned = assignment[client.client_id]
            open_prefs = [f for f in client.preference if f in subset]
            assert assigned == (open_prefs[0] if open_prefs else None)

    @given(splpo_instances())
    @settings(max_examples=30)
    def test_greedy_never_beats_exhaustive(self, instance):
        exact = solve_exhaustive(instance, unserved_penalty=1000.0)
        greedy = solve_greedy(instance, unserved_penalty=1000.0)
        assert greedy.cost >= exact.cost - 1e-6

    @given(splpo_instances())
    @settings(max_examples=30)
    def test_exhaustive_cost_matches_reported_set(self, instance):
        result = solve_exhaustive(instance, unserved_penalty=1000.0)
        assert math.isclose(
            instance.cost(result.open_facilities, 1000.0),
            result.cost,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )
