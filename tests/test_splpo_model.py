"""Tests for the SPLPO model and evaluators."""

import math

import pytest

from repro.splpo.model import Client, SPLPOInstance
from repro.util.errors import ConfigurationError, ReproError


def simple_instance(capacities=None):
    """Three facilities; client prefs deliberately anti-correlated
    with cost so preference-based assignment differs from
    nearest-assignment."""
    clients = [
        Client(1, (2, 1), {1: 5.0, 2: 50.0}),
        Client(2, (1, 3), {1: 10.0, 3: 1.0}),
        Client(3, (3, 2, 1), {1: 9.0, 2: 2.0, 3: 30.0}),
    ]
    return SPLPOInstance([1, 2, 3], clients, capacities=capacities)


class TestClient:
    def test_empty_preference_rejected(self):
        with pytest.raises(ConfigurationError):
            Client(1, (), {})

    def test_duplicate_preference_rejected(self):
        with pytest.raises(ConfigurationError):
            Client(1, (1, 1), {1: 1.0})

    def test_missing_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            Client(1, (1, 2), {1: 1.0})

    def test_nan_cost_rejected(self):
        # Accepted, it hid {2} (cost 6.0) from exhaustive search, which
        # reported no feasible configuration: argmin landed on the NaN.
        Client(1, (2, 1), {1: 1.0, 2: 1.0})
        with pytest.raises(ConfigurationError, match=r"non-finite cost for facilities \[1\]"):
            Client(0, (1, 2), {1: math.nan, 2: 5.0})

    @pytest.mark.parametrize("cost", [math.inf, -math.inf])
    def test_infinite_cost_rejected(self, cost):
        with pytest.raises(ConfigurationError, match="non-finite cost"):
            Client(0, (1, 2), {1: 1.0, 2: cost})

    def test_costs_whose_sum_overflows_are_finite(self):
        Client(0, (1, 2), {1: 1e308, 2: 1e308})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(ConfigurationError, match="weight"):
            Client(0, (1,), {1: 1.0}, weight=weight)


class TestInstanceValidation:
    def test_duplicate_facilities_rejected(self):
        with pytest.raises(ConfigurationError):
            SPLPOInstance([1, 1], [])

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_non_finite_open_cost_rejected(self, cost):
        with pytest.raises(ConfigurationError, match="open cost"):
            SPLPOInstance([1, 2], [Client(1, (1,), {1: 1.0})], open_costs={2: cost})

    def test_unknown_preferred_facility_rejected(self):
        with pytest.raises(ConfigurationError):
            SPLPOInstance([1], [Client(1, (9,), {9: 1.0})])


class TestAssignment:
    def test_most_preferred_open_wins(self):
        inst = simple_instance()
        assignment = inst.assignment([1, 2])
        assert assignment[1] == 2  # prefers 2 despite cost 50
        assert assignment[2] == 1
        assert assignment[3] == 2

    def test_unserved_client_none(self):
        inst = simple_instance()
        assignment = inst.assignment([2])
        assert assignment[2] is None  # client 2 only accepts 1 or 3


class TestCost:
    def test_cost_follows_preferences_not_cheapness(self):
        inst = simple_instance()
        # Open {1,2}: client1 -> 2 (50), client2 -> 1 (10), client3 -> 2 (2).
        assert inst.cost([1, 2]) == pytest.approx(62.0)

    def test_empty_set_infinite(self):
        assert math.isinf(simple_instance().cost([]))

    def test_unserved_infinite_by_default(self):
        assert math.isinf(simple_instance().cost([2]))

    def test_unserved_penalty_finite(self):
        inst = simple_instance()
        # Only client 1 and 3 served by {2}; client 2 pays penalty.
        assert inst.cost([2], unserved_penalty=100.0) == pytest.approx(
            50.0 + 2.0 + 100.0
        )

    def test_unknown_facility_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_instance().cost([9])

    def test_open_costs_added(self):
        inst = SPLPOInstance(
            [1], [Client(1, (1,), {1: 2.0})], open_costs={1: 7.0}
        )
        assert inst.cost([1]) == pytest.approx(9.0)

    def test_weights_scale_cost(self):
        inst = SPLPOInstance(
            [1], [Client(1, (1,), {1: 2.0}, weight=3.0)]
        )
        assert inst.cost([1]) == pytest.approx(6.0)

    def test_capacity_violation_infinite(self):
        inst = simple_instance(capacities={2: 1.0, 1: 10.0, 3: 10.0})
        # Open {1,2}: clients 1 and 3 both land on 2 -> load 2 > cap 1.
        assert math.isinf(inst.cost([1, 2]))

    def test_capacity_satisfied_finite(self):
        inst = simple_instance(capacities={1: 10.0, 2: 2.0, 3: 10.0})
        assert not math.isinf(inst.cost([1, 2]))

    def test_mean_cost(self):
        inst = simple_instance()
        assert inst.mean_cost([1, 2]) == pytest.approx(62.0 / 3)

    def test_mean_cost_partial_service(self):
        # Client 2 unserved under {2}, but 1 and 3 are served.
        assert simple_instance().mean_cost([2]) == pytest.approx(26.0)

    def test_mean_cost_no_served_raises(self):
        inst = SPLPOInstance(
            [1, 2], [Client(1, (1,), {1: 3.0})]
        )
        with pytest.raises(ReproError):
            inst.mean_cost([2])


class TestFastCost:
    @pytest.mark.parametrize("subset", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)])
    def test_matches_reference_implementation(self, subset):
        inst = simple_instance()
        slow = inst.cost(subset)
        fast = inst.fast_cost(subset)
        if math.isinf(slow):
            assert math.isinf(fast)
        else:
            assert fast == pytest.approx(slow)

    @pytest.mark.parametrize("subset", [(2,), (1, 2)])
    def test_matches_with_penalty(self, subset):
        inst = simple_instance()
        assert inst.fast_cost(subset, unserved_penalty=50.0) == pytest.approx(
            inst.cost(subset, unserved_penalty=50.0)
        )

    def test_capacitated_falls_back(self):
        inst = simple_instance(capacities={2: 1.0, 1: 10.0, 3: 10.0})
        assert math.isinf(inst.fast_cost([1, 2]))
