"""The search plane against oracles that live with the tests.

``SPLPOInstance.batch_cost`` scores whole frontiers of subsets through
split rank tables over clients merged by preference tuple,
``SPLPOInstance.subset_costs`` scores every subset at once by one
subset-sum transform, and ``total_orders`` ranks every client per
announcement order with one array tournament.  Each is compared with
the plain form it replaced: ``SPLPOInstance.cost`` one subset at a time
(and the solver loops written over it — exhaustive search is also
compared with its own chunked loop), the per-client list building of
the kernels, and ``total_order`` one client at a time.  Golden values
pin ``compile_snapshot``'s bytes and an exhaustive ``optimize`` to what
the commits before the moves produced.
"""

import dataclasses
import itertools
import math
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnyOpt, select_targets
from repro.core.preferences import PairObservation, PreferenceMatrix, tournament
from repro.core import twolevel
from repro.core.config import AnycastConfig
from repro.core.optimizer import (
    OptimizationReport,
    build_splpo_instance,
    choose_announcement_order,
    search_configurations,
)
from repro.core.twolevel import (
    FlatPreferenceModel,
    SiteLevelMode,
    TwoLevelModel,
    two_level_ranking,
)
from repro.measurement.rtt import RttMatrix
from repro.serve import compile_snapshot
from repro.splpo import (
    Client,
    SPLPOInstance,
    exhaustive,
    get_solver,
    solve_exhaustive,
    solve_greedy,
    solve_local_search,
)
from repro.splpo import model as splpo_model
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed
from repro.util.errors import ConfigurationError, ReproError
from repro.util.rng import derive_rng
from tests import reference_order, reference_transforms
from tests.reference_order import build_total_order

SETTINGS = dict(max_examples=60, deadline=None)


# -- SPLPO: instances ----------------------------------------------------------


@st.composite
def splpo_instances(draw, exact=True):
    """Instances crossing the 8-facility table boundary, with partial
    preference lists, repeated preference tuples, non-unit weights and
    open costs.  ``exact`` draws small-integer costs and dyadic weights:
    every sum is exact, so equal-cost subsets tie exactly and results
    must compare ``==``."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_fac = draw(st.integers(1, 11))
    facilities = [3 * i + 1 for i in range(n_fac)]
    tuples = []
    for _ in range(draw(st.integers(1, 4))):
        perm = facilities[:]
        rng.shuffle(perm)
        tuples.append(tuple(perm[: rng.randint(1, n_fac)]))
    clients = []
    for cid in range(draw(st.integers(0, 14))):
        prefs = rng.choice(tuples)
        costs = {
            f: float(rng.randint(1, 4)) if exact else rng.uniform(0.1, 100.0)
            for f in prefs
        }
        weight = rng.choice([0.5, 1.0, 2.0, 3.25])
        clients.append(Client(cid, prefs, costs, weight=weight, load=weight))
    open_costs = None
    if draw(st.booleans()):
        open_costs = {f: float(rng.randint(0, 3)) for f in facilities if rng.random() < 0.5}
    return SPLPOInstance(facilities, clients, open_costs=open_costs)


@st.composite
def client_lists(draw):
    """``(facilities, clients)``: ragged preference lists drawn from a
    few tuples in random order (so tuples repeat, first appearing in an
    order unrelated to their bytes), zero weights among the others."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_fac = draw(st.integers(1, 11))
    facilities = rng.sample(range(40), n_fac)
    tuples = []
    for _ in range(draw(st.integers(1, 5))):
        perm = facilities[:]
        rng.shuffle(perm)
        tuples.append(tuple(perm[: rng.randint(1, n_fac)]))
    clients = []
    for cid in range(draw(st.integers(0, 14))):
        prefs = rng.choice(tuples)
        costs = {f: rng.uniform(0.1, 100.0) for f in prefs}
        weight = rng.choice([0.0, 0.5, 1.0, 3.25])
        clients.append(Client(10 * cid + 3, prefs, costs, weight=weight, load=rng.random()))
    return facilities, clients


def from_columns(facilities, ids, columns, costs, lengths, weights, loads=None,
                 open_costs=None, capacities=None):
    """The instance over flat columns: client ``c`` (id ``ids[c]``)
    prefers the next ``lengths[c]`` ``columns`` (positions on
    ``facilities``) at the next ``lengths[c]`` ``costs``; ``loads``
    defaults to ``weights``.  The per-client path the rank-table
    constructor is checked against."""
    instance = SPLPOInstance.__new__(SPLPOInstance)
    instance._set_facilities(facilities, open_costs, capacities)
    instance._fill(ids, columns, costs, lengths, weights, weights if loads is None else loads)
    return instance


def from_clients_as_columns(facilities, clients, **kwargs):
    """:func:`from_columns` over the same data as
    ``SPLPOInstance(facilities, clients)``."""
    position = {f: i for i, f in enumerate(facilities)}
    return from_columns(
        facilities,
        [c.client_id for c in clients],
        [position[f] for c in clients for f in c.preference],
        [c.costs[f] for c in clients for f in c.preference],
        [len(c.preference) for c in clients],
        [c.weight for c in clients],
        [c.load for c in clients],
        **kwargs,
    )


def all_subsets(instance):
    return [
        subset
        for k in range(len(instance.facilities) + 1)
        for subset in itertools.combinations(instance.facilities, k)
    ]


PENALTIES = st.sampled_from([math.inf, 50.0])


def every_mask(instance):
    """Row ``m`` opens the facilities of bitmask ``m`` (bit ``i`` is
    ``facilities[i]``), the layout ``subset_costs`` indexes by."""
    n = len(instance.facilities)
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def chunked_search(instance, **kwargs):
    """``solve_exhaustive`` forced onto its chunked enumeration loop."""
    with mock.patch.object(exhaustive, "_TRANSFORM_FACILITIES", 0):
        return solve_exhaustive(instance, **kwargs)


# -- SPLPO: oracles ------------------------------------------------------------


def reference_kernels(instance):
    """The kernels' input arrays as the per-client loop built them:
    ``(ranks, cost_by_rank, weights)`` per client, then merged by
    preference tuple."""
    n_f = len(instance.facilities)
    index = {f: i for i, f in enumerate(instance.facilities)}
    row, rank, column, value = [], [], [], []
    for i, client in enumerate(instance.clients):
        row.extend([i] * len(client.preference))
        rank.extend(range(len(client.preference)))
        column.extend(index[f] for f in client.preference)
        value.extend(client.weight * client.costs[f] for f in client.preference)
    row = np.array(row, dtype=np.intp)
    rank = np.array(rank, dtype=np.intp)
    ranks = np.full((len(instance.clients), n_f), n_f, dtype=np.int32)
    ranks[row, np.array(column, dtype=np.intp)] = rank
    cost_by_rank = np.zeros((len(instance.clients), n_f + 1), dtype=np.float64)
    cost_by_rank[row, rank] = value
    weights = np.array([c.weight for c in instance.clients], dtype=np.float64)
    groups = {}
    group_of = np.array(
        [groups.setdefault(c.preference, len(groups)) for c in instance.clients], dtype=np.intp
    )
    first_member = np.unique(group_of, return_index=True)[1]
    merged_costs = np.zeros((len(groups), n_f + 1), dtype=np.float64)
    np.add.at(merged_costs, group_of, cost_by_rank)
    merged_weights = np.bincount(group_of, weights, minlength=len(groups))
    return (
        (ranks, cost_by_rank, weights),
        (ranks[first_member], merged_costs, merged_weights),
    )


def reference_exhaustive(instance, sizes=None, max_evaluations=None, penalty=math.inf):
    """Subset enumeration as it was: one ``cost`` per subset, first
    minimum in (size, ``itertools.combinations``) order."""
    n = len(instance.facilities)
    size_list = sorted(set(sizes)) if sizes is not None else range(1, n + 1)
    best_cost, best_set, evaluations = math.inf, frozenset(), 0
    for k in size_list:
        for subset in itertools.combinations(instance.facilities, k):
            if max_evaluations is not None and evaluations >= max_evaluations:
                return best_set, best_cost, evaluations
            cost = instance.cost(subset, penalty)
            evaluations += 1
            if cost < best_cost:
                best_cost, best_set = cost, frozenset(subset)
    return best_set, best_cost, evaluations


def reference_greedy(instance, max_open=None, force_size=False, penalty=math.inf):
    limit = max_open if max_open is not None else len(instance.facilities)
    open_set, current, evaluations = set(), math.inf, 0
    while len(open_set) < limit:
        best_candidate, best_cost = None, math.inf
        for f in instance.facilities:
            if f in open_set:
                continue
            cost = instance.cost(open_set | {f}, penalty)
            evaluations += 1
            if cost < best_cost:
                best_cost, best_candidate = cost, f
        if best_candidate is None or (best_cost >= current and not force_size):
            break
        open_set.add(best_candidate)
        current = best_cost
    return frozenset(open_set), current, evaluations


def reference_local_search(instance, start=None, fixed_size=False, penalty=math.inf):
    if start is None:
        current, current_cost, evaluations = reference_greedy(instance, penalty=penalty)
    else:
        current = frozenset(start)
        current_cost, evaluations = instance.cost(current, penalty), 1
    everything = set(instance.facilities)
    while True:
        closed, opened = sorted(everything - current), sorted(current)
        candidates = []
        if not fixed_size:
            candidates.extend(current | {f} for f in closed)
            if len(current) > 1:
                candidates.extend(current - {f} for f in opened)
        candidates.extend((current - {o}) | {i} for o in opened for i in closed)
        for candidate in candidates:
            cost = instance.cost(candidate, penalty)
            evaluations += 1
            if cost < current_cost:
                current, current_cost = frozenset(candidate), cost
                break
        else:
            return current, current_cost, evaluations


# -- SPLPO: kernel -------------------------------------------------------------


class TestBatchCost:
    @given(splpo_instances(exact=True), PENALTIES)
    @settings(**SETTINGS)
    def test_exact_costs_equal_the_reference(self, instance, penalty):
        subsets = all_subsets(instance)
        expected = [instance.cost(s, penalty) for s in subsets]
        assert instance.batch_cost(instance.masks(subsets), penalty).tolist() == expected
        assert [instance.fast_cost(s, penalty) for s in subsets[:40]] == expected[:40]

    @given(splpo_instances(exact=False), PENALTIES)
    @settings(**SETTINGS)
    def test_float_costs_agree_to_rounding(self, instance, penalty):
        subsets = all_subsets(instance)
        scores = instance.batch_cost(instance.masks(subsets), penalty)
        for subset, score in zip(subsets, scores.tolist()):
            expected = instance.cost(subset, penalty)
            assert score == expected or math.isclose(score, expected, rel_tol=1e-12)

    @given(splpo_instances(exact=False), st.data())
    @settings(**SETTINGS)
    def test_same_assignment_same_float(self, instance, data):
        # What lets solvers compare batch scores with each other: a
        # facility nobody is served by never moves the score.
        subset = data.draw(st.sets(st.sampled_from(instance.facilities), min_size=1))
        used = set(instance.assignment(subset).values())
        trimmed = [f for f in subset if f in used]
        if not trimmed:
            return
        full, small = instance.batch_cost(instance.masks([subset, trimmed]), 50.0).tolist()
        dropped = sum(instance.open_costs.get(f, 0.0) for f in subset if f not in used)
        if dropped:
            assert math.isclose(full, small + dropped, rel_tol=1e-12)
        else:
            assert full == small

    def test_zero_weight_unserved_client_is_still_infeasible(self):
        instance = SPLPOInstance([1, 2], [Client(1, (1,), {1: 3.0}, weight=0.0)])
        assert instance.cost([2]) == math.inf
        assert instance.batch_cost(instance.masks([[2]]))[0] == math.inf
        assert instance.batch_cost(instance.masks([[2]]), 10.0)[0] == 0.0

    def test_capacitated_instances_score_through_cost(self):
        clients = [Client(i, (1, 2), {1: 1.0, 2: 5.0}) for i in range(3)]
        instance = SPLPOInstance([1, 2], clients, capacities={1: 2.0})
        scores = instance.batch_cost(instance.masks([[1], [2], [1, 2]]))
        assert scores.tolist() == [math.inf, 15.0, math.inf]

    def test_one_error_type_for_unknown_facilities(self):
        instance = SPLPOInstance([1, 2], [Client(1, (1,), {1: 3.0})])
        for score in (instance.cost, instance.fast_cost):
            with pytest.raises(ConfigurationError):
                score([1, 9])
        with pytest.raises(ConfigurationError):
            instance.masks([[9]])
        with pytest.raises(ConfigurationError):
            instance.batch_cost(np.ones((1, 3), dtype=bool))

    def test_large_batches_are_scored_in_blocks(self, monkeypatch):
        from repro.splpo import model

        instance = SPLPOInstance(
            list(range(9)),
            [Client(i, (i % 9, (i + 1) % 9), {i % 9: 1.0 + i, (i + 1) % 9: 2.0}) for i in range(20)],
        )
        masks = instance.masks(all_subsets(instance))
        whole = instance.batch_cost(masks, 7.0)
        monkeypatch.setattr(model, "_BLOCK_BYTES", 16 * 20 * 5)  # five masks a block
        assert instance.batch_cost(masks, 7.0).tolist() == whole.tolist()

    @given(splpo_instances(exact=False))
    @settings(**SETTINGS)
    def test_kernel_columns_equal_the_per_client_loop(self, instance):
        built = instance._rank_tables(merged=False), instance._rank_tables(merged=True)
        for tables, (ranks, cost_by_rank, weights) in zip(built, reference_kernels(instance)):
            assert tables.ranks.dtype == ranks.dtype
            assert tables.ranks.tobytes() == ranks.tobytes()
            assert tables.cost_by_rank.tobytes() == cost_by_rank.tobytes()
            assert tables.weights.tobytes() == weights.tobytes()

    @given(splpo_instances(exact=True), PENALTIES)
    @settings(**SETTINGS)
    def test_subset_costs_are_batch_costs_when_sums_are_exact(self, instance, penalty):
        costs, _ = instance.subset_costs(penalty)
        assert costs.tolist() == instance.batch_cost(every_mask(instance), penalty).tolist()

    @given(splpo_instances(exact=False), PENALTIES)
    @settings(**SETTINGS)
    def test_subset_costs_within_the_rounding_bound(self, instance, penalty):
        """Feasibility is exact; a finite score is within the written
        bound: addition trees of depth at most ``2 * rows + 2 * n``
        (table) and ``rows + n`` (kernel) over terms whose absolute
        values sum to ``scale``."""
        costs, scale = instance.subset_costs(penalty)
        batch = instance.batch_cost(every_mask(instance), penalty)
        assert np.isinf(costs).tolist() == np.isinf(batch).tolist()
        rows = len({c.preference for c in instance.clients})
        bound = 3 * (rows + len(instance.facilities)) * 2.0**-53 * scale
        finite = np.isfinite(batch)
        assert np.all(np.abs(costs[finite] - batch[finite]) <= bound)

    def test_capacitated_instances_have_no_subset_table(self):
        instance = SPLPOInstance([1], [Client(1, (1,), {1: 1.0})], capacities={1: 1.0})
        with pytest.raises(ConfigurationError):
            instance.subset_costs()


class TestColumnInstances:
    @given(client_lists(), PENALTIES, st.data())
    @settings(**SETTINGS)
    def test_columns_build_the_client_instance(self, data_lists, penalty, data):
        facilities, clients = data_lists
        by_clients = SPLPOInstance(facilities, clients)
        by_columns = from_clients_as_columns(facilities, clients)
        for merged in (False, True):
            ours, theirs = by_columns._rank_tables(merged), by_clients._rank_tables(merged)
            for name in ("ranks", "cost_by_rank", "weights"):
                assert getattr(ours, name).dtype == getattr(theirs, name).dtype
                assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
        assert by_columns.clients == by_clients.clients == tuple(clients)
        masks = every_mask(by_clients)
        assert by_columns.batch_cost(masks, penalty).tolist() == by_clients.batch_cost(
            masks, penalty
        ).tolist()
        (costs, scale), expected = by_columns.subset_costs(penalty), by_clients.subset_costs(penalty)
        assert (costs.tolist(), scale) == (expected[0].tolist(), expected[1])
        subset = data.draw(st.sets(st.sampled_from(facilities), min_size=1))
        assert by_columns.fast_cost(subset, penalty) == by_clients.fast_cost(subset, penalty)
        assert by_columns.assignment(subset) == by_clients.assignment(subset)
        # The loops over clients these means were before the rank table.
        assigned = by_clients.assignment(subset).values()
        served = [(c.weight, c.costs[f]) for c, f in zip(clients, assigned) if f is not None]
        total = weight_sum = 0.0
        for weight, cost in served:
            total += weight * cost
            weight_sum += weight
        if served:
            assert by_columns.mean_cost(subset) == by_clients.mean_cost(subset) == (
                sum(cost for _, cost in served) / len(served)
            )
        else:
            with pytest.raises(ReproError):
                by_columns.mean_cost(subset)
        if weight_sum:
            assert by_columns.weighted_mean_cost(subset) == total / weight_sum
        else:
            with pytest.raises(ReproError):
                by_columns.weighted_mean_cost(subset)

    def test_merged_rows_keep_first_appearance_order(self):
        """Tuples first appear as (3, 1), (1,), (1, 3): neither their
        rank rows' byte order nor their sorted order."""
        clients = [
            Client(1, (3, 1), {3: 1.0, 1: 2.0}),
            Client(2, (1,), {1: 4.0}),
            Client(3, (3, 1), {3: 8.0, 1: 16.0}, weight=0.5),
            Client(4, (1, 3), {1: 32.0, 3: 64.0}),
            Client(5, (1,), {1: 128.0}, weight=0.0),
        ]
        instance = SPLPOInstance([1, 3], clients)
        merged = instance._rank_tables(merged=True)
        assert merged.ranks.tolist() == [[1, 0], [0, 2], [0, 1]]
        assert merged.cost_by_rank.tolist() == [
            [5.0, 10.0, 0.0], [4.0, 0.0, 0.0], [32.0, 64.0, 0.0],
        ]
        assert merged.weights.tolist() == [1.5, 1.0, 1.0]

    @pytest.mark.parametrize("change, message", [
        (dict(columns=[0, 1], costs=[1.0, 2.0], lengths=[2, 0]), "client 2: empty preference"),
        (dict(columns=[0, 2, 1]), r"client 1 prefers unknown facilities \[2\]"),
        (dict(columns=[0, 1, -1]), r"client 2 prefers unknown facilities \[-1\]"),
        (dict(columns=[1, 1, 0]), "client 1: duplicate preferences"),
        (dict(costs=[1.0, math.inf, 2.0]), r"client 1: non-finite cost for facilities \[6\]"),
        (dict(costs=[1.0, 2.0, math.nan]), r"client 2: non-finite cost for facilities \[6\]"),
        (dict(weights=[1.0, math.nan]), "client 2: weight"),
        (dict(weights=[math.inf, 1.0]), "client 1: weight"),
        (dict(weights=[1.0, -0.5]), "client 2: weight"),
        (dict(ids=[1, 2, 3]), "differ in length"),
        (dict(costs=[1.0, 2.0]), "differ in length"),
    ])
    def test_column_checks_are_the_client_checks(self, change, message):
        columns = dict(ids=[1, 2], columns=[0, 1, 1], costs=[1.0, 2.0, 3.0],
                       lengths=[2, 1], weights=[1.0, 1.0])
        from_columns([5, 6], **columns)
        with pytest.raises(ConfigurationError, match=message):
            from_columns([5, 6], **{**columns, **change})

    def test_build_instance_rejects_what_a_client_would(self, anyopt_model, targets):
        model, rtt = anyopt_model.twolevel, anyopt_model.rtt_matrix
        sites = anyopt_model.testbed.site_ids()
        targets = list(targets)
        instance = build_splpo_instance(model, rtt, targets, sites, sites)
        client = int(instance.ids[0])
        infinite = RttMatrix(dict(rtt.values))
        infinite.set(sites[3], client, math.inf)
        with pytest.raises(ConfigurationError, match="non-finite cost"):
            build_splpo_instance(model, infinite, targets, sites, sites)
        at = next(i for i, t in enumerate(targets) if t.target_id == client)
        for weight in (math.nan, -1.0):
            weighted = targets[:at] + [
                SimpleNamespace(target_id=client, weight=weight)
            ] + targets[at + 1:]
            with pytest.raises(ConfigurationError, match="weight"):
                build_splpo_instance(model, rtt, weighted, sites, sites)


@st.composite
def rank_tables(draw):
    """``(facilities, preferences, rows, costs, weights)``: a few
    preference rows of one length (every facility in some draws, so
    ``subset_costs`` skips its stranding pass), some equal to others
    and some no client reads, and clients reading them in random order
    at float costs, zero weights among the others."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_fac = draw(st.integers(1, 11))
    facilities = rng.sample(range(40), n_fac)
    width = n_fac if rng.random() < 0.5 else rng.randint(1, n_fac)
    preferences = [rng.sample(range(n_fac), width) for _ in range(rng.randint(1, 4))]
    preferences += [rng.choice(preferences) for _ in range(rng.randint(0, 2))]
    rows = [rng.randrange(len(preferences)) for _ in range(draw(st.integers(0, 14)))]
    costs = np.array([rng.uniform(0.1, 100.0) for _ in range(width * len(rows))])
    weights = [rng.choice([0.0, 0.5, 1.0, 3.25]) for _ in rows]
    return (facilities, np.array(preferences), np.array(rows, dtype=np.intp),
            costs.reshape(len(rows), width), weights)


def rank_table_clients(facilities, preferences, rows, costs, weights):
    """The :class:`Client` list a rank table stands for."""
    clients = []
    for c, (row, row_costs, weight) in enumerate(zip(rows.tolist(), costs.tolist(), weights)):
        preference = tuple(facilities[f] for f in preferences[row].tolist())
        clients.append(Client(10 * c + 3, preference, dict(zip(preference, row_costs)), weight, weight))
    return clients


def assert_same_instance(ours, theirs):
    """The per-client arrays, dtypes included."""
    for name in ("ranks", "rank_costs", "weights", "loads", "ids"):
        mine, expected = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == expected.dtype, name
        assert mine.shape == expected.shape and mine.tobytes() == expected.tobytes(), name


class TestRankTableInstances:
    @given(rank_tables(), PENALTIES)
    @settings(**SETTINGS)
    def test_rank_table_builds_the_client_instance(self, table, penalty):
        """Same arrays, and the class rows group clients as their rank
        rows do: merged kernels, batch and subset costs to the bit."""
        facilities, preferences, rows, costs, weights = table
        ids = [10 * c + 3 for c in range(len(rows))]
        ours = SPLPOInstance.from_rank_table(facilities, ids, preferences, rows, costs, weights)
        theirs = SPLPOInstance(facilities, rank_table_clients(*table))
        assert_same_instance(ours, theirs)
        for merged in (False, True):
            mine, expected = ours._rank_tables(merged), theirs._rank_tables(merged)
            for name in ("ranks", "cost_by_rank", "weights"):
                assert getattr(mine, name).dtype == getattr(expected, name).dtype
                assert getattr(mine, name).tobytes() == getattr(expected, name).tobytes()
        masks = every_mask(theirs)
        assert ours.batch_cost(masks, penalty).tobytes() == theirs.batch_cost(masks, penalty).tobytes()
        (costs, scale), expected = ours.subset_costs(penalty), theirs.subset_costs(penalty)
        assert (costs.tobytes(), scale) == (expected[0].tobytes(), expected[1])

    def test_every_row_listing_every_facility_strands_only_the_empty_set(self):
        instance = SPLPOInstance.from_rank_table(
            [5, 6, 7], [1, 2], [[2, 0, 1]], [0, 0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 1.0])
        costs, _ = instance.subset_costs()
        assert math.isinf(costs[0]) and np.isfinite(costs[1:]).all()
        assert costs.tolist() == [instance.cost(s) for s in (
            [f for bit, f in enumerate(instance.facilities) if mask >> bit & 1]
            for mask in range(8))]

    @pytest.mark.parametrize("defect, message", [
        (dict(preferences=[[0, 1], [1, 3]]), r"client 11 prefers unknown facilities \[3\]"),
        (dict(preferences=[[0, 1], [-1, 2]]), r"client 11 prefers unknown facilities \[-1\]"),
        (dict(preferences=[[0, 0], [1, 2]]), "client 10: duplicate preferences"),
        (dict(costs=[[1.0, 2.0], [3.0, 4.0], [5.0, math.inf]]),
         r"client 12: non-finite cost for facilities \[6\]"),
        (dict(costs=[[1.0, 2.0], [math.nan, 4.0], [5.0, 6.0]]),
         r"client 11: non-finite cost for facilities \[6\]"),
        (dict(weights=[1.0, -1.0, 1.0]), "client 11: weight must be finite and non-negative"),
        (dict(weights=[1.0, 1.0, math.nan]), "client 12: weight must be finite and non-negative"),
        (dict(preferences=[[], []], costs=[[], [], []]), "client 10: empty preference"),
        (dict(rows=[0, 1]), "differ in length"),
    ])
    def test_each_check_raises_what_the_columns_raise(self, defect, message):
        """Clients 10 and 12 read row 0, client 11 row 1 (positions on
        facilities 5, 6, 7); a row no client reads goes unchecked."""
        table = dict(preferences=[[0, 1], [1, 2], [9, 9]], rows=[0, 1, 0],
                     costs=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], weights=[1.0, 1.0, 1.0])
        ids = [10, 11, 12]
        SPLPOInstance.from_rank_table([5, 6, 7], ids, **table)
        table.update(defect)
        preferences = np.array(table["preferences"], dtype=np.intp).reshape(len(table["preferences"]), -1)
        with pytest.raises(ConfigurationError, match=message) as by_table:
            SPLPOInstance.from_rank_table([5, 6, 7], ids, **{**table, "preferences": preferences})
        read = preferences[table["rows"]]
        with pytest.raises(ConfigurationError) as by_columns:
            from_columns([5, 6, 7], ids, read.ravel(), np.ravel(table["costs"]),
                         [read.shape[1]] * len(read), table["weights"])
        assert str(by_table.value) == str(by_columns.value)


class TestSolversOnTheKernel:
    @given(splpo_instances(exact=True), PENALTIES, st.data())
    @settings(**SETTINGS)
    def test_exhaustive_equals_one_subset_at_a_time(self, instance, penalty, data):
        n = len(instance.facilities)
        sizes = data.draw(st.none() | st.sets(st.integers(1, n), min_size=1))
        budget = data.draw(st.none() | st.integers(1, 2**n + 3))
        kwargs = dict(sizes=sizes, max_evaluations=budget, unserved_penalty=penalty)
        result = solve_exhaustive(instance, **kwargs)
        expected = reference_exhaustive(instance, sizes, budget, penalty)
        assert (result.open_facilities, result.cost, result.evaluations) == expected
        assert chunked_search(instance, **kwargs) == result

    @given(splpo_instances(exact=False), PENALTIES)
    @settings(**SETTINGS)
    def test_exhaustive_float_winner_is_optimal(self, instance, penalty):
        result = solve_exhaustive(instance, unserved_penalty=penalty)
        _, best, evaluations = reference_exhaustive(instance, penalty=penalty)
        assert result.evaluations == evaluations
        assert result.cost == best or math.isclose(result.cost, best, rel_tol=1e-12)
        assert result.cost == instance.fast_cost(result.open_facilities, penalty)
        # Where float sums round, the table's pick is still the loop's.
        assert chunked_search(instance, unserved_penalty=penalty) == result

    def test_exhaustive_budget_spans_chunks(self, monkeypatch):
        """Budgets cutting mid-size, through the table and through the
        loop at seven subsets a chunk."""
        monkeypatch.setattr(exhaustive, "_CHUNK", 7)
        instances = [
            SPLPOInstance(
                list(range(6)), [Client(i, (i, 5 - i), {i: 2.0, 5 - i: 1.0}) for i in range(6)]
            ),
            # Best pair {1, 2}: the sixth pair in combinations order, the
            # third by plain mask, so budget 9 must not reach it.
            SPLPOInstance(
                list(range(6)),
                [Client(i, (i,), {i: c}) for i, c in enumerate([5.0, 1.0, 2.0, 6.0, 7.0, 8.0])],
            ),
        ]
        # Sizes 1, 2 and 3 end after 6, 21 and 41 subsets.
        for instance, budget, sizes in itertools.product(
            instances,
            (1, 4, 6, 7, 8, 9, 13, 20, 22, 30, 40, 41, 50, 63, 64),
            (None, [2, 3], [5, 2]),
        ):
            expected = reference_exhaustive(instance, sizes, budget, 9.0)
            for search in (solve_exhaustive, chunked_search):
                result = search(
                    instance, sizes=sizes, max_evaluations=budget, unserved_penalty=9.0
                )
                assert (result.open_facilities, result.cost, result.evaluations) == expected

    def test_enumeration_key_is_combinations_order(self):
        for n in range(1, 11):
            key = exhaustive._enumeration_key(n)
            order = [sum(1 << i for i in combo)
                     for k in range(1, n + 1) for combo in itertools.combinations(range(n), k)]
            assert (np.argsort(key[1:]) + 1).tolist() == order
            assert (key >> n).tolist() == [bin(m).count("1") for m in range(1 << n)]

    def test_one_ulp_tie_is_decided_by_the_rescore(self):
        """``{1}`` beats ``{0}`` by one ulp in every exact-order sum, but
        the table reaches both through a 2**53 term that cancels, and
        scores them equal; only re-scoring ``batch_cost`` finds ``{1}``."""
        clients = [
            Client(0, (0, 1), {0: 1.0, 1: 0.5 - 2.0**-52}),
            Client(1, (1, 0), {1: 1.0, 0: 0.5}),
            Client(2, (2, 0, 1), {2: 2.0**53, 0: 0.0, 1: 0.0}),
        ]
        instance = SPLPOInstance([0, 1, 2], clients)
        costs, _ = instance.subset_costs()
        batch = instance.batch_cost(instance.masks([[0], [1]])).tolist()
        assert batch == [1.5, 1.5 - 2.0**-52]
        assert costs[0b001] <= costs[0b010]  # the table alone would take {0}
        result = solve_exhaustive(instance)
        assert (result.open_facilities, result.cost) == (frozenset({1}), 1.5 - 2.0**-52)
        assert result == chunked_search(instance)
        assert reference_exhaustive(instance) == (frozenset({1}), 1.5 - 2.0**-52, 7)

    def test_capacitated_search_scores_through_cost(self, monkeypatch):
        clients = [Client(i, (1, 2, 3), {1: 1.0, 2: 2.0 + i, 3: 5.0}) for i in range(4)]
        instance = SPLPOInstance([1, 2, 3], clients, capacities={1: 2.0, 2: 3.0})
        expected = reference_exhaustive(instance)
        calls = []
        cost = SPLPOInstance.cost

        def counted(self, *args):
            calls.append(args)
            return cost(self, *args)

        monkeypatch.setattr(SPLPOInstance, "cost", counted)
        result = solve_exhaustive(instance)
        assert (result.open_facilities, result.cost, result.evaluations) == expected
        assert expected[0] == frozenset({3})  # {1} without the capacities
        assert len(calls) == 7 + 1  # every subset, then the reported winner

    @pytest.mark.parametrize("budget", [0, -3])
    def test_exhaustive_rejects_an_empty_budget(self, budget):
        instance = SPLPOInstance([1], [Client(1, (1,), {1: 1.0})])
        with pytest.raises(ConfigurationError):
            solve_exhaustive(instance, max_evaluations=budget)

    @given(splpo_instances(exact=True), PENALTIES, st.data())
    @settings(**SETTINGS)
    def test_greedy_takes_the_same_steps(self, instance, penalty, data):
        max_open = data.draw(st.none() | st.integers(1, len(instance.facilities)))
        force = data.draw(st.booleans())
        result = solve_greedy(
            instance, max_open=max_open, force_size=force, unserved_penalty=penalty
        )
        expected = reference_greedy(instance, max_open, force, penalty)
        assert (result.open_facilities, result.cost, result.evaluations) == expected

    @given(splpo_instances(exact=True), PENALTIES, st.data())
    @settings(**SETTINGS)
    def test_local_search_takes_the_same_moves(self, instance, penalty, data):
        start = data.draw(
            st.none() | st.sets(st.sampled_from(instance.facilities), min_size=1)
        )
        fixed = data.draw(st.booleans())
        result = solve_local_search(
            instance, start=start, fixed_size=fixed, unserved_penalty=penalty
        )
        expected = reference_local_search(instance, start, fixed, penalty)
        assert (result.open_facilities, result.cost, result.evaluations) == expected


# -- SPLPO: the subset-table passes ---------------------------------------------


@st.composite
def zeta_tables(draw, dtype):
    """A ``2**n`` table, ``n`` in 0..17: floats of mixed magnitude (so
    the order of additions shows in the rounding) with some ``±inf``
    cells, or booleans."""
    n = draw(st.integers(0, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if dtype is bool:
        return rng.random(1 << n) < draw(st.sampled_from([0.0, 0.001, 0.05, 0.5]))
    table = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-8, 9, 1 << n)
    infinite = rng.random(1 << n) < draw(st.sampled_from([0.0, 0.0005, 0.01]))
    table[infinite] = np.where(rng.random(np.count_nonzero(infinite)) < 0.5, math.inf, -math.inf)
    return table


@st.composite
def merged_clients(draw):
    """Up to 200 clients over a few preference tuples of up to 18
    facilities (rank rows merged as packed integers below 16, as bytes
    from 16 on), costs of mixed magnitude and weights that round, so
    each merged sum depends on its order of addition."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_fac = draw(st.integers(1, 18))
    facilities = rng.sample(range(40), n_fac)
    tuples = [tuple(rng.sample(facilities, rng.randint(1, n_fac)))
              for _ in range(draw(st.integers(1, 6)))]
    clients = []
    for cid in range(draw(st.integers(0, 200))):
        prefs = rng.choice(tuples)
        costs = {f: rng.uniform(0.1, 100.0) * 10.0 ** rng.randint(-6, 6) for f in prefs}
        clients.append(Client(cid, prefs, costs, weight=rng.choice([0.0, 0.1, 1.0, 3.3])))
    return SPLPOInstance(facilities, clients)


class TestSubsetTransforms:
    """The subset table's passes give the bits the plain passes of
    ``tests/reference_transforms.py`` give."""

    @given(zeta_tables(float))
    @settings(**SETTINGS)
    def test_float_superset_sums_are_the_plain_loop(self, table):
        expected = table.copy()
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN on both sides
            reference_transforms.superset_sums(expected)
            splpo_model._superset_sums(table)
        assert table.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    @given(zeta_tables(bool))
    @settings(**SETTINGS)
    def test_boolean_superset_sums_are_the_count_pass(self, table):
        n = table.size.bit_length() - 1
        expected = reference_transforms.stranded_subsets(np.flatnonzero(table), n)
        splpo_model._superset_sums(table)
        assert table.tobytes() == expected.tobytes()

    @given(merged_clients())
    @settings(**SETTINGS)
    def test_merged_costs_are_the_add_at_sums(self, instance):
        groups = {}
        group_of = np.array([groups.setdefault(row.tobytes(), len(groups)) for row in instance.ranks],
                            dtype=np.intp)
        single = instance._rank_tables(merged=False).cost_by_rank
        merged = instance._rank_tables(merged=True).cost_by_rank
        assert merged.dtype == np.float64
        expected = reference_transforms.merged_costs(group_of, single, len(groups))
        assert merged.tobytes() == expected.tobytes()

    def test_enumeration_key_is_built_once_and_read_only(self):
        key = exhaustive._enumeration_key(9)
        assert exhaustive._enumeration_key(9) is key
        with pytest.raises(ValueError):
            key[0] = 1


# -- total orders --------------------------------------------------------------


class Providers:
    """What ``TwoLevelModel`` asks of a testbed: a provider map."""

    def __init__(self, provider_of):
        self._provider_of = provider_of

    def provider_of(self, site):
        return self._provider_of[site]

    def site_ids(self):
        return sorted(self._provider_of)

    def provider_asns(self):
        return sorted(set(self._provider_of.values()))


#: How a pairwise cell is generated: mostly agreeing with a hidden
#: ranking (so that many tournaments are transitive), sometimes not.
CELL_KINDS = (
    ["ranked"] * 12
    + ["order_dependent"] * 3
    + ["flipped", "inconsistent", "unknown", "undecided", "unmeasured"]
)


def random_matrix(rng, clients, items):
    matrix = PreferenceMatrix()
    for client in clients:
        hidden = items[:]
        rng.shuffle(hidden)
        for a, b in itertools.combinations(items, 2):
            if rng.random() < 0.5:
                a, b = b, a
            better, worse = (a, b) if hidden.index(a) < hidden.index(b) else (b, a)
            kind = rng.choice(CELL_KINDS)
            if kind == "ranked":
                obs = PairObservation(a, b, better, better)
            elif kind == "flipped":
                obs = PairObservation(a, b, worse, worse)
            elif kind == "order_dependent":
                obs = PairObservation(a, b, a, b)
            elif kind == "inconsistent":
                obs = PairObservation(a, b, b, a)
            elif kind == "unknown":
                obs = PairObservation(a, b, rng.choice([a, b, None]), None)
            elif kind == "undecided":
                obs = PairObservation.undecided_pair(a, b)
            else:
                continue
            matrix.record(client, obs)
    return matrix


def random_codes(rng, n_clients, n):
    """Winner codes over ``n + 2`` items — transitive, then with cycles
    and holes (-1) at a random rate — and ``n`` members, a shuffled
    subset of the item axis."""
    n_items = n + 2
    strength = rng.random((n_clients, n_items))
    first_wins = strength[:, :, None] > strength[:, None, :]
    codes = np.where(first_wins, 0, 1).astype(np.int8)          # transitive
    noisy = rng.random(codes.shape) < rng.choice([0.0, 0.02, 0.3])
    codes[noisy] = rng.integers(-1, 2, size=int(noisy.sum()))   # cycles, holes
    return codes, rng.permutation(n_items)[:n].tolist()


def reference_tournament(codes, members):
    """The oracle: ``tournament`` as a loop over pairs of members, each
    game a column of ``codes``, with transitivity checked by sorting
    each row of wins."""
    n_clients, n = codes.shape[0], len(members)
    wins = np.zeros((n_clients, n), dtype=np.int16)
    usable = np.ones(n_clients, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            code = codes[:, members[i], members[j]]
            usable &= code >= 0
            wins[:, i] += code == 0
            wins[:, j] += code == 1
    return usable & (np.sort(wins, axis=1) == np.arange(n)).all(axis=1), wins


@st.composite
def two_level_worlds(draw):
    """A two-level model over random providers, with clients the
    matrices never saw, RTT holes and RTT ties."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(list(SiteLevelMode)))
    sites = list(range(1, draw(st.integers(2, 7)) + 1))
    n_providers = draw(st.integers(2, 4))
    provider_of = {s: 100 + rng.randrange(n_providers) for s in sites}
    providers = sorted(set(provider_of.values()))
    clients = list(range(10, 10 + draw(st.integers(1, 12))))
    site_matrices = {
        p: random_matrix(rng, clients, [s for s in sites if provider_of[s] == p])
        for p in providers
    }
    rtt = RttMatrix()
    for site in sites:
        for client in clients:
            roll = rng.random()
            if roll < 0.05:
                continue
            rtt.set(site, client, None if roll < 0.1 else float(rng.randint(1, 4)))
    model = TwoLevelModel(
        testbed=Providers(provider_of),
        provider_matrix=random_matrix(rng, clients, providers),
        site_matrices=site_matrices if mode is SiteLevelMode.PAIRWISE else {},
        rtt_matrix=rtt,
        site_level_mode=mode,
    )
    if draw(st.integers(0, 3)) == 0:  # a single-provider order
        only = rng.choice(providers)
        subset = [s for s in sites if provider_of[s] == only]
    else:
        subset = rng.sample(sites, rng.randint(1, len(sites)))
    rng.shuffle(subset)
    return model, clients + [999], tuple(subset)


def assert_orders_match(model, clients, order):
    """``total_orders`` and the one-row ``total_order`` view against
    the scalar oracle, client by client."""
    valid, orders = model.total_orders(clients, order)
    assert valid.shape == (len(clients),) and orders.shape == (len(clients), len(order))
    expected = [reference_order.total_order(model, c, order) for c in clients]
    assert valid.tolist() == [r.has_total_order for r in expected]
    for row, result in zip(orders.tolist(), expected):
        if result.has_total_order:
            assert tuple(row) == result.order
    for client, result in zip(clients, expected):
        assert model.total_order(client, order).order == result.order
    return valid


class TestTotalOrders:
    @given(two_level_worlds())
    @settings(**SETTINGS)
    def test_two_level_matches_client_by_client(self, world):
        assert_orders_match(*world)

    @given(st.integers(0, 2**32), st.integers(0, 6), st.integers(1, 10))
    @settings(**SETTINGS)
    def test_flat_matches_client_by_client(self, seed, n_sites, n_clients):
        rng = random.Random(seed)
        sites = list(range(1, n_sites + 1))
        clients = list(range(n_clients))
        model = FlatPreferenceModel(random_matrix(rng, clients, sites + [50]))
        order = rng.sample(sites, rng.randint(0, n_sites))
        assert_orders_match(model, clients + [999], tuple(order))

    def test_empty_order_rejected(self):
        model = TwoLevelModel(Providers({}), PreferenceMatrix(), {}, None, SiteLevelMode.PAIRWISE)
        with pytest.raises(ConfigurationError):
            model.total_orders([1], ())

    def test_discovered_model_both_site_level_modes(self, anyopt_model, targets):
        clients = [t.target_id for t in targets]
        rng = random.Random(5)
        sites = anyopt_model.testbed.site_ids()
        by_rtt = TwoLevelModel(
            anyopt_model.testbed,
            anyopt_model.twolevel.provider_matrix,
            {},
            anyopt_model.rtt_matrix,
            SiteLevelMode.RTT_HEURISTIC,
        )
        for size in (len(sites), len(sites), 6, 2):
            order = tuple(rng.sample(sites, size))
            # The AnyOptModel delegate, and through it the pairwise model.
            assert assert_orders_match(anyopt_model, clients, order).sum() > len(clients) // 2
            assert assert_orders_match(by_rtt, clients, order).any()


@pytest.fixture(scope="module")
def paper_model():
    """The paper world (seed 7), discovered with default settings."""
    testbed = build_paper_testbed(None, seed=7)
    targets = select_targets(testbed.internet, seed=7)
    return AnyOpt(testbed, targets=targets, seed=7).discover(), [t.target_id for t in targets]


class TestTotalOrderView:
    def test_paper_world_every_client(self, paper_model):
        """The one-row ``total_order`` view is the oracle's order for
        every paper-world client, under the full order, random subsets,
        one provider's sites and single sites."""
        model, clients = paper_model
        testbed = model.testbed
        rng = random.Random(11)
        sites = testbed.site_ids()
        orders = [tuple(sites)]
        for number in range(10):
            if number % 4 == 1:
                chosen = list(testbed.sites_of_provider(rng.choice(testbed.provider_asns())))
            elif number % 4 == 3:
                chosen = [rng.choice(sites)]
            else:
                chosen = rng.sample(sites, rng.randint(2, len(sites)))
            rng.shuffle(chosen)
            orders.append(tuple(chosen))
        voided = 0
        for order in orders:
            for client in clients:
                expected = reference_order.total_order(model, client, order)
                result = model.total_order(client, order)
                assert result.order == expected.order, (client, order)
                voided += not result.has_total_order
        assert 0 < voided < len(clients) * len(orders)


class TestClassesRankLikeClients:
    """``TwoLevelModel.ranking`` ranks one row per client class and
    reads each client at its class; over the paper world it answers
    what :func:`two_level_ranking` answers over every compiled client
    row, in both site-level modes."""

    @pytest.mark.parametrize("mode", list(SiteLevelMode))
    def test_paper_world_both_site_level_modes(self, paper_model, mode):
        anyopt_model, clients = paper_model
        testbed, rtt_matrix = anyopt_model.testbed, anyopt_model.rtt_matrix
        model = anyopt_model.twolevel if mode is SiteLevelMode.PAIRWISE else TwoLevelModel(
            testbed, anyopt_model.twolevel.provider_matrix, {}, rtt_matrix, mode,
        )
        asked = clients + [max(clients) + 1]  # and an unseen client
        arrays, site_index = model._compile()[:2]
        rows = model.client_rows(asked)
        assert rows[-1] == len(clients) and (rows[:-1] < len(clients)).all()
        rng = random.Random(13)
        sites = testbed.site_ids()
        orders = [tuple(sites), tuple(reversed(sites))]
        for number in range(11):
            if number % 4 == 1:
                chosen = list(testbed.sites_of_provider(rng.choice(testbed.provider_asns())))
            elif number % 4 == 3:
                chosen = [rng.choice(sites)]
            else:
                chosen = rng.sample(sites, rng.randint(2, len(sites) - 1))
            rng.shuffle(chosen)
            orders.append(tuple(chosen))
        for order in orders:
            got = model.ranking(asked, order)
            if mode is SiteLevelMode.PAIRWISE:  # measured RTTs set each client apart
                assert len(np.unique(got.rows)) < len(asked) // 2
            expected = two_level_ranking(
                arrays, [site_index[s] for s in order], mode is SiteLevelMode.RTT_HEURISTIC, rows,
            )
            valid = expected.valid
            assert got.valid.tolist() == valid.tolist()
            assert got.orders()[valid].tolist() == expected.orders()[valid].tolist()
            rtt = rtt_matrix.array(got.sites.tolist(), asked)
            for column, want in zip(got.answers(rtt), expected.answers(rtt)):
                assert column.tobytes() == want.tobytes()
            masks = [(got.provider_usable, expected.provider_usable)] + [
                (mine[3], theirs[3]) for mine, theirs in zip(got.groups, expected.groups)
            ]
            for mine, theirs in masks:
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine[got.rows].tolist() == theirs[expected.rows].tolist()
            for row in range(0, len(asked), 37):
                result = model.total_order(asked[row], order)
                assert result.has_total_order == valid[row]
                if valid[row]:
                    assert result.order == tuple(expected.sites[expected.orders()[row]].tolist())
            assert model.total_order(asked[-1], order).order == (
                order if len(order) == 1 else None
            )


class TestWinnerCodes:
    @given(st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_codes_are_winner_for_every_cell(self, seed):
        rng = random.Random(seed)
        items = [4, 9, 2, 7]
        clients = [1, 2, 3]
        matrix = random_matrix(rng, clients, items + [11])
        codes = matrix.winner_codes(clients + [8], items)
        assert codes.dtype == np.int8 and not codes.flags.writeable
        for c, client in enumerate(clients + [8]):
            for i, first in enumerate(items):
                for j, second in enumerate(items):
                    winner = None if i == j else matrix.winner(client, first, second, first)
                    expected = -1 if winner is None else (0 if winner == first else 1)
                    assert codes[c, i, j] == expected

    @given(st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_tournament_is_build_total_order(self, seed):
        rng = random.Random(seed)
        items = [1, 2, 3, 4, 5][: rng.randint(2, 5)]
        clients = list(range(8))
        matrix = random_matrix(rng, clients, items)
        announce = rng.sample(items, len(items))
        valid, wins = tournament(
            matrix.winner_codes(clients, items), [items.index(s) for s in announce]
        )
        for c, client in enumerate(clients):
            result = build_total_order(matrix, client, announce, announce)
            assert valid[c] == result.has_total_order
            if result.has_total_order:
                by_wins = np.argsort(-wins[c], kind="stable")
                assert tuple(announce[i] for i in by_wins) == result.order

    @given(st.integers(0, 2**32), st.sampled_from([2, 3, 4, 5, 7, 63, 66]))
    @settings(**SETTINGS)
    def test_transitivity_check_is_the_sorted_check(self, seed, n):
        """The score-square test against sorting each row of wins:
        transitive rows, cyclic rows, rows with unusable cells, members
        a shuffled subset of the item axis."""
        codes, members = random_codes(np.random.default_rng(seed), 12, n)
        valid, wins = tournament(codes, members)
        n_clients = len(codes)
        for c in range(n_clients):
            cells = [codes[c, members[i], members[j]] for i in range(n) for j in range(i + 1, n)]
            count = [0] * n
            for (i, j), code in zip(itertools.combinations(range(n), 2), cells):
                if code >= 0:
                    count[j if code else i] += 1
            assert wins[c].tolist() == count
            assert valid[c] == (min(cells) >= 0 and sorted(count) == list(range(n)))

    @given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 5, 7, 63, 66, 200]))
    @settings(**SETTINGS)
    def test_tournament_is_the_pair_loop(self, seed, n):
        """The one-gather tournament returns the pair loop's bytes."""
        codes, members = random_codes(np.random.default_rng(seed), 9, n)
        valid, wins = tournament(codes, members)
        expected_valid, expected_wins = reference_tournament(codes, members)
        assert valid.dtype == bool and wins.dtype == np.int16
        assert valid.tobytes() == expected_valid.tobytes()
        assert wins.tobytes() == expected_wins.tobytes()

    def test_record_drops_the_memo(self):
        """The model's arrays are compiled once and kept until one of
        its matrices is written or replaced."""
        site_matrix = PreferenceMatrix()
        site_matrix.record(1, PairObservation(1, 2, 1, 1))
        rtt = RttMatrix()
        model = TwoLevelModel(
            Providers({1: 100, 2: 100}), PreferenceMatrix(), {100: site_matrix}, rtt,
            SiteLevelMode.PAIRWISE,
        )
        before = model.arrays()
        assert model.arrays()["clients"] is before["clients"]
        assert before["site_w"][0].tolist() == [[-1, 0], [1, -1]]
        assert model.total_orders([1], (1, 2))[1].tolist() == [[1, 2]]
        site_matrix.record(1, PairObservation(1, 2, 2, 2))
        assert model.arrays()["site_w"][0].tolist() == [[-1, 1], [0, -1]]
        assert model.total_orders([1], (1, 2))[1].tolist() == [[2, 1]]
        rtt.set(1, 7, 3.0)
        assert model.arrays()["clients"].tolist() == [1, 7]
        model.site_matrices[100] = PreferenceMatrix()
        assert not model.total_orders([1], (1, 2))[0].any()
        flat = FlatPreferenceModel(site_matrix)
        assert flat.total_orders([1], (1, 2))[1].tolist() == [[2, 1]]
        site_matrix.record(1, PairObservation(1, 2, 1, 1))
        assert flat.total_orders([1], (1, 2))[1].tolist() == [[1, 2]]


#: ``payload_sha256`` of the conftest model's snapshot, re-pinned by the
#: PR that defined per-experiment noise as a counter-based stream (PR 22;
#: fe63820c… before it, unchanged since ``compile_snapshot`` predated
#: ``winner_codes``).  It moves only with the snapshot format, a noise stream or the topology
#: generator — re-pin it then, from the parent, in the PR that says so.
GOLDEN_PAYLOAD_SHA256 = "7b4c3dbbca1b33914112b986028c1a529056782503550884fdb3fdc325350795"


def test_golden_snapshot_payload(anyopt_model):
    assert compile_snapshot(anyopt_model).header["payload_sha256"] == GOLDEN_PAYLOAD_SHA256


@pytest.fixture(scope="module")
def golden_world():
    """A small world of its own (the session ``anyopt`` hands out
    experiment ids in test order): its ``AnyOpt`` and model."""
    testbed = build_paper_testbed(
        TestbedParams(topology=TopologyParams(n_stub=120, n_tier2=12)), seed=7
    )
    anyopt = AnyOpt(testbed, select_targets(testbed.internet, seed=7), seed=7)
    return anyopt, anyopt.discover()


GOLDEN_ANNOUNCE = (13, 11, 7, 3, 6, 2, 5, 10, 8, 4, 9, 12, 15, 1, 14)


def test_golden_search_result(golden_world):
    """Every registered strategy's ``optimize`` report, pinned to what
    the enumeration loop and the ``Client``-built instance gave before
    the subset-sum table and the column-built instance."""
    anyopt, model = golden_world
    capped = {site: 80.0 for site in anyopt.testbed.site_ids()}
    for kwargs, sites, rtt, evaluations in [
        ({}, (13, 11, 7, 6, 5, 8, 4, 9), 163.42960299234872, 32767),
        ({"sizes": [4], "max_evaluations": 700}, (13, 11, 3, 4), 175.08012325157952, 700),
        ({"sizes": [5], "max_evaluations": 300}, (13, 2, 8, 4, 1), 177.1072689322778, 300),
        ({"sizes": [4, 5], "capacities": capped}, (13, 11, 6, 5, 4), 199.088793448224, 4368),
        ({"strategy": "greedy"}, (13, 11, 7, 3, 6, 5, 8, 4, 9), 163.42960299234872, 105),
        ({"strategy": "local_search"}, (13, 11, 7, 3, 6, 5, 8, 4, 9), 163.42960299234872, 174),
        ({"strategy": "annealing"}, (13, 11, 7, 6, 2, 8, 4, 9, 1), 176.44477908730553, 5001),
    ]:
        strategy = kwargs.pop("strategy", "exhaustive")
        assert anyopt.optimize(model, strategy=strategy, **kwargs) == OptimizationReport(
            AnycastConfig(site_order=sites), rtt, GOLDEN_ANNOUNCE, 205, 244, evaluations, strategy
        )


def test_golden_instance_floats(golden_world):
    """``fast_cost`` (single clients, no split tables), the solvers'
    reported costs and the mean costs, pinned to the ``Client``-built
    instance's floats."""
    anyopt, model = golden_world
    sites = anyopt.testbed.site_ids()
    instance = build_splpo_instance(
        model.twolevel, model.rtt_matrix, anyopt.targets, sites, GOLDEN_ANNOUNCE
    )
    best = {13, 11, 7, 6, 5, 8, 4, 9}
    assert solve_exhaustive(instance).cost == instance.fast_cost(best) == 33339.63901043916
    assert instance.fast_cost({13, 2}, 500.0) == 58918.1419863386
    assert instance.fast_cost(sites) == 36133.242711807325
    assert solve_greedy(instance).cost == 33339.63901043916
    assert instance.mean_cost({13, 11, 7}) == 253.23417971969505
    assert instance.weighted_mean_cost({13, 11, 7}) == 253.23417971969505
    assert instance._rank_tables(merged=False)._tables is None


def test_one_tournament_per_provider_order_and_member_set(golden_world):
    """An ``optimize`` on a fresh model ranks each distinct candidate
    order once, for validity: at most six provider tournaments (the
    chosen order's among them) and one site tournament per multi-site
    provider, shared by every candidate and by the instance."""
    anyopt, model = golden_world
    fresh = dataclasses.replace(model, twolevel=dataclasses.replace(model.twolevel))
    providers = anyopt.testbed.provider_asns()
    calls = []

    def counted(codes, members):
        calls.append((codes.shape[1] == len(providers), tuple(members)))
        return tournament(codes, members)

    with mock.patch.object(twolevel, "tournament", counted):
        report = anyopt.optimize(fresh)
    assert report == anyopt.optimize(model)
    provider_calls = [members for is_provider, members in calls if is_provider]
    site_calls = [members for is_provider, members in calls if not is_provider]
    multi_site = [p for p in providers if len(anyopt.testbed.sites_of_provider(p)) > 1]
    assert 1 <= len(provider_calls) == len(set(provider_calls)) <= 6
    assert len(site_calls) == len(set(site_calls)) == len(multi_site)


def test_each_distinct_candidate_order_is_ranked_once(golden_world):
    """Two sites give two distinct candidates among the six drawn, three
    at most six; each is ranked once, and the first maximum wins."""
    anyopt, model = golden_world
    ranked = []

    class Counting:
        def ranking(self, client_ids, order):
            ranked.append(tuple(order))
            return model.twolevel.ranking(client_ids, order)

    for sites, distinct in (([4, 13], {2}), ([13, 4, 7], {3, 4, 5, 6})):
        ranked.clear()
        order, count = choose_announcement_order(Counting(), sites, anyopt.targets, seed=3)
        assert len(ranked) == len(set(ranked)) and len(ranked) in distinct
        counts = [model.twolevel.ranking([t.target_id for t in anyopt.targets], o).valid.sum()
                  for o in ranked]
        assert (order, count) == (ranked[counts.index(max(counts))], max(counts))


def test_one_optimize_ranks_each_distinct_candidate_once(golden_world):
    """No ranking for the chosen order beyond its candidate's: the
    instance is built from the winning candidate's ranking."""
    anyopt, model = golden_world
    ranked = []
    ranking = TwoLevelModel.ranking

    def counted(self, client_ids, order):
        ranked.append(tuple(order))
        return ranking(self, client_ids, order)

    with mock.patch.object(TwoLevelModel, "ranking", counted):
        report = anyopt.optimize(model)
    assert report == anyopt.optimize(model)
    assert len(ranked) == len(set(ranked)) and 2 <= len(ranked) <= 6
    assert report.announce_order in ranked


def oracle_instance(model, rtt_matrix, targets, sites, order):
    """The instance built one :class:`Client` at a time: each target's
    order from :mod:`tests.reference_order`, restricted to ``sites``,
    and its RTTs read from the matrix's dict."""
    members = set(sites).intersection(order)
    clients = []
    for target in targets:
        result = reference_order.total_order(model, target.target_id, order)
        if not result.has_total_order:
            continue
        preference = tuple(site for site in result.order if site in members)
        costs = {site: rtt_matrix.values.get((site, target.target_id)) for site in preference}
        if preference and None not in costs.values():
            clients.append(Client(target.target_id, preference, costs, target.weight, target.weight))
    return SPLPOInstance(sites, clients)


def oracle_search(model, rtt_matrix, targets, sites, seed):
    """``search_configurations`` the plain way: every candidate order
    counted client by client with the oracle, the first maximum's
    ``Client``-built instance solved exhaustively."""
    candidates = [tuple(sites), tuple(reversed(sites))]
    rng = derive_rng(seed, "announce-order")
    while len(candidates) < 6:
        perm = list(sites)
        rng.shuffle(perm)
        candidates.append(tuple(perm))
    counts = {
        order: sum(reference_order.total_order(model, t.target_id, order).has_total_order
                   for t in targets)
        for order in dict.fromkeys(candidates)
    }
    order = max(counts, key=counts.get)
    instance = oracle_instance(model, rtt_matrix, targets, sites, order)
    result = get_solver("exhaustive")(instance, seed=seed)
    return OptimizationReport(
        AnycastConfig(site_order=tuple(s for s in order if s in result.open_facilities)),
        instance.mean_cost(result.open_facilities), order, counts[order], len(targets),
        result.evaluations, result.solver,
    )


def test_rank_table_instances_and_searches_match_the_client_oracle(golden_world):
    """A seeded sweep over the pairwise and RTT-heuristic two-level
    models and a flat model (slice rows): plain and weighted targets,
    an ``exclude_clients`` subset, and announcement orders holding a
    strict subset of the sites.  Every instance equals the
    ``Client``-built one and every search reports what the oracle's
    does."""
    anyopt, discovered = golden_world
    testbed, rtt = anyopt.testbed, discovered.rtt_matrix
    sites = testbed.site_ids()
    targets = list(anyopt.targets)
    rng = random.Random(29)
    weighted = [dataclasses.replace(t, weight=rng.choice([0.5, 1.0, 3.25, 7.0])) for t in targets]
    flat_sites = rng.sample(sites, 6)
    models = [
        discovered.twolevel,
        TwoLevelModel(testbed, discovered.twolevel.provider_matrix, {}, rtt,
                      SiteLevelMode.RTT_HEURISTIC),
        FlatPreferenceModel(random_matrix(rng, [t.target_id for t in targets], flat_sites)),
    ]
    for model in models:
        searched = flat_sites if isinstance(model, FlatPreferenceModel) else sites
        excluded = set(rng.sample([t.target_id for t in targets], len(targets) // 5))
        kept = [t for t in targets if t.target_id not in excluded]
        for clients, exclude in ((targets, None), (weighted, None), (targets, excluded)):
            report = search_configurations(model, rtt, clients, sites=searched, seed=3,
                                           exclude_clients=exclude)
            remaining = clients if exclude is None else kept
            assert report == oracle_search(model, rtt, remaining, searched, seed=3)
            order = report.announce_order
            strict = rng.sample(order, rng.randint(1, len(order) - 1))
            for announced in (order, tuple(strict), tuple(rng.sample(order, len(order)))):
                assert_same_instance(
                    build_splpo_instance(model, rtt, remaining, searched, announced),
                    oracle_instance(model, rtt, remaining, searched, announced))


def test_rtt_heuristic_rows_are_their_own_classes(paper_model):
    """Under the RTT heuristic the compile keeps the arrays uncopied,
    one class per row, and ranks and answers as the oracle does."""
    anyopt_model, clients = paper_model
    model = TwoLevelModel(anyopt_model.testbed, anyopt_model.twolevel.provider_matrix, {},
                          anyopt_model.rtt_matrix, SiteLevelMode.RTT_HEURISTIC)
    arrays, _, ranked, classes, _ = model._compile()
    assert ranked["prov_w"] is arrays["prov_w"] and ranked["site_w"] is arrays["site_w"]
    assert classes.tolist() == list(range(len(clients) + 1))
    asked = clients[::7] + [max(clients) + 1]
    rng = random.Random(17)
    sites = anyopt_model.testbed.site_ids()
    for order in (tuple(sites), tuple(rng.sample(sites, 9)), tuple(rng.sample(sites, 4))):
        ranking = model.ranking(asked, order)
        rtt = anyopt_model.rtt_matrix.array(ranking.sites.tolist(), asked)
        heads, head_rtts = ranking.answers(rtt)
        orders = ranking.orders()
        for row, client in enumerate(asked):
            expected = reference_order.total_order(model, client, order)
            assert ranking.valid[row] == expected.has_total_order
            if expected.has_total_order:
                assert tuple(ranking.sites[orders[row]].tolist()) == expected.order
                assert ranking.sites[heads[row]] == expected.order[0]
                assert head_rtts[row] == anyopt_model.rtt_matrix.values[(expected.order[0], client)]
            else:
                assert heads[row] == -1 and math.isnan(head_rtts[row])
