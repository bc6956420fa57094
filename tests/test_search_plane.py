"""The search plane against oracles that live with the tests.

``SPLPOInstance.batch_cost`` scores whole frontiers of subsets through
split rank tables over clients merged by preference tuple, and
``total_orders`` ranks every client per announcement order with one
array tournament.  Each is compared with the plain form it replaced:
``SPLPOInstance.cost`` one subset at a time (and the solver loops
written over it), and ``total_order`` one client at a time.  A golden
digest pins ``compile_snapshot``'s bytes — now the model's own cached
arrays — to what the commit before the move produced.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preferences import (
    PairObservation,
    PreferenceMatrix,
    build_total_order,
    tournament,
)
from repro.core.twolevel import FlatPreferenceModel, SiteLevelMode, TwoLevelModel
from repro.measurement.rtt import RttMatrix
from repro.serve import compile_snapshot
from repro.splpo import (
    Client,
    SPLPOInstance,
    solve_exhaustive,
    solve_greedy,
    solve_local_search,
)
from repro.util.errors import ConfigurationError

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


def all_subsets(instance):
    return [
        subset
        for k in range(len(instance.facilities) + 1)
        for subset in itertools.combinations(instance.facilities, k)
    ]


PENALTIES = st.sampled_from([math.inf, 50.0])


# -- SPLPO: oracles ------------------------------------------------------------


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


class TestSolversOnTheKernel:
    @given(splpo_instances(exact=True), PENALTIES, st.data())
    @settings(**SETTINGS)
    def test_exhaustive_equals_one_subset_at_a_time(self, instance, penalty, data):
        n = len(instance.facilities)
        sizes = data.draw(st.none() | st.sets(st.integers(1, n), min_size=1))
        budget = data.draw(st.none() | st.integers(1, 2**n + 3))
        result = solve_exhaustive(
            instance, sizes=sizes, max_evaluations=budget, unserved_penalty=penalty
        )
        expected = reference_exhaustive(instance, sizes, budget, penalty)
        assert (result.open_facilities, result.cost, result.evaluations) == expected

    @given(splpo_instances(exact=False), PENALTIES)
    @settings(**SETTINGS)
    def test_exhaustive_float_winner_is_optimal(self, instance, penalty):
        result = solve_exhaustive(instance, unserved_penalty=penalty)
        _, best, evaluations = reference_exhaustive(instance, penalty=penalty)
        assert result.evaluations == evaluations
        assert result.cost == best or math.isclose(result.cost, best, rel_tol=1e-12)
        assert result.cost == instance.fast_cost(result.open_facilities, penalty)

    def test_exhaustive_budget_spans_chunks(self, monkeypatch):
        from repro.splpo import exhaustive

        monkeypatch.setattr(exhaustive, "_CHUNK", 7)
        instance = SPLPOInstance(
            list(range(6)), [Client(i, (i, 5 - i), {i: 2.0, 5 - i: 1.0}) for i in range(6)]
        )
        for budget in (1, 6, 7, 8, 20, 63, 64):
            result = solve_exhaustive(instance, max_evaluations=budget, unserved_penalty=9.0)
            expected = reference_exhaustive(instance, None, budget, 9.0)
            assert (result.open_facilities, result.cost, result.evaluations) == expected

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
    valid, orders = model.total_orders(clients, order)
    assert valid.shape == (len(clients),) and orders.shape == (len(clients), len(order))
    expected = [model.total_order(c, order) for c in clients]
    assert valid.tolist() == [r.has_total_order for r in expected]
    for row, result in zip(orders.tolist(), expected):
        if result.has_total_order:
            assert tuple(row) == result.order
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
        """The bit-set test (and, past 63 members, the sort kept for
        width) against sorting each row of wins: transitive rows,
        cyclic rows, rows with unusable cells, members a shuffled
        subset of the item axis."""
        rng = np.random.default_rng(seed)
        n_clients, n_items = 12, n + 2
        strength = rng.random((n_clients, n_items))
        first_wins = strength[:, :, None] > strength[:, None, :]
        codes = np.where(first_wins, 0, 1).astype(np.int8)          # transitive
        noisy = rng.random(codes.shape) < rng.choice([0.0, 0.02, 0.3])
        codes[noisy] = rng.integers(-1, 2, size=int(noisy.sum()))   # cycles, holes
        members = rng.permutation(n_items)[:n].tolist()
        valid, wins = tournament(codes, members)
        for c in range(n_clients):
            cells = [codes[c, members[i], members[j]] for i in range(n) for j in range(i + 1, n)]
            count = [0] * n
            for (i, j), code in zip(itertools.combinations(range(n), 2), cells):
                if code >= 0:
                    count[j if code else i] += 1
            assert wins[c].tolist() == count
            assert valid[c] == (min(cells) >= 0 and sorted(count) == list(range(n)))

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
