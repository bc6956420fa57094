"""Tests for pairwise preferences and total-order construction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preferences import (
    PairObservation,
    PreferenceMatrix,
    PreferenceOutcome,
    TotalOrderResult,
)
from repro.io.serialization import matrix_to_list
from repro.util.errors import ReproError

from tests.reference_order import build_total_order
from tests.reference_preferences import DictPreferenceMatrix, matrix_rows


class TestPairObservation:
    def test_same_sites_rejected(self):
        with pytest.raises(ReproError):
            PairObservation(1, 1, 1, 1)

    def test_foreign_winner_rejected(self):
        with pytest.raises(ReproError):
            PairObservation(1, 2, 3, 1)

    def test_strict_a(self):
        obs = PairObservation(1, 2, 1, 1)
        assert obs.outcome() is PreferenceOutcome.STRICT_A
        assert obs.winner_given(1) == 1
        assert obs.winner_given(2) == 1

    def test_strict_b(self):
        obs = PairObservation(1, 2, 2, 2)
        assert obs.outcome() is PreferenceOutcome.STRICT_B
        assert obs.winner_given(1) == 2

    def test_order_dependent(self):
        # First-announced wins both times: an arrival-order tie.
        obs = PairObservation(1, 2, winner_a_first=1, winner_b_first=2)
        assert obs.outcome() is PreferenceOutcome.ORDER_DEPENDENT
        assert obs.winner_given(1) == 1
        assert obs.winner_given(2) == 2

    def test_inconsistent(self):
        # The *later*-announced site won both times: only ECMP noise
        # explains this.
        obs = PairObservation(1, 2, winner_a_first=2, winner_b_first=1)
        assert obs.outcome() is PreferenceOutcome.INCONSISTENT
        assert obs.winner_given(1) is None

    def test_unknown_when_unmapped(self):
        obs = PairObservation(1, 2, None, 2)
        assert obs.outcome() is PreferenceOutcome.UNKNOWN

    def test_winner_given_requires_member_site(self):
        obs = PairObservation(1, 2, 1, 1)
        with pytest.raises(ReproError):
            obs.winner_given(3)


class TestPreferenceMatrix:
    def test_record_and_lookup(self):
        m = PreferenceMatrix()
        m.record(7, PairObservation(1, 2, 1, 1))
        assert m.observation(7, 1, 2).outcome() is PreferenceOutcome.STRICT_A
        assert m.observation(7, 2, 1) is m.observation(7, 1, 2)

    def test_missing_observation_none(self):
        m = PreferenceMatrix()
        assert m.observation(7, 1, 2) is None
        assert m.winner(7, 1, 2, 1) is None

    def test_clients_and_pairs(self):
        m = PreferenceMatrix()
        m.record(7, PairObservation(1, 2, 1, 1))
        m.record(8, PairObservation(2, 3, 3, 3))
        assert m.clients() == [7, 8]
        assert len(m.pairs()) == 2


def strict_matrix(client, ranking):
    """Build a matrix where `client` strictly prefers ranking[0] >
    ranking[1] > ..."""
    m = PreferenceMatrix()
    for i, a in enumerate(ranking):
        for b in ranking[i + 1:]:
            lo, hi = min(a, b), max(a, b)
            winner = a  # a comes earlier in ranking
            m.record(client, PairObservation(lo, hi, winner, winner))
    return m


class TestBuildTotalOrder:
    def test_strict_transitive(self):
        m = strict_matrix(7, [3, 1, 2])
        result = build_total_order(m, 7, [1, 2, 3], announce_order=[1, 2, 3])
        assert result.order == (3, 1, 2)

    def test_single_item_trivial(self):
        m = PreferenceMatrix()
        result = build_total_order(m, 7, [5], announce_order=[5])
        assert result.order == (5,)

    def test_missing_pair_no_order(self):
        m = strict_matrix(7, [1, 2])
        result = build_total_order(m, 7, [1, 2, 3], announce_order=[1, 2, 3])
        assert not result.has_total_order
        assert "unmeasured" in result.reason

    def test_cycle_detected(self):
        m = PreferenceMatrix()
        m.record(7, PairObservation(1, 2, 1, 1))  # 1 > 2
        m.record(7, PairObservation(2, 3, 2, 2))  # 2 > 3
        m.record(7, PairObservation(1, 3, 3, 3))  # 3 > 1: cycle
        result = build_total_order(m, 7, [1, 2, 3], announce_order=[1, 2, 3])
        assert not result.has_total_order
        assert result.reason == "cyclic preferences"

    def test_order_dependent_resolved_by_announce_order(self):
        m = PreferenceMatrix()
        m.record(7, PairObservation(1, 2, winner_a_first=1, winner_b_first=2))
        first = build_total_order(m, 7, [1, 2], announce_order=[1, 2])
        second = build_total_order(m, 7, [1, 2], announce_order=[2, 1])
        assert first.order == (1, 2)
        assert second.order == (2, 1)

    def test_inconsistent_pair_blocks_order(self):
        m = PreferenceMatrix()
        m.record(7, PairObservation(1, 2, winner_a_first=2, winner_b_first=1))
        result = build_total_order(m, 7, [1, 2], announce_order=[1, 2])
        assert not result.has_total_order
        assert "inconsistent" in result.reason

    def test_item_missing_from_announce_order_raises(self):
        m = strict_matrix(7, [1, 2])
        with pytest.raises(ReproError):
            build_total_order(m, 7, [1, 2], announce_order=[1])


class TestTotalOrderResult:
    def test_most_preferred_respects_enabled_subset(self):
        result = TotalOrderResult(7, (3, 1, 2))
        assert result.most_preferred([1, 2]) == 1
        assert result.most_preferred([2]) == 2
        assert result.most_preferred([3, 2]) == 3

    def test_most_preferred_empty_enabled(self):
        result = TotalOrderResult(7, (3, 1, 2))
        assert result.most_preferred([]) is None

    def test_no_order_predicts_nothing(self):
        result = TotalOrderResult(7, None, reason="cyclic")
        assert result.most_preferred([1, 2]) is None


# --- the columns against the per-client dict oracle ---------------------------

SITES = (1, 2, 3, 4)
CLIENT_POOL = (5, 70, 71, 900, 12345)
#: Winners a record may carry (-1 / None = unmapped) or must reject (9).
WINNER = st.sampled_from((0, 1, -1))

site_pairs = st.tuples(st.sampled_from(SITES), st.sampled_from(SITES)).filter(
    lambda p: p[0] != p[1]
)


@st.composite
def pair_writes(draw, groups):
    """One ``record_pair``: a site order, a client group (a shared
    tuple, so the matrix's last-rows memo is exercised), and winner
    columns (None: the experiment failed)."""
    a, b = draw(site_pairs)
    clients = draw(st.sampled_from(groups))
    if draw(st.booleans()) and draw(st.booleans()):
        return ("pair", a, b, clients, None, None)
    columns = [
        [(a, b, -1)[draw(WINNER)] for _ in clients] for _ in range(2)
    ]
    if clients and draw(st.integers(0, 9)) == 0:
        columns[0][draw(st.integers(0, len(clients) - 1))] = 9  # rejected
    return ("pair", a, b, clients, np.array(columns[0], dtype=np.int64), np.array(columns[1]))


@st.composite
def cell_writes(draw):
    """One ``record``, in either site order, undecided or not."""
    a, b = draw(site_pairs)
    client = draw(st.sampled_from(CLIENT_POOL + (-3, 40)))
    if draw(st.integers(0, 4)) == 0:
        return ("cell", client, PairObservation.undecided_pair(a, b))
    w1, w2 = ((a, b, None)[draw(WINNER)] for _ in range(2))
    return ("cell", client, PairObservation(a, b, w1, w2))


@st.composite
def write_sequences(draw):
    groups = draw(
        st.lists(
            st.lists(st.sampled_from(CLIENT_POOL), unique=True).map(tuple),
            min_size=1,
            max_size=3,
        )
    )
    return draw(st.lists(st.one_of(pair_writes(groups), cell_writes()), max_size=14))


def apply_writes(matrix, writes):
    for write in writes:
        if write[0] == "cell":
            matrix.record(write[1], write[2])
            continue
        try:
            matrix.record_pair(*write[1:])
        except ReproError:
            pass  # a foreign winner: both sides reject the whole pair
    return matrix


class TestColumnsAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(write_sequences(), st.data())
    def test_same_answers(self, writes, data):
        columns = apply_writes(PreferenceMatrix(), writes)
        oracle = apply_writes(DictPreferenceMatrix(), writes)
        assert columns.clients() == oracle.clients()
        assert columns.pairs() == oracle.pairs()
        for client in CLIENT_POOL + (-3, 40, 6):
            for a, b in itertools.permutations(SITES + (8,), 2):
                assert columns.observation(client, a, b) == oracle.observation(client, a, b)
        assert columns.cells() == oracle.cells()
        assert matrix_to_list(columns) == matrix_rows(oracle) == matrix_rows(columns)
        clients = data.draw(
            st.lists(st.sampled_from(CLIENT_POOL + (-3, 40, 6, None)), max_size=6)
        )
        items = data.draw(st.permutations(SITES + (8,)))[: data.draw(st.integers(0, 5))]
        got = columns.winner_codes(clients, items)
        assert got.dtype == np.int8 and not got.flags.writeable
        np.testing.assert_array_equal(got, oracle.winner_codes(clients, items))
        # Equality: against a matrix of a prefix of the same writes.
        cut = data.draw(st.integers(0, len(writes)))
        assert (columns == apply_writes(PreferenceMatrix(), writes[:cut])) == (
            oracle == apply_writes(DictPreferenceMatrix(), writes[:cut])
        )
        assert columns == apply_writes(PreferenceMatrix(), writes)

    def test_record_pair_cells_share_their_observation(self):
        matrix = PreferenceMatrix()
        clients = tuple(range(100))
        winners = np.array([1, 2, -1, 1] * 25)
        matrix.record_pair(1, 2, clients, winners, winners)
        assert matrix.observation(0, 1, 2) is matrix.observation(3, 2, 1)
        assert len({id(matrix.observation(c, 1, 2)) for c in clients}) == 3

    def test_a_rejected_pair_records_nothing(self):
        matrix = PreferenceMatrix()
        with pytest.raises(ReproError):
            matrix.record_pair(1, 2, (5, 6), np.array([1, 3]), np.array([1, 2]))
        assert matrix.clients() == [] and matrix.pairs() == []
        assert matrix == PreferenceMatrix()
