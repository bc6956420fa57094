"""Pairwise preferences and total-order construction.

The heart of the paper: each pairwise experiment (run twice, with the
announcement order reversed) classifies a client network's preference
between two sites as *strict* (same winner both times), *order
dependent* (the first-announced site won both times — the
arrival-order tie-break decided), or *inconsistent* (the later-announced
site won, which only multipath ECMP rehashing can explain).  Strict and
order-dependent preferences are usable for prediction; inconsistent
ones are not (S4.2).

A client's usable pairwise preferences form a tournament; the client
has a *total order* exactly when that tournament is transitive, in
which case its catchment under any enabled subset is its most preferred
enabled site (Theorems A.1/A.2).

A :class:`PreferenceMatrix` stores cells as columns: one client index
(id -> row) for the whole matrix, and per recorded pair one code column
over its rows, ``-1`` for no cell, else the cell's position in the
matrix's table of distinct :class:`PairObservation` values (a pair has
at most nine per site order, plus UNDECIDED).  Recording an experiment
is one column write and its :meth:`~PreferenceMatrix.winner_codes` one
scatter.
"""

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ReproError

#: Source of :attr:`PreferenceMatrix.stamp` values.
_STAMPS = itertools.count()


class PreferenceOutcome(enum.Enum):
    """Classification of one client's preference between two sites."""

    STRICT_A = "strict_a"
    STRICT_B = "strict_b"
    ORDER_DEPENDENT = "order_dependent"
    INCONSISTENT = "inconsistent"
    UNKNOWN = "unknown"
    #: The pairwise experiment itself failed (exhausted its retries);
    #: the cell is explicitly undecided rather than merely unmeasured.
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class PairObservation:
    """The measured winners of one pairwise experiment for one client.

    ``winner_a_first`` is the client's catchment when ``site_a`` was
    announced before ``site_b``; ``winner_b_first`` when the order was
    reversed.  None means the client was unmapped in that run.

    ``undecided`` marks a pair whose experiment itself failed
    (retries exhausted in a degraded campaign): the cell is carried
    explicitly, with both winners None, so downstream consumers can
    distinguish "experiment never completed" from "client unmapped".
    """

    site_a: int
    site_b: int
    winner_a_first: Optional[int]
    winner_b_first: Optional[int]
    undecided: bool = False

    def __post_init__(self):
        if self.site_a == self.site_b:
            raise ReproError("pairwise observation needs two distinct sites")
        for winner in (self.winner_a_first, self.winner_b_first):
            if winner is not None and winner not in (self.site_a, self.site_b):
                raise ReproError(
                    f"winner {winner} is neither {self.site_a} nor {self.site_b}"
                )
        if self.undecided and not (
            self.winner_a_first is None and self.winner_b_first is None
        ):
            raise ReproError("an undecided pair cannot have winners")

    @classmethod
    def undecided_pair(cls, site_a: int, site_b: int) -> "PairObservation":
        """The explicit UNDECIDED cell a failed experiment leaves behind."""
        return cls(site_a, site_b, None, None, undecided=True)

    def outcome(self) -> PreferenceOutcome:
        a, b = self.site_a, self.site_b
        w1, w2 = self.winner_a_first, self.winner_b_first
        if self.undecided:
            return PreferenceOutcome.UNDECIDED
        if w1 is None or w2 is None:
            return PreferenceOutcome.UNKNOWN
        if w1 == w2:
            return PreferenceOutcome.STRICT_A if w1 == a else PreferenceOutcome.STRICT_B
        if w1 == a and w2 == b:
            # Whichever was announced first won: an arrival-order tie.
            return PreferenceOutcome.ORDER_DEPENDENT
        return PreferenceOutcome.INCONSISTENT

    def winner_given(self, first_announced: int) -> Optional[int]:
        """The predicted winner when ``first_announced`` is announced
        before the other site; None when unpredictable."""
        if first_announced not in (self.site_a, self.site_b):
            raise ReproError(
                f"site {first_announced} not part of pair "
                f"({self.site_a}, {self.site_b})"
            )
        outcome = self.outcome()
        if outcome is PreferenceOutcome.STRICT_A:
            return self.site_a
        if outcome is PreferenceOutcome.STRICT_B:
            return self.site_b
        if outcome is PreferenceOutcome.ORDER_DEPENDENT:
            return first_announced
        return None


def _side(column: np.ndarray, site_a: int, site_b: int) -> np.ndarray:
    """Per cell of a winner column: 0 = ``site_a``, 1 = ``site_b``, 2 =
    unmapped, 3 = any other site (which the observation rejects)."""
    return np.where(column == site_a, 0, np.where(column == site_b, 1, np.where(column < 0, 2, 3)))


#: :meth:`PreferenceMatrix.winner_codes` games of an observation's outcome.
_GAMES = {
    PreferenceOutcome.STRICT_A: (0, 1),
    PreferenceOutcome.STRICT_B: (1, 0),
    PreferenceOutcome.ORDER_DEPENDENT: (0, 0),
}


class PreferenceMatrix:
    """All pairwise observations, as code columns (module docstring).
    A cell keeps the site order it was recorded in."""

    def __init__(self):
        self._index: Dict[int, int] = {}
        self._pairs: Dict[FrozenSet[int], np.ndarray] = {}
        self._size = 0  # rows each column holds, >= len(_index)
        self._table: List[PairObservation] = []
        self._code_of: Dict[PairObservation, int] = {}
        self._last_rows: Tuple = (None, None)  # record_pair's last clients
        #: New on every :meth:`record` / :meth:`record_pair` and unique
        #: to this matrix, so arrays derived from it can tell when they
        #: are stale.
        self.stamp = next(_STAMPS)

    def _code(self, obs: PairObservation) -> int:
        code = self._code_of.setdefault(obs, len(self._table))
        if code == len(self._table):
            self._table.append(obs)
        return code

    def _column(self, site_a: int, site_b: int) -> np.ndarray:
        """The pair's code column, all grown (doubling) to cover the index."""
        if len(self._index) > self._size:
            grow = max(len(self._index), 2 * self._size) - self._size
            self._size += grow
            for key, column in self._pairs.items():
                self._pairs[key] = np.pad(column, (0, grow), constant_values=-1)
        key = frozenset((site_a, site_b))
        if key not in self._pairs:
            self._pairs[key] = np.full(self._size, -1, dtype=np.int32)
        self.stamp = next(_STAMPS)
        return self._pairs[key]

    def record(self, client_id: int, obs: PairObservation) -> None:
        row = self._index.setdefault(client_id, len(self._index))
        self._column(obs.site_a, obs.site_b)[row] = self._code(obs)

    def record_pair(
        self,
        site_a: int,
        site_b: int,
        clients: Sequence[int],
        first: Optional[np.ndarray] = None,
        second: Optional[np.ndarray] = None,
    ) -> None:
        """:meth:`record` of one pairwise experiment for all (distinct)
        ``clients`` at once.  ``first`` / ``second`` are the winner
        columns with ``site_a`` / ``site_b`` announced first, aligned
        with ``clients``, ``-1`` where a client was unmapped; without
        them the experiment failed and every client gets the explicit
        UNDECIDED cell.  Each distinct observation is made (and
        validated) once."""
        if first is None:
            kinds = [PairObservation.undecided_pair(site_a, site_b)]
            inverse = np.zeros(len(clients), dtype=np.intp)
        else:
            first, second = np.asarray(first), np.asarray(second)
            if not len(first) == len(second) == len(clients):
                raise ReproError("winner columns must align with the clients")
            codes = _side(first, site_a, site_b) * 4 + _side(second, site_a, site_b)
            _, at, inverse = np.unique(codes, return_index=True, return_inverse=True)
            kinds = [
                PairObservation(site_a, site_b, None if w1 < 0 else w1, None if w2 < 0 else w2)
                for w1, w2 in zip(first[at].tolist(), second[at].tolist())
            ]
        last, rows = self._last_rows
        if clients is not last:
            index = self._index
            fresh = [c for c in dict.fromkeys(clients) if c not in index]
            index.update(zip(fresh, itertools.count(len(index))))
            rows = np.fromiter(map(index.__getitem__, clients), np.intp, len(clients))
            if isinstance(clients, tuple):
                self._last_rows = (clients, rows)
        codes = np.array([self._code(obs) for obs in kinds], dtype=np.int32)
        self._column(site_a, site_b)[rows] = codes[inverse.reshape(-1)]

    def cells(self) -> Dict[FrozenSet[int], Dict[int, PairObservation]]:
        """Every recorded cell, as ``{pair: {client: observation}}``."""
        ids = list(self._index)
        return {
            key: {ids[row]: self._table[column[row]] for row in found.tolist()}
            for key, column in self._pairs.items()
            if len(found := np.flatnonzero(column >= 0))
        }

    def __eq__(self, other) -> bool:
        """Two matrices are equal when they hold the same observations
        (used by the determinism tests comparing parallel and serial
        sweeps)."""
        if not isinstance(other, PreferenceMatrix):
            return NotImplemented
        return self.cells() == other.cells()

    __hash__ = None  # mutable container

    def clients(self) -> List[int]:
        return sorted(self._index)

    def pairs(self) -> List[FrozenSet[int]]:
        return sorted(self._pairs, key=sorted)

    def observation(self, client_id: int, site_a: int, site_b: int) -> Optional[PairObservation]:
        column = self._pairs.get(frozenset((site_a, site_b)))
        row = self._index.get(client_id)
        code = -1 if column is None or row is None else column[row]
        return self._table[code] if code >= 0 else None

    def winner(self, client_id: int, site_a: int, site_b: int, first_announced: int) -> Optional[int]:
        """Predicted pairwise winner for a client under a given
        announcement order; None if unmeasured or unpredictable."""
        obs = self.observation(client_id, site_a, site_b)
        if obs is None:
            return None
        return obs.winner_given(first_announced)

    def winner_codes(self, clients: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """Every effective pairwise winner as a read-only int8
        ``[len(clients), len(items), len(items)]`` array.

        ``codes[c, i, j]`` answers :meth:`winner` for client
        ``clients[c]`` when ``items[i]`` is announced before
        ``items[j]``: ``0`` = ``items[i]`` wins, ``1`` = ``items[j]``
        wins, ``-1`` = no usable winner (unmeasured, inconsistent or
        undecided).  This is the encoding model snapshots store and
        :func:`tournament` consumes: one scatter per pair of its code
        column through every observation's games.
        """
        n = len(items)
        position = {item: i for i, item in enumerate(items)}
        # games[code]: the cells at [low site, high site] and the
        # reverse; the last row is what -1 (no cell) reads.
        games = np.full((len(self._table) + 1, 2), -1, dtype=np.int8)
        for code, obs in enumerate(self._table):
            game = _GAMES.get(obs.outcome())
            if game is not None:
                games[code] = game if obs.site_a < obs.site_b else game[::-1]
        rows = np.fromiter((self._index.get(c, -1) for c in clients), np.intp, len(clients))
        out = np.full((len(clients), n, n), -1, dtype=np.int8)
        for key, column in self._pairs.items():
            low, high = (position.get(site) for site in sorted(key))
            if low is not None and high is not None:
                # Row -1, a client the index lacks, reads the appended no-cell.
                out[:, low, high], out[:, high, low] = games[np.append(column, -1)[rows]].T
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class TotalOrderResult:
    """Outcome of total-order construction for one client."""

    client_id: int
    order: Optional[Tuple[int, ...]]
    reason: str = ""

    @property
    def has_total_order(self) -> bool:
        return self.order is not None

    def most_preferred(self, enabled: Iterable[int]) -> Optional[int]:
        """The client's predicted catchment among ``enabled`` sites."""
        if self.order is None:
            return None
        enabled = set(enabled)
        for site in self.order:
            if site in enabled:
                return site
        return None


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """An ``n``-member round-robin's pairs ``(i, j)``, ``i < j``, their
    ``[2, pairs, n]`` incidence and ``sum(k * k for k in range(n))``."""
    i, j = np.triu_indices(n, 1)
    incidence = np.zeros((2, len(i), n))
    incidence[0, np.arange(len(i)), i] = incidence[1, np.arange(len(j)), j] = 1
    return i, j, incidence, float(sum(k * k for k in range(n)))


def tournament(codes: np.ndarray, members: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Every client's round-robin over ``members`` at once: whether
    its games form a total order, and that order.

    ``codes`` is a :meth:`PreferenceMatrix.winner_codes` array and
    ``members`` lists positions on its item axes in announcement order.
    Returns ``(valid, wins)``: whether each client's tournament is
    usable and transitive, and its ``[clients, len(members)]`` int16
    win counts — under ``valid`` a permutation of ``0..n-1``, so
    ``argmax`` is the top element and a descending sort the total
    order.  The games are one gather and the counts two products,
    exact in float64; a tournament is usable and transitive iff its
    counts' squares sum to that of ``0..n-1`` (DESIGN.md, "Lookup").
    """
    members = np.asarray(members, dtype=np.intp)
    i, j, incidence, squares = _round_robin(len(members))
    games = codes[:, members[i], members[j]]
    wins = (games == 0).astype(np.float64) @ incidence[0]
    wins += (games == 1).astype(np.float64) @ incidence[1]
    return np.square(wins) @ np.ones(len(members)) == squares, wins.astype(np.int16)


def find_cycle_witness(
    matrix: PreferenceMatrix,
    client_id: int,
    items: Sequence[int],
    announce_order: Sequence[int],
) -> Optional[Tuple[int, int, int]]:
    """The first intransitivity witness in a client's tournament.

    A tournament is intransitive exactly when it contains a directed
    3-cycle, so the witness is a triple ``(a, b, c)`` whose three
    pairwise games have three distinct winners (each item beats exactly
    one of the other two).  Triples are scanned in ``items`` order, so
    the witness is deterministic.  Returns None when any pair lacks an
    effective winner (those cells are reported separately) or the
    tournament is transitive.
    """
    items = list(items)
    if len(items) < 3:
        return None
    position = {site: idx for idx, site in enumerate(announce_order)}
    winners: Dict[Tuple[int, int], int] = {}
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            first = a if position[a] < position[b] else b
            winner = matrix.winner(client_id, a, b, first)
            if winner is None:
                return None
            winners[(a, b)] = winner
    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            for k in range(j + 1, len(items)):
                b, c = items[j], items[k]
                trio = {winners[(a, b)], winners[(b, c)], winners[(a, c)]}
                if len(trio) == 3:
                    return (a, b, c)
    return None
