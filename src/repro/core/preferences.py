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
"""

import enum
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
    def shared(cls, cache: dict, site_a: int, site_b: int, *winners) -> "PairObservation":
        """The instance ``cache`` (one dict per pair) holds for these
        winners, made on first sight: observations are frozen and
        validated at construction, and a pair has at most nine distinct
        ones for any number of clients."""
        obs = cache.get(winners)
        if obs is None:
            obs = cache[winners] = cls(site_a, site_b, *winners)
        return obs

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


class PreferenceMatrix:
    """All pairwise observations, per client.

    Keys are target (client) ids; each client maps site pairs to a
    :class:`PairObservation`.
    """

    def __init__(self):
        self._data: Dict[int, Dict[FrozenSet[int], PairObservation]] = {}
        self._pairs: set = set()
        #: New on every :meth:`record` / :meth:`record_pair` and unique
        #: to this matrix, so arrays derived from it can tell when they
        #: are stale.
        self.stamp = next(_STAMPS)

    def record(self, client_id: int, obs: PairObservation) -> None:
        key = frozenset((obs.site_a, obs.site_b))
        self._data.setdefault(client_id, {})[key] = obs
        self._pairs.add(key)
        self.stamp = next(_STAMPS)

    def record_pair(
        self,
        site_a: int,
        site_b: int,
        clients: Sequence[int],
        first: Optional[np.ndarray] = None,
        second: Optional[np.ndarray] = None,
    ) -> None:
        """:meth:`record` of one pairwise experiment for all ``clients``
        at once.  ``first`` / ``second`` are the winner columns with
        ``site_a`` / ``site_b`` announced first, aligned with
        ``clients``, ``-1`` where a client was unmapped; without them the
        experiment failed and every client gets the explicit UNDECIDED
        cell.  A pair has at most nine distinct observations, so each is
        made (and validated) once."""
        if first is None:
            cells = [PairObservation.undecided_pair(site_a, site_b)] * len(clients)
        else:
            first, second = np.asarray(first), np.asarray(second)
            if not len(first) == len(second) == len(clients):
                raise ReproError("winner columns must align with the clients")
            codes = _side(first, site_a, site_b) * 4 + _side(second, site_a, site_b)
            kinds, at, inverse = np.unique(codes, return_index=True, return_inverse=True)
            table = np.empty(len(kinds), dtype=object)
            for k, j in enumerate(at.tolist()):
                w1, w2 = int(first[j]), int(second[j])
                table[k] = PairObservation(
                    site_a, site_b, None if w1 < 0 else w1, None if w2 < 0 else w2
                )
            cells = table[inverse.reshape(-1)].tolist()
        key = frozenset((site_a, site_b))
        data = self._data
        for client, obs in zip(clients, cells):
            row = data.get(client)
            if row is None:
                row = data[client] = {}
            row[key] = obs
        self._pairs.add(key)
        self.stamp = next(_STAMPS)

    def __eq__(self, other) -> bool:
        """Two matrices are equal when they hold the same observations
        (used by the determinism tests comparing parallel and serial
        sweeps)."""
        if not isinstance(other, PreferenceMatrix):
            return NotImplemented
        return self._data == other._data

    __hash__ = None  # mutable container

    def clients(self) -> List[int]:
        return sorted(self._data)

    def pairs(self) -> List[FrozenSet[int]]:
        return sorted(self._pairs, key=sorted)

    def observation(self, client_id: int, site_a: int, site_b: int) -> Optional[PairObservation]:
        return self._data.get(client_id, {}).get(frozenset((site_a, site_b)))

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
        :func:`tournament` consumes.
        """
        n = len(items)
        position = {item: i for i, item in enumerate(items)}
        buf = bytearray(b"\xff") * (len(clients) * n * n)
        for c, client in enumerate(clients):
            base = c * n * n
            for obs in self._data.get(client, {}).values():
                ia, ib = position.get(obs.site_a), position.get(obs.site_b)
                if ia is None or ib is None:
                    continue
                outcome = obs.outcome()
                # (a announced first, b announced first), each relative
                # to its own (first, second) element order.
                if outcome is PreferenceOutcome.STRICT_A:
                    a_first, b_first = 0, 1
                elif outcome is PreferenceOutcome.STRICT_B:
                    a_first, b_first = 1, 0
                elif outcome is PreferenceOutcome.ORDER_DEPENDENT:
                    a_first, b_first = 0, 0
                else:
                    continue
                buf[base + ia * n + ib] = a_first
                buf[base + ib * n + ia] = b_first
        return np.frombuffer(bytes(buf), dtype=np.int8).reshape(len(clients), n, n)


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


def build_total_order(
    matrix: PreferenceMatrix,
    client_id: int,
    items: Sequence[int],
    announce_order: Sequence[int],
) -> TotalOrderResult:
    """Construct a client's total order over ``items`` for a given
    announcement order.

    Effective pairwise winners are looked up with the first-announced
    site of each pair taken from ``announce_order``; a transitive
    tournament yields the total order, anything else yields none.
    """
    items = list(items)
    if len(items) < 2:
        return TotalOrderResult(client_id, tuple(items))
    position = {site: idx for idx, site in enumerate(announce_order)}
    missing = [s for s in items if s not in position]
    if missing:
        raise ReproError(f"items {missing} absent from announcement order")

    wins: Dict[int, int] = {s: 0 for s in items}
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            first = a if position[a] < position[b] else b
            winner = matrix.winner(client_id, a, b, first)
            if winner is None:
                obs = matrix.observation(client_id, a, b)
                reason = "unmeasured pair" if obs is None else obs.outcome().value
                return TotalOrderResult(client_id, None, reason=f"{reason}: ({a}, {b})")
            wins[winner] += 1

    ordered = sorted(items, key=lambda s: -wins[s])
    # A tournament is transitive iff its win counts are a permutation
    # of {0, 1, ..., n-1}.
    if sorted(wins.values()) != list(range(len(items))):
        return TotalOrderResult(client_id, None, reason="cyclic preferences")
    return TotalOrderResult(client_id, tuple(ordered))


def tournament(codes: np.ndarray, members: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Every client's round-robin over ``members`` at once — the array
    form of :func:`build_total_order`.

    ``codes`` is a :meth:`PreferenceMatrix.winner_codes` array and
    ``members`` lists positions on its item axes in announcement order.
    Returns ``(valid, wins)``: whether each client's tournament is
    usable and transitive, and its ``[clients, len(members)]`` win
    counts — under ``valid`` a permutation of ``0..n-1``, so
    ``argmax`` is the top element and a descending sort the total
    order.
    """
    n_clients = codes.shape[0]
    n = len(members)
    wins = np.zeros((n_clients, n), dtype=np.int16)
    usable = np.ones(n_clients, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            code = codes[:, members[i], members[j]]
            usable &= code >= 0
            wins[:, i] += code == 0
            wins[:, j] += code == 1
    # Transitive iff win counts are a permutation of 0..n-1: n counts in
    # that range are one iff they set all n bits.  (A sort of int16 rows
    # is numpy's radix sort, three times the cost on rows this short;
    # it is kept for tournaments wider than an int64.)
    if n < 64:
        bits = np.bitwise_or.reduce(np.left_shift(1, wins, dtype=np.int64), axis=1)
        transitive = bits == (1 << n) - 1
    else:
        transitive = (np.sort(wins, axis=1) == np.arange(n)).all(axis=1)
    return usable & transitive, wins


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
