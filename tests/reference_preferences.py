"""The preference-matrix oracle: one dict of observations per client.

:class:`DictPreferenceMatrix` keeps every cell as a
:class:`PairObservation` reference in a per-client dict keyed by the
pair's frozenset, and walks those dicts client by client to answer
:meth:`winner_codes`.  The shipping
:class:`~repro.core.preferences.PreferenceMatrix` stores the same cells
as one int8 code column per pair over a shared client index; the tests
drive both with the same writes and require equal answers.
"""
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.core.preferences import PairObservation, PreferenceOutcome
from repro.util.errors import ReproError


class DictPreferenceMatrix:
    """All pairwise observations, per client, as nested dicts."""

    def __init__(self):
        self._data: Dict[int, Dict[FrozenSet[int], PairObservation]] = {}
        self._pairs: set = set()

    def record(self, client_id: int, obs: PairObservation) -> None:
        key = frozenset((obs.site_a, obs.site_b))
        self._data.setdefault(client_id, {})[key] = obs
        self._pairs.add(key)

    def record_pair(
        self,
        site_a: int,
        site_b: int,
        clients: Sequence[int],
        first: Optional[np.ndarray] = None,
        second: Optional[np.ndarray] = None,
    ) -> None:
        """:meth:`record` client by client: the UNDECIDED cell without
        winner columns, else the observation of the two winners
        (``-1`` = unmapped).  Every cell is made (and validated) before
        the first is recorded."""
        if first is None:
            cells = [PairObservation.undecided_pair(site_a, site_b)] * len(clients)
        else:
            if not len(first) == len(second) == len(clients):
                raise ReproError("winner columns must align with the clients")
            cells = [
                PairObservation(site_a, site_b, None if w1 < 0 else w1, None if w2 < 0 else w2)
                for w1, w2 in zip(np.asarray(first).tolist(), np.asarray(second).tolist())
            ]
        self._pairs.add(frozenset((site_a, site_b)))
        for client, obs in zip(clients, cells):
            self.record(client, obs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DictPreferenceMatrix):
            return NotImplemented
        return self._data == other._data

    __hash__ = None

    def cells(self) -> Dict[FrozenSet[int], Dict[int, PairObservation]]:
        out: Dict[FrozenSet[int], Dict[int, PairObservation]] = {}
        for client, row in self._data.items():
            for pair, obs in row.items():
                out.setdefault(pair, {})[client] = obs
        return out

    def clients(self) -> List[int]:
        return sorted(self._data)

    def pairs(self) -> List[FrozenSet[int]]:
        return sorted(self._pairs, key=sorted)

    def observation(self, client_id: int, site_a: int, site_b: int) -> Optional[PairObservation]:
        return self._data.get(client_id, {}).get(frozenset((site_a, site_b)))

    def winner_codes(self, clients: Sequence[int], items: Sequence[int]) -> np.ndarray:
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


def matrix_rows(matrix) -> List[list]:
    """``repro.io.serialization.matrix_to_list`` written as the walk over
    ``clients()`` x ``pairs()`` it replaced."""
    out = []
    for client in matrix.clients():
        for pair in matrix.pairs():
            obs = matrix.observation(client, *sorted(pair))
            if obs is not None:
                out.append([
                    client, obs.site_a, obs.site_b,
                    obs.winner_a_first, obs.winner_b_first, obs.undecided,
                ])
    return out
