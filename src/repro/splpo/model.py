"""SPLPO problem model and assignment evaluation.

The defining constraint (Appendix B, equation 6): each client is served
by its most-preferred open facility, regardless of cost.  The optimizer
only controls *which* facilities open.
"""

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ConfigurationError, ReproError

#: Facilities per split table (``2**8`` rows each; ``np.packbits``
#: yields exactly these byte-wide mask slices).
_TABLE_BITS = 8
#: Cap on the kernel's transient arrays per block of masks: small
#: enough to stay in a core's L2 cache (measured fastest at 128-256 KB
#: on the 15-site search) and to leave peak RSS where it was.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class Client:
    """One SPLPO client.

    Attributes:
        client_id: identifier (a target id in the anycast mapping).
        preference: facility ids, most preferred first; the client is
            served by the first open facility in this list.
        costs: service cost per facility (RTT in the anycast mapping).
        weight: multiplier on the client's cost in the objective
            (e.g. query volume).
        load: load the client imposes on its serving facility, used by
            capacity constraints.
    """

    client_id: int
    preference: Tuple[int, ...]
    costs: Mapping[int, float]
    weight: float = 1.0
    load: float = 1.0

    def __post_init__(self):
        if not self.preference:
            raise ConfigurationError(f"client {self.client_id}: empty preference")
        if len(set(self.preference)) != len(self.preference):
            raise ConfigurationError(f"client {self.client_id}: duplicate preferences")
        missing = [f for f in self.preference if f not in self.costs]
        if missing:
            raise ConfigurationError(
                f"client {self.client_id}: no cost for facilities {missing}"
            )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run."""

    open_facilities: FrozenSet[int]
    cost: float
    evaluations: int
    solver: str


class SPLPOInstance:
    """An SPLPO instance with optional facility capacities."""

    def __init__(
        self,
        facilities: Sequence[int],
        clients: Sequence[Client],
        open_costs: Optional[Mapping[int, float]] = None,
        capacities: Optional[Mapping[int, float]] = None,
    ):
        if len(set(facilities)) != len(facilities):
            raise ConfigurationError("duplicate facilities")
        self.facilities: Tuple[int, ...] = tuple(facilities)
        self.clients: Tuple[Client, ...] = tuple(clients)
        self.open_costs: Dict[int, float] = dict(open_costs or {})
        self.capacities: Optional[Dict[int, float]] = (
            dict(capacities) if capacities is not None else None
        )
        facility_set = set(self.facilities)
        for client in self.clients:
            unknown = [f for f in client.preference if f not in facility_set]
            if unknown:
                raise ConfigurationError(
                    f"client {client.client_id} prefers unknown facilities {unknown}"
                )
        self._index = {f: i for i, f in enumerate(self.facilities)}
        #: Lazily built ``(per-client, merged)`` :class:`_RankTables`,
        #: indexed by ``_score``'s ``merged`` flag.
        self._kernels: Optional[Tuple["_RankTables", "_RankTables"]] = None

    # -- assignment -----------------------------------------------------------

    def assignment(self, open_facilities: Iterable[int]) -> Dict[int, Optional[int]]:
        """client id -> serving facility (None when no open facility
        appears in the client's preference list)."""
        open_set = set(open_facilities)
        out: Dict[int, Optional[int]] = {}
        for client in self.clients:
            out[client.client_id] = next(
                (f for f in client.preference if f in open_set), None
            )
        return out

    def cost(self, open_facilities: Iterable[int], unserved_penalty: float = math.inf) -> float:
        """Total weighted cost of a facility subset.

        Infeasible subsets (capacity exceeded, or a client unserved
        with an infinite penalty) return ``math.inf``.
        """
        open_set = frozenset(open_facilities)
        if not open_set:
            return math.inf
        unknown = open_set - set(self.facilities)
        if unknown:
            raise ConfigurationError(f"unknown facilities {sorted(unknown)}")
        total = sum(self.open_costs.get(f, 0.0) for f in open_set)
        loads: Dict[int, float] = {f: 0.0 for f in open_set}
        for client in self.clients:
            facility = next((f for f in client.preference if f in open_set), None)
            if facility is None:
                if math.isinf(unserved_penalty):
                    return math.inf
                total += client.weight * unserved_penalty
                continue
            total += client.weight * client.costs[facility]
            loads[facility] += client.load
        if self.capacities is not None:
            for f, load in loads.items():
                if load > self.capacities.get(f, math.inf):
                    return math.inf
        return total

    def mean_cost(self, open_facilities: Iterable[int]) -> float:
        """Average (unweighted by ``weight``) served-client cost."""
        open_set = frozenset(open_facilities)
        costs: List[float] = []
        for client in self.clients:
            facility = next((f for f in client.preference if f in open_set), None)
            if facility is not None:
                costs.append(client.costs[facility])
        if not costs:
            raise ReproError("no client is served by this facility subset")
        return sum(costs) / len(costs)

    def weighted_mean_cost(self, open_facilities: Iterable[int]) -> float:
        """Workload-weighted mean served-client cost (Appendix B's
        "weigh each host's RTT with its workload")."""
        open_set = frozenset(open_facilities)
        total = 0.0
        weight_sum = 0.0
        for client in self.clients:
            facility = next((f for f in client.preference if f in open_set), None)
            if facility is not None:
                total += client.weight * client.costs[facility]
                weight_sum += client.weight
        if weight_sum == 0.0:
            raise ReproError("no client is served by this facility subset")
        return total / weight_sum

    # -- vectorized evaluation ------------------------------------------------

    def masks(self, subsets: Iterable[Iterable[int]]) -> np.ndarray:
        """Facility subsets as rows of a boolean ``[len(subsets),
        len(facilities)]`` matrix — the input of :meth:`batch_cost`.
        Unknown facilities raise :class:`ConfigurationError`, as in
        :meth:`cost`."""
        subsets = [frozenset(subset) for subset in subsets]
        rows = np.zeros((len(subsets), len(self.facilities)), dtype=bool)
        for row, subset in zip(rows, subsets):
            unknown = subset - self._index.keys()
            if unknown:
                raise ConfigurationError(f"unknown facilities {sorted(unknown)}")
            row[[self._index[f] for f in subset]] = True
        return rows

    def batch_cost(self, masks, unserved_penalty: float = math.inf) -> np.ndarray:
        """:meth:`cost` of many subsets at once, as a float64 vector.

        ``masks`` is a boolean ``[subsets, len(facilities)]`` matrix
        (see :meth:`masks`).  Clients with identical preference tuples
        are scored as one row (the objective is linear in the clients),
        so a result can differ from :meth:`cost` in the last few ulps;
        costs that need no rounding — integers — are exact, and two
        subsets with the same assignment always score the same float.
        Capacity-constrained instances are scored by :meth:`cost`.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != len(self.facilities):
            raise ConfigurationError(
                f"masks must be [subsets, {len(self.facilities)}], got {masks.shape}"
            )
        if self.capacities is not None:
            subsets = (
                [f for f, is_open in zip(self.facilities, row) if is_open]
                for row in masks.tolist()
            )
            return np.array([self.cost(s, unserved_penalty) for s in subsets], dtype=np.float64)
        return self._score(masks, unserved_penalty, merged=True)

    def fast_cost(self, open_facilities: Iterable[int], unserved_penalty: float = math.inf) -> float:
        """Vectorized :meth:`cost` of one subset.

        The one-mask call of the :meth:`batch_cost` kernel, but over
        unmerged clients summed in instance order: this is the float
        the solvers report, whichever way they searched.
        """
        if self.capacities is not None:
            return self.cost(open_facilities, unserved_penalty)
        return float(self._score(self.masks([open_facilities]), unserved_penalty, merged=False)[0])

    def _score(self, masks: np.ndarray, unserved_penalty: float, merged: bool) -> np.ndarray:
        if self._kernels is None:
            self._kernels = self._build_kernels()
        totals = self._kernels[merged].score(masks, unserved_penalty)
        if self.open_costs:
            opening = np.array([self.open_costs.get(f, 0.0) for f in self.facilities])
            totals += np.where(masks, opening, 0.0).sum(axis=1)
        totals[~masks.any(axis=1)] = math.inf
        return totals

    def _build_kernels(self) -> Tuple["_RankTables", "_RankTables"]:
        """The kernel over single clients, and the one over clients
        merged by preference tuple (weighted costs summed per rank —
        exact, because the objective is linear in the clients)."""
        n_f = len(self.facilities)
        row, rank, column, value = [], [], [], []
        for i, client in enumerate(self.clients):
            row.extend([i] * len(client.preference))
            rank.extend(range(len(client.preference)))
            column.extend(self._index[f] for f in client.preference)
            value.extend(client.weight * client.costs[f] for f in client.preference)
        row = np.array(row, dtype=np.intp)
        rank = np.array(rank, dtype=np.intp)
        ranks = np.full((len(self.clients), n_f), n_f, dtype=np.int32)
        ranks[row, np.array(column, dtype=np.intp)] = rank
        cost_by_rank = np.zeros((len(self.clients), n_f + 1), dtype=np.float64)
        cost_by_rank[row, rank] = value
        weights = np.array([c.weight for c in self.clients], dtype=np.float64)

        groups: Dict[Tuple[int, ...], int] = {}
        group_of = np.array(
            [groups.setdefault(c.preference, len(groups)) for c in self.clients], dtype=np.intp
        )
        first_member = np.unique(group_of, return_index=True)[1]
        merged_costs = np.zeros((len(groups), n_f + 1), dtype=np.float64)
        np.add.at(merged_costs, group_of, cost_by_rank)
        merged_weights = np.bincount(group_of, weights, minlength=len(groups))
        return (
            _RankTables(ranks, cost_by_rank, weights),
            _RankTables(ranks[first_member], merged_costs, merged_weights),
        )


class _RankTables:
    """The table-lookup evaluation kernel over a set of client rows.

    ``ranks[g, f]`` is the rank row ``g`` gives facility ``f`` (or
    ``n_f`` if it never uses it) and ``cost_by_rank[g, r]`` its
    weighted cost when served by its rank-``r`` choice, with one extra
    *unserved* slot at ``r = n_f``.  A subset's cost is the row-sum of
    ``cost_by_rank[g, best rank among the open facilities]``, and that
    best rank is a minimum over byte-wide slices of the mask, each
    answered by a table ``T_k[slice value]`` precomputed for all
    ``2**8`` values.  Tables hold ``g * slots + rank`` so the minimum
    is directly an index into the flattened cost matrix.
    """

    def __init__(self, ranks: np.ndarray, cost_by_rank: np.ndarray, weights: np.ndarray):
        n_rows, n_f = ranks.shape
        self._cost_by_rank = cost_by_rank
        self._weights = weights
        first_slot = np.arange(n_rows, dtype=np.int32) * (n_f + 1)
        ranks = ranks + first_slot[:, None]

        self._tables = []
        for lo in range(0, n_f, _TABLE_BITS):
            bits = min(_TABLE_BITS, n_f - lo)
            table = np.empty((1 << bits, n_rows), dtype=np.int32)
            table[0] = first_slot + n_f
            for bit in range(bits):
                # Lowest-bit recurrence, one doubling per facility.
                np.minimum(
                    table[: 1 << bit], ranks[:, lo + bit], out=table[1 << bit : 2 << bit]
                )
            self._tables.append(table)
        #: ``(penalty, flattened cost_by_rank)`` of the last call.
        self._priced: Tuple[Optional[float], Optional[np.ndarray]] = (None, None)

    def _flat_costs(self, unserved_penalty: float) -> np.ndarray:
        if self._priced[0] != unserved_penalty:
            priced = self._cost_by_rank.copy()
            # Not weight * inf: a zero-weight client left unserved still
            # makes the subset infeasible.
            priced[:, -1] = (
                math.inf if math.isinf(unserved_penalty) else self._weights * unserved_penalty
            )
            self._priced = (unserved_penalty, priced.ravel())
        return self._priced[1]

    def score(self, masks: np.ndarray, unserved_penalty: float) -> np.ndarray:
        flat = self._flat_costs(unserved_penalty)
        n_rows = len(self._weights)
        words = np.packbits(masks, axis=1, bitorder="little")
        totals = np.empty(len(masks), dtype=np.float64)
        # Per mask: two int32 gathers and one float64 gather of n_rows.
        block = max(1, _BLOCK_BYTES // (16 * max(1, n_rows)))
        for start in range(0, len(masks), block):
            chunk = words[start : start + block]
            index = self._tables[0][chunk[:, 0]]
            for k in range(1, len(self._tables)):
                np.minimum(index, self._tables[k][chunk[:, k]], out=index)
            totals[start : start + block] = flat.take(index).sum(axis=1)
        return totals
