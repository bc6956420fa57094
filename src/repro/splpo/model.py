"""SPLPO problem model and assignment evaluation.

The defining constraint (Appendix B, equation 6): each client is served
by its most-preferred open facility, regardless of cost.  The optimizer
only controls *which* facilities open.

An instance is one per-client rank table, built from :class:`Client`
values or from rows of preferences that classes of clients share; every
evaluation reads that table, and ``Client`` views of it are built only
for the scalar ``cost``.
"""

import itertools
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
        try:
            total = sum(map(self.costs.__getitem__, self.preference))
        except KeyError:
            missing = [f for f in self.preference if f not in self.costs]
            raise ConfigurationError(
                f"client {self.client_id}: no cost for facilities {missing}"
            ) from None
        # A NaN cost would hide every other score from a solver's argmin,
        # and an infinite one cancels to NaN in SPLPOInstance.subset_costs.
        # A finite sum has finite terms; only an overflowing one is looked into.
        if not math.isfinite(total):
            bad = [f for f in self.preference if not math.isfinite(self.costs[f])]
            if bad:
                raise ConfigurationError(
                    f"client {self.client_id}: non-finite cost for facilities {bad}"
                )
        if not 0.0 <= self.weight < math.inf:
            raise ConfigurationError(
                f"client {self.client_id}: weight must be finite and non-negative, "
                f"got {self.weight}"
            )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run."""

    open_facilities: FrozenSet[int]
    cost: float
    evaluations: int
    solver: str


class SPLPOInstance:
    """An SPLPO instance with optional facility capacities, held as
    ``ranks[c, f]`` (the rank client ``c`` gives facility ``f``, else
    ``len(facilities)``), ``rank_costs[c, r]`` (its cost served by its
    rank-``r`` choice) and per-client ``weights``, ``loads``, ``ids``."""

    def __init__(
        self,
        facilities: Sequence[int],
        clients: Sequence[Client],
        open_costs: Optional[Mapping[int, float]] = None,
        capacities: Optional[Mapping[int, float]] = None,
    ):
        self._set_facilities(facilities, open_costs, capacities)
        clients = tuple(clients)
        preferences = list(itertools.chain.from_iterable(c.preference for c in clients))
        self._fill(
            [c.client_id for c in clients],
            [self._index.get(f, -1) for f in preferences],
            np.fromiter(
                itertools.chain.from_iterable(map(c.costs.__getitem__, c.preference) for c in clients),
                dtype=np.float64, count=len(preferences),
            ),
            [len(c.preference) for c in clients],
            [c.weight for c in clients],
            [c.load for c in clients],
            names=preferences,
        )

    @classmethod
    def from_rank_table(cls, facilities, ids, preferences, rows, costs, weights, loads=None,
                        open_costs=None, capacities=None) -> "SPLPOInstance":
        """Client ``c`` (id ``ids[c]``) prefers row ``rows[c]`` of
        ``preferences`` (positions on ``facilities``, most preferred
        first; every row equally long) at ``costs[c]``, one per rank;
        ``loads`` defaults to ``weights``.  Each row is scattered into
        the rank table once, whatever number of clients share it, and
        the rows group the clients for :meth:`_merge`.  Raises the
        errors a :class:`Client` list would, naming unknown facilities
        by position."""
        instance = cls.__new__(cls)
        instance._set_facilities(facilities, open_costs, capacities)
        n_f = len(instance.facilities)
        instance.ids, rows = np.asarray(ids), np.asarray(rows, dtype=np.intp)
        instance.weights = np.asarray(weights, dtype=np.float64)
        instance.loads = instance.weights if loads is None else np.asarray(loads, dtype=np.float64)
        preferences = np.asarray(preferences, dtype=np.intp)
        costs = np.asarray(costs, dtype=np.float64)
        width = preferences.shape[1]
        if {len(instance.ids), len(instance.weights), len(instance.loads), len(costs)} != {
                len(rows)} or costs.shape[1:] != (width,):
            raise ConfigurationError("client columns differ in length")
        reject = instance._reject
        if width == 0:
            reject(np.arange(len(rows)), lambda c: ": empty preference")
        unknown = (preferences < 0) | (preferences >= n_f)
        if unknown.any():
            reject(np.flatnonzero(unknown.any(axis=1)[rows]), lambda c: (
                f" prefers unknown facilities {preferences[rows[c]][unknown[rows[c]]].tolist()}"
            ))
            # Rows no client reads are not checked, only kept out of the table.
            preferences = np.where(unknown, n_f, preferences)
        # Row k's rank-r facility f is cell (k, f) of a [rows, n_f + 1]
        # table whose last column takes what is kept out.
        table = np.full((len(preferences), n_f + 1), n_f, dtype=np.int32)
        table.reshape(-1)[(np.arange(len(preferences)) * (n_f + 1))[:, None] + preferences] = (
            np.arange(width))
        table = table[:, :n_f]
        duplicated = np.count_nonzero(table < n_f, axis=1) != width
        if duplicated.any():
            reject(np.flatnonzero(duplicated[rows]), lambda c: ": duplicate preferences")
        finite = np.isfinite(costs)
        if not finite.all():
            reject(np.flatnonzero(~finite.all(axis=1)), lambda c: (
                ": non-finite cost for facilities " + str(
                    [instance.facilities[f] for f in preferences[rows[c]][~finite[c]].tolist()])
            ))
        instance._check_weights()
        instance.ranks = table[rows]
        instance.rank_costs = np.zeros((len(rows), n_f), dtype=np.float64)
        instance.rank_costs[:, :width] = costs
        instance._init_kernels(table, rows)
        return instance

    def _set_facilities(self, facilities, open_costs, capacities) -> None:
        if len(set(facilities)) != len(facilities):
            raise ConfigurationError("duplicate facilities")
        self.facilities: Tuple[int, ...] = tuple(facilities)
        self.open_costs: Dict[int, float] = dict(open_costs or {})
        bad = sorted(f for f, cost in self.open_costs.items() if not math.isfinite(cost))
        if bad:
            raise ConfigurationError(f"non-finite open cost for facilities {bad}")
        self.capacities: Optional[Dict[int, float]] = (
            dict(capacities) if capacities is not None else None
        )
        self._index = {f: i for i, f in enumerate(self.facilities)}

    def _fill(self, ids, columns, costs, lengths, weights, loads, names=None) -> None:
        """The rank table from flat columns — client ``c`` prefers the
        next ``lengths[c]`` ``columns`` (positions on ``facilities``) at
        the next ``lengths[c]`` ``costs`` — with :class:`Client`'s
        checks (``names``: the facility ids ``columns`` stand for)."""
        n_f = len(self.facilities)
        self.ids, lengths = np.asarray(ids), np.asarray(lengths, dtype=np.intp)
        self.weights, self.loads = (np.asarray(v, dtype=np.float64) for v in (weights, loads))
        columns, costs = np.asarray(columns, dtype=np.intp), np.asarray(costs, dtype=np.float64)
        if {len(self.ids), len(self.weights), len(self.loads)} != {len(lengths)} or not (
                len(columns) == len(costs) == lengths.sum()):
            raise ConfigurationError("client columns differ in length")
        row = np.repeat(np.arange(len(lengths)), lengths)
        rank = np.arange(len(columns)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        reject = self._reject
        unknown = (columns < 0) | (columns >= n_f)

        def unknown_at(c) -> list:
            at = np.flatnonzero((row == c) & unknown)
            return columns[at].tolist() if names is None else [names[i] for i in at.tolist()]

        reject(np.flatnonzero(lengths == 0), lambda c: ": empty preference")
        reject(row[unknown], lambda c: f" prefers unknown facilities {unknown_at(c)}")
        self.ranks = np.full((len(lengths), n_f), n_f, dtype=np.int32)
        self.ranks[row, columns] = rank
        duplicated = (self.ranks < n_f).sum(axis=1) != lengths
        reject(np.flatnonzero(duplicated), lambda c: ": duplicate preferences")
        finite = np.isfinite(costs)
        reject(row[~finite], lambda c: ": non-finite cost for facilities " + str(
            [self.facilities[f] for f in columns[(row == c) & ~finite].tolist()]
        ))
        self._check_weights()
        self.rank_costs = np.zeros((len(lengths), n_f), dtype=np.float64)
        self.rank_costs[row, rank] = costs
        self._init_kernels(self.ranks, None)

    def _reject(self, clients, problem) -> None:
        """Raise for the first of ``clients`` (ascending indices)."""
        if len(clients):
            raise ConfigurationError(f"client {self.ids[clients[0]]}{problem(clients[0])}")

    def _check_weights(self) -> None:
        self._reject(np.flatnonzero(~((self.weights >= 0.0) & (self.weights < math.inf))), lambda c: (
            f": weight must be finite and non-negative, got {self.weights[c]}"
        ))

    def _init_kernels(self, table: np.ndarray, rows: Optional[np.ndarray]) -> None:
        #: The rank rows clients were built from and each client's row
        #: (None: one row per client, ``ranks`` itself); see :meth:`_merge`.
        self._rows = table, rows
        #: Lazily built :class:`_RankTables` over single clients and over
        #: clients merged by preference (``_score``'s ``merged`` flag),
        #: and the :class:`Client` views.
        self._kernels: List[Optional[_RankTables]] = [None, None]
        self._clients: Optional[Tuple[Client, ...]] = None

    @property
    def clients(self) -> Tuple[Client, ...]:
        """The table read back as :class:`Client` values, on first use
        (for :meth:`cost` and what is built on it)."""
        if self._clients is None:
            lengths = (self.ranks < len(self.facilities)).sum(axis=1).tolist()
            preferences = [
                tuple(map(self.facilities.__getitem__, by_rank[:length]))
                for by_rank, length in zip(np.argsort(self.ranks, axis=1).tolist(), lengths)
            ]
            self._clients = tuple(
                Client(client_id, preference, dict(zip(preference, costs)), weight, load)
                for client_id, preference, costs, weight, load in zip(
                    self.ids.tolist(), preferences, self.rank_costs.tolist(),
                    self.weights.tolist(), self.loads.tolist(),
                )
            )
        return self._clients

    # -- assignment -----------------------------------------------------------

    def _served(self, open_facilities: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Per client, the rank of its first open facility
        (``len(facilities)`` if none is), and the served clients' rows."""
        columns = [self._index[f] for f in set(open_facilities) if f in self._index]
        rank = self.ranks[:, columns].min(axis=1, initial=len(self.facilities))
        return rank, np.flatnonzero(rank < len(self.facilities))

    def assignment(self, open_facilities: Iterable[int]) -> Dict[int, Optional[int]]:
        """client id -> serving facility (None when no open facility
        appears in the client's preference list)."""
        rank, _ = self._served(open_facilities)
        by_rank = np.argsort(self.ranks, axis=1).tolist()
        return {
            client: self.facilities[order[r]] if r < len(order) else None
            for client, order, r in zip(self.ids.tolist(), by_rank, rank.tolist())
        }

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
        rank, rows = self._served(open_facilities)
        costs = self.rank_costs[rows, rank[rows]].tolist()
        if not costs:
            raise ReproError("no client is served by this facility subset")
        return sum(costs) / len(costs)

    def weighted_mean_cost(self, open_facilities: Iterable[int]) -> float:
        """Workload-weighted mean served-client cost (Appendix B's
        "weigh each host's RTT with its workload")."""
        rank, rows = self._served(open_facilities)
        costs = self.rank_costs[rows, rank[rows]].tolist()
        total = weight_sum = 0.0
        for weight, cost in zip(self.weights[rows].tolist(), costs):
            total += weight * cost
            weight_sum += weight
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

    def subset_costs(self, unserved_penalty: float = math.inf) -> Tuple[np.ndarray, float]:
        """:meth:`batch_cost` of every facility subset at once.

        Returns ``(costs, scale)``.  ``costs[mask]`` scores the subset
        whose bit ``i`` is ``facilities[i]`` (``inf`` for the empty
        subset and, with an infinite penalty, for every subset leaving a
        client unserved); ``scale`` is the sum of the absolute values of
        the terms the table adds, the unit its rounding error is bounded
        in (see :func:`~repro.splpo.exhaustive.solve_exhaustive`).

        Over the *closed* set ``T``, the merged row ``g`` is served by
        its rank-``r`` choice ``f`` exactly when every facility ranked
        above ``f`` — the set ``A`` — is closed and ``f`` is not:
        ``[A ⊆ T] − [A ∪ {f} ⊆ T]``.  So the objective is a signed point
        mass per term on a ``2**n`` array, and one superset-sum
        transform evaluates it for every ``T``.  The cells are the merged
        :meth:`batch_cost` kernel's own floats, added in another order.
        Capacitated instances do not decompose this way and raise.
        """
        if self.capacities is not None:
            raise ConfigurationError("capacitated instances are scored by cost")
        n = len(self.facilities)
        tables = self._rank_tables(merged=True)
        priced = tables.priced(unserved_penalty)
        listed = tables.ranks < n
        ranked = np.arange(n) < listed.sum(axis=1)[:, None]
        # choice[g, r]: the bit of row g's rank-r facility (0 past its list).
        choice = np.zeros((len(priced), n), dtype=np.int64)
        rows, column = np.nonzero(listed)
        choice[rows, tables.ranks[rows, column]] = 1 << column
        through = np.cumsum(choice, axis=1)[ranked]  # the choice and all above it
        cells = priced[:, :n][ranked]
        bits = 1 << np.arange(n, dtype=np.int64)
        opening = np.array([self.open_costs.get(f, 0.0) for f in self.facilities])
        at = [through - choice[ranked], through, np.zeros(n, np.int64), bits]
        mass = [cells, -cells, opening, -opening]
        stranded = choice.sum(axis=1)  # closing all of a row's list strands it
        if not math.isinf(unserved_penalty):
            at.append(stranded)
            mass.append(priced[:, n])
        mass = np.concatenate(mass)
        table = np.bincount(np.concatenate(at), weights=mass, minlength=1 << n)
        _superset_sums(table)
        costs = table[::-1]  # costs[S] = table[closed set full ^ S]
        # When every row lists every facility only the empty subset,
        # ``costs[0]``, strands a client.
        if math.isinf(unserved_penalty) and not listed.all():
            unserved = np.zeros(1 << n, dtype=bool)
            unserved[stranded] = True
            _superset_sums(unserved)  # on booleans, an OR: some row stranded
            costs[unserved[::-1]] = math.inf
        costs[0] = math.inf
        return costs, float(np.abs(mass).sum())

    def _rank_tables(self, merged: bool) -> "_RankTables":
        if self._kernels[merged] is None:
            # Single clients: weighted costs, then a zero unserved slot.
            if merged:
                self._kernels[merged] = self._merge()
            else:
                cost_by_rank = np.zeros((len(self.ranks), len(self.facilities) + 1))
                np.multiply(self.weights[:, None], self.rank_costs, out=cost_by_rank[:, :-1])
                self._kernels[merged] = _RankTables(self.ranks, cost_by_rank, self.weights)
        return self._kernels[merged]

    def _score(self, masks: np.ndarray, unserved_penalty: float, merged: bool) -> np.ndarray:
        totals = self._rank_tables(merged).score(masks, unserved_penalty)
        if self.open_costs:
            opening = np.array([self.open_costs.get(f, 0.0) for f in self.facilities])
            totals += np.where(masks, opening, 0.0).sum(axis=1)
        totals[~masks.any(axis=1)] = math.inf
        return totals

    def _merge(self) -> "_RankTables":
        """The kernel over clients merged by equal rank rows, in first
        appearance order; weighted costs add per rank in client order."""
        single = self._rank_tables(merged=False)
        n_f = len(self.facilities)
        table, rows = self._rows
        if n_f < 16:
            # A rank row, digits 0..n_f, as one base-16 int64.
            keys = table @ np.int64(16) ** np.arange(n_f)
        else:
            # A rank row as one opaque value: np.unique sorts bytes, not rows.
            keys = table.view(np.dtype((np.void, table.itemsize * n_f))).reshape(-1)
        _, group_of = np.unique(keys, return_inverse=True)
        group_of = group_of.reshape(-1) if rows is None else group_of.reshape(-1)[rows]
        # Equal table rows hold equal client rank rows: these are the
        # clients' groups.  Number them by first client; a group no
        # client reads keeps the sentinel, sorts last and is dropped.
        n = len(group_of)
        first = np.full(len(keys), n)
        np.minimum.at(first, group_of, np.arange(n))
        by_appearance = np.argsort(first)[: np.count_nonzero(first < n)]
        relabel = np.empty(len(keys), dtype=np.intp)
        relabel[by_appearance] = np.arange(len(by_appearance))
        group_of, first = relabel[group_of], first[by_appearance]
        # One bin per (group, rank) cell, filled in client order: each
        # bin adds the terms np.add.at would, in the order it would.
        # (Without clients bincount counts in int64, hence the cast.)
        slots = single.cost_by_rank.shape[1]
        merged_costs = np.bincount(
            (group_of[:, None] * slots + np.arange(slots)).ravel(),
            single.cost_by_rank.ravel(), minlength=len(first) * slots,
        ).astype(np.float64, copy=False).reshape(len(first), slots)
        merged_weights = np.bincount(group_of, self.weights, minlength=len(first))
        return _RankTables(self.ranks[first], merged_costs, merged_weights)


class _RankTables:
    """The table-lookup evaluation kernel over a set of client rows.

    ``ranks[g, f]`` is the rank row ``g`` gives facility ``f`` (or
    ``n_f`` if it never uses it) and ``cost_by_rank[g, r]`` its
    weighted cost when served by its rank-``r`` choice, with one extra
    *unserved* slot at ``r = n_f``.  A subset's cost is the row-sum of
    ``cost_by_rank[g, best rank among the open facilities]``.  One mask
    takes that minimum over its open columns; many take it over
    byte-wide slices of the mask, each answered by a table
    ``T_k[slice value]`` precomputed (on the first such call) for all
    ``2**8`` values.  Either way the minimum is ``g * slots + rank``,
    directly an index into the flattened cost matrix.
    """

    def __init__(self, ranks: np.ndarray, cost_by_rank: np.ndarray, weights: np.ndarray):
        self.ranks = ranks
        self.cost_by_rank = cost_by_rank
        self.weights = weights
        n_rows, n_f = ranks.shape
        self._first_slot = np.arange(n_rows, dtype=np.int32) * (n_f + 1)
        self._tables: Optional[List[np.ndarray]] = None
        #: ``(penalty, priced cost_by_rank)`` of the last call.
        self._priced: Tuple[Optional[float], Optional[np.ndarray]] = (None, None)

    def _split_tables(self) -> List[np.ndarray]:
        if self._tables is None:
            n_f = self.ranks.shape[1]
            slots = self.ranks + self._first_slot[:, None]
            self._tables = []
            for lo in range(0, n_f, _TABLE_BITS):
                bits = min(_TABLE_BITS, n_f - lo)
                table = np.empty((1 << bits, len(slots)), dtype=np.int32)
                table[0] = self._first_slot + n_f
                for bit in range(bits):
                    # Lowest-bit recurrence, one doubling per facility.
                    np.minimum(
                        table[: 1 << bit], slots[:, lo + bit], out=table[1 << bit : 2 << bit]
                    )
                self._tables.append(table)
        return self._tables

    def priced(self, unserved_penalty: float) -> np.ndarray:
        """``cost_by_rank`` with its unserved slot priced."""
        if self._priced[0] != unserved_penalty:
            priced = self.cost_by_rank.copy()
            # Not weight * inf: a zero-weight client left unserved still
            # makes the subset infeasible.
            priced[:, -1] = (
                math.inf if math.isinf(unserved_penalty) else self.weights * unserved_penalty
            )
            self._priced = (unserved_penalty, priced)
        return self._priced[1]

    def score(self, masks: np.ndarray, unserved_penalty: float) -> np.ndarray:
        flat = self.priced(unserved_penalty).ravel()
        if len(masks) == 1:
            best = self.ranks[:, masks[0]].min(axis=1, initial=self.ranks.shape[1])
            return flat.take((best + self._first_slot)[None]).sum(axis=1)
        tables = self._split_tables()
        n_rows = len(self.weights)
        words = np.packbits(masks, axis=1, bitorder="little")
        totals = np.empty(len(masks), dtype=np.float64)
        # Per mask: two int32 gathers and one float64 gather of n_rows.
        block = max(1, _BLOCK_BYTES // (16 * max(1, n_rows)))
        for start in range(0, len(masks), block):
            chunk = words[start : start + block]
            index = tables[0][chunk[:, 0]]
            for k in range(1, len(tables)):
                np.minimum(index, tables[k][chunk[:, k]], out=index)
            totals[start : start + block] = flat.take(index).sum(axis=1)
        return totals


def _superset_sums(table: np.ndarray) -> None:
    """In place, over a ``2**n`` array indexed by bitmask: ``table[T]``
    becomes the sum of ``table[A]`` over every ``A ⊆ T`` (the zeta
    transform, one pass of ``2**(n-1)`` additions per bit; on booleans,
    ORs).

    A pass adds the cells of pairs ``2**bit`` apart, in runs of
    ``2**bit``, and numpy streams short strided runs several times
    slower than long ones.  So the low half of the bits runs on a
    transposed copy, indexed ``[low bits, high bits]``, where bit ``b``'s
    runs are ``2**(b + n - low)`` long.  Every cell still adds the same
    terms in ascending bit order, so the sums are bit-identical."""
    n = table.size.bit_length() - 1
    low = n // 2
    columns = table.reshape(-1, 1 << low).T.copy()  # [low bits, high bits]
    for bit in range(low):
        pairs = columns.reshape(-1, 2, columns.shape[1] << bit)
        pairs[:, 1] += pairs[:, 0]
    table.reshape(-1, 1 << low)[...] = columns.T
    for bit in range(low, n):
        pairs = table.reshape(-1, 2, 1 << bit)
        pairs[:, 1] += pairs[:, 0]
