"""Exact SPLPO solving by subset enumeration.

Feasible for the paper's 15-site testbed (2^15 - 1 subsets) and for
size-restricted searches; the evaluation budget mirrors the paper's
six-hour offline computation bound (S5.3).

Every subset is scored once, in one order: by size, then in
``itertools.combinations`` order, the first minimum winning and
``max_evaluations`` cutting that order.  An uncapacitated instance of at
most ``_TRANSFORM_FACILITIES`` facilities is scored all at once by
:meth:`SPLPOInstance.subset_costs` (one subset-sum transform); only the
subsets within a rounding bound of its minimum are scored again by
:meth:`SPLPOInstance.batch_cost`, which decides the winner, so the
result is the one the enumeration loop gives.  Other instances run that
loop, a chunk of subsets per ``batch_cost`` call.
"""

import functools
import itertools
import math
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.splpo.model import SolveResult, SPLPOInstance
from repro.util.errors import ConfigurationError

#: Subsets enumerated and scored per :meth:`SPLPOInstance.batch_cost`
#: call (bounds the mask matrix; the kernel bounds its own transients).
_CHUNK = 8192
#: Most facilities scored by one subset-sum table: its ``2**17``
#: float64 entries are 1 MB, its boolean twin an eighth of that, the
#: int32 enumeration key half (the keys of every ``n`` up to here,
#: cached, 1 MB together).
_TRANSFORM_FACILITIES = 17
#: Table scores within ``_RESCORE_TOLERANCE * scale`` of the minimum
#: are scored again by ``batch_cost``.  Both add the same float terms
#: (the merged cells, the open costs, the priced unserved slots), whose
#: absolute values sum to at most ``scale``, and an addition tree of
#: depth ``d`` over them errs by at most ``d * 2**-53 * scale``: the
#: table's depth is at most ``2 * rows + 2 * n`` (a row puts at most two
#: masses on one index, open costs ``n`` on the empty one, then ``n``
#: transform passes), the kernel's at most ``rows + n``.  The
#: ``batch_cost`` minimum lies within twice the sum of the two errors
#: of the table minimum, so it is re-scored while
#: ``3 * (rows + n) * 2**-52 <= 1e-9``, i.e. under 10**6 merged rows; on
#: the paper world (201 rows, 15 sites) the tolerance is over 10**4
#: times either worst case.
_RESCORE_TOLERANCE = 1e-9


def solve_exhaustive(
    instance: SPLPOInstance,
    sizes: Optional[Iterable[int]] = None,
    max_evaluations: Optional[int] = None,
    unserved_penalty: float = math.inf,
) -> SolveResult:
    """Enumerate facility subsets and return the cheapest.

    Args:
        instance: the problem.
        sizes: restrict to subsets of these cardinalities (default:
            every non-empty size).
        max_evaluations: stop after this many subset evaluations — the
            "as many configurations as we could compute within a time
            bound" behaviour of the paper.
        unserved_penalty: per-client cost when no preferred facility is
            open (infinite by default, making such subsets infeasible).
    """
    n = len(instance.facilities)
    if n == 0:
        raise ConfigurationError("instance has no facilities")
    size_list = sorted(set(sizes)) if sizes is not None else list(range(1, n + 1))
    for k in size_list:
        if not 1 <= k <= n:
            raise ConfigurationError(f"subset size {k} out of range [1, {n}]")

    if max_evaluations is not None and max_evaluations < 1:
        raise ConfigurationError("max_evaluations must be at least 1")

    if instance.capacities is None and n <= _TRANSFORM_FACILITIES:
        best_row, evaluations = _search_table(instance, size_list, max_evaluations, unserved_penalty)
    else:
        best_row, evaluations = _search_chunks(instance, size_list, max_evaluations, unserved_penalty)
    if best_row is None:
        return SolveResult(frozenset(), math.inf, evaluations, solver="exhaustive")
    best_set = frozenset(f for f, is_open in zip(instance.facilities, best_row) if is_open)
    # batch_cost merges equal clients, so its float can differ from the
    # one-subset score in the last ulp; report the latter.
    return SolveResult(
        best_set, instance.fast_cost(best_set, unserved_penalty), evaluations, solver="exhaustive"
    )


@functools.lru_cache(maxsize=None)
def _enumeration_key(n: int) -> np.ndarray:
    """``key[mask]`` over all ``2**n`` bitmasks, ascending in
    enumeration order: size, then ``itertools.combinations`` order,
    which is *descending* bit-reversed mask (the lower the first index
    where two same-size subsets differ, the earlier the one holding it,
    and bit reversal makes that index the highest bit).  The size is
    ``key >> n``; int32 holds the key up to ``n = 26``.  Built once per
    ``n`` and read-only."""
    size = np.zeros(1 << n, dtype=np.int32)
    reverse = np.zeros(1 << n, dtype=np.int32)
    for bit in range(n):
        # Lowest-bit recurrence: the masks with ``bit`` as their top bit
        # are the ones below it plus that bit.
        size[1 << bit : 2 << bit] = size[: 1 << bit] + 1
        reverse[1 << bit : 2 << bit] = reverse[: 1 << bit] + (1 << (n - 1 - bit))
    size <<= n
    size += (1 << n) - 1
    size -= reverse
    size.flags.writeable = False
    return size


def _search_table(
    instance: SPLPOInstance,
    size_list: List[int],
    max_evaluations: Optional[int],
    unserved_penalty: float,
) -> Tuple[Optional[np.ndarray], int]:
    n = len(instance.facilities)
    costs, scale = instance.subset_costs(unserved_penalty)
    key = _enumeration_key(n)
    wanted = np.zeros(n + 1, dtype=bool)
    wanted[size_list] = True
    scored = wanted[key >> n]
    evaluations = int(np.count_nonzero(scored))
    if max_evaluations is not None and max_evaluations < evaluations:
        last = np.partition(key[scored], max_evaluations - 1)[max_evaluations - 1]
        scored &= key <= last
        evaluations = max_evaluations
    costs[~scored] = math.inf
    best = costs.min()
    if best == math.inf:
        return None, evaluations
    near = np.flatnonzero(costs <= best + _RESCORE_TOLERANCE * scale)
    near = near[np.argsort(key[near])]
    rows = (near[:, None] >> np.arange(n)) & 1 == 1
    return rows[np.argmin(instance.batch_cost(rows, unserved_penalty))], evaluations


def _search_chunks(
    instance: SPLPOInstance,
    size_list: List[int],
    max_evaluations: Optional[int],
    unserved_penalty: float,
) -> Tuple[Optional[np.ndarray], int]:
    n = len(instance.facilities)
    budget = math.inf if max_evaluations is None else max_evaluations
    best_score = math.inf
    best_row = None
    evaluations = 0
    for k in size_list:
        combos = itertools.combinations(range(n), k)
        while evaluations < budget:
            chunk = itertools.islice(combos, min(_CHUNK, budget - evaluations))
            columns = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp)
            if not len(columns):
                break
            masks = np.zeros((len(columns) // k, n), dtype=bool)
            masks[np.repeat(np.arange(len(masks)), k), columns] = True
            scores = instance.batch_cost(masks, unserved_penalty)
            evaluations += len(masks)
            first = int(np.argmin(scores))
            if scores[first] < best_score:
                best_score = scores[first]
                best_row = masks[first]
    return best_row, evaluations
