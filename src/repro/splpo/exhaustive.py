"""Exact SPLPO solving by subset enumeration.

Feasible for the paper's 15-site testbed (2^15 - 1 subsets) and for
size-restricted searches; the evaluation budget mirrors the paper's
six-hour offline computation bound (S5.3).
"""

import itertools
import math
from typing import Iterable, Optional

import numpy as np

from repro.splpo.model import SolveResult, SPLPOInstance
from repro.util.errors import ConfigurationError

#: Subsets enumerated and scored per :meth:`SPLPOInstance.batch_cost`
#: call (bounds the mask matrix; the kernel bounds its own transients).
_CHUNK = 8192


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

    # Subsets are scored in enumeration order — by size, then
    # itertools.combinations order — and the first minimum wins.
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
    if best_row is None:
        return SolveResult(frozenset(), math.inf, evaluations, solver="exhaustive")
    best_set = frozenset(f for f, is_open in zip(instance.facilities, best_row) if is_open)
    # batch_cost merges equal clients, so its float can differ from the
    # one-subset score in the last ulp; report the latter.
    return SolveResult(
        best_set, instance.fast_cost(best_set, unserved_penalty), evaluations, solver="exhaustive"
    )
