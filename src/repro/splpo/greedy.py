"""Greedy SPLPO heuristic: repeatedly open the facility that most
reduces total cost.

Note that with preference-ordered assignment, opening a facility can
*increase* cost (clients prefer it over cheaper open facilities) — the
very effect that makes naive anycast growth counter-productive (S2.2).
The greedy therefore stops at the first non-improving step unless a
target size forces it onward.
"""

import math
from typing import Optional

import numpy as np

from repro.splpo.model import SolveResult, SPLPOInstance
from repro.util.errors import ConfigurationError


def solve_greedy(
    instance: SPLPOInstance,
    max_open: Optional[int] = None,
    force_size: bool = False,
    unserved_penalty: float = math.inf,
) -> SolveResult:
    """Greedy facility opening.

    Args:
        max_open: stop after opening this many facilities.
        force_size: keep opening the least-bad facility even when no
            addition improves cost, until ``max_open`` is reached
            (needed when a fixed deployment size is required).
        unserved_penalty: see :func:`~repro.splpo.exhaustive.solve_exhaustive`.
    """
    if max_open is not None and max_open < 1:
        raise ConfigurationError("max_open must be at least 1")
    limit = max_open if max_open is not None else len(instance.facilities)
    open_set: set = set()
    # Steps compare batch_cost scores with each other; the result
    # reports the one-subset score (see solve_exhaustive).
    current = math.inf
    evaluations = 0
    while len(open_set) < limit:
        candidates = [f for f in instance.facilities if f not in open_set]
        if not candidates:
            break
        scores = instance.batch_cost(
            instance.masks(open_set | {f} for f in candidates), unserved_penalty
        )
        evaluations += len(candidates)
        first = int(np.argmin(scores))  # first minimum in facility order
        if math.isinf(scores[first]) or (scores[first] >= current and not force_size):
            break
        open_set.add(candidates[first])
        current = scores[first]
    cost = instance.fast_cost(open_set, unserved_penalty)
    return SolveResult(frozenset(open_set), cost, evaluations, solver="greedy")
