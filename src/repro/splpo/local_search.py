"""Local search for SPLPO: add / drop / swap moves to a local optimum."""

import math
from typing import FrozenSet, Iterable, Optional

import numpy as np

from repro.splpo.greedy import solve_greedy
from repro.splpo.model import SolveResult, SPLPOInstance
from repro.util.errors import ConfigurationError


def solve_local_search(
    instance: SPLPOInstance,
    start: Optional[Iterable[int]] = None,
    max_iterations: int = 1000,
    fixed_size: bool = False,
    unserved_penalty: float = math.inf,
) -> SolveResult:
    """Improve a starting subset with first-improvement moves.

    Args:
        start: initial open set (default: the greedy solution).
        fixed_size: restrict moves to swaps, preserving cardinality
            (used when the deployment size is fixed, e.g. "best
            12-site configuration").
        max_iterations: cap on improving moves.
    """
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be positive")
    evaluations = 0
    if start is None:
        seeded = solve_greedy(instance, unserved_penalty=unserved_penalty)
        current: FrozenSet[int] = seeded.open_facilities
        evaluations += seeded.evaluations
    else:
        current = frozenset(start)
        evaluations += 1
    # Moves compare batch_cost scores with each other; the result
    # reports the one-subset score (see solve_exhaustive).
    current_score = instance.batch_cost(instance.masks([current]), unserved_penalty)[0]

    all_facilities = set(instance.facilities)
    for _ in range(max_iterations):
        closed = sorted(all_facilities - current)
        opened = sorted(current)
        candidates = []
        if not fixed_size:
            candidates.extend(current | {f} for f in closed)
            if len(current) > 1:
                candidates.extend(current - {f} for f in opened)
        candidates.extend(
            (current - {f_out}) | {f_in} for f_out in opened for f_in in closed
        )
        scores = instance.batch_cost(instance.masks(candidates), unserved_penalty)
        improving = np.flatnonzero(scores < current_score)
        if not len(improving):
            evaluations += len(candidates)
            break
        # First improvement: later candidates count as never scored.
        evaluations += int(improving[0]) + 1
        current = frozenset(candidates[improving[0]])
        current_score = scores[improving[0]]
    cost = instance.fast_cost(current, unserved_penalty)
    return SolveResult(current, cost, evaluations, solver="local_search")
