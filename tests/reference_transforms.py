"""The subset-table passes as first written, for the tests to compare with.

:func:`superset_sums` is the plain zeta transform, one in-place pass
per bit over pairs ``2**bit`` apart; :func:`stranded_subsets` is the
infeasibility pass that counted, per closed set, the rows whose whole
preference list it closes; :func:`merged_costs` sums the weighted cost
rows of clients with equal rank rows with ``np.add.at``.  The kernels in
:mod:`repro.splpo.model` must give the same bits.
"""

import numpy as np


def superset_sums(table: np.ndarray) -> None:
    """In place: ``table[T]`` becomes the sum of ``table[A]`` over every
    ``A ⊆ T``, bits in ascending order."""
    for bit in range(table.size.bit_length() - 1):
        pairs = table.reshape(-1, 2, 1 << bit)
        pairs[:, 1] += pairs[:, 0]


def stranded_subsets(stranded: np.ndarray, n: int) -> np.ndarray:
    """``out[T]``: some row's list (bitmask ``stranded[g]``) lies in the
    closed set ``T``, by an int32 count of such rows."""
    count = np.zeros(1 << n, dtype=np.int32)
    np.add.at(count, stranded, 1)
    superset_sums(count)
    return count > 0


def merged_costs(group_of: np.ndarray, cost_by_rank: np.ndarray, groups: int) -> np.ndarray:
    """Row ``g``: the sum of the ``cost_by_rank`` rows of group ``g``'s
    clients, added in client order."""
    merged = np.zeros((groups, cost_by_rank.shape[1]), dtype=np.float64)
    np.add.at(merged, group_of, cost_by_rank)
    return merged
