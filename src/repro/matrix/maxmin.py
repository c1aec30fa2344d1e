"""Max-min permutations (Step 1 of Algorithm BBU).

Both papers relabel the species so that ``(1, 2, ..., n)`` is a *max-min
permutation* before branch-and-bound starts: the first two species are a
farthest pair, and each subsequent species maximises its minimum distance
to the species already placed.  The relabeling front-loads the large
distances, which raises the lower bound of shallow branch-and-bound nodes
and lets the search prune earlier.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix

__all__ = [
    "maxmin_permutation",
    "maxmin_order",
    "apply_maxmin",
    "is_maxmin_permutation",
]


def maxmin_permutation(matrix: DistanceMatrix) -> List[int]:
    """Return a max-min ordering of ``range(n)`` for ``matrix``.

    The ordering starts with a farthest pair -- the first maximum in
    row-major upper-triangle order -- and greedily appends the species
    whose minimum distance to the chosen prefix is largest.  Ties go to
    the smaller species index, so the result is deterministic.  The
    running minima read column ``k`` of each newly chosen species ``k``,
    which matters for inputs that are only symmetric within tolerance.
    """
    return maxmin_order(matrix.values.tolist())


def maxmin_order(rows: Sequence[Sequence[float]]) -> List[int]:
    """:func:`maxmin_permutation` on a matrix's row lists.

    Plain Python: branch-and-bound orders many 3-5 species subproblems,
    where NumPy's per-call dispatch costs more than these loops, and
    :class:`~repro.bnb.search.SearchCore` already holds the rows.
    """
    n = len(rows)
    if n < 2:
        return list(range(n))
    best = -float("inf")
    first = second = 0
    for i in range(n - 1):
        row = rows[i]
        top = max(row[i + 1:])
        if top > best:
            best, first, second = top, i, row.index(top, i + 1)
    order = [first, second]
    # Minimum distance from every species to the chosen prefix.
    mins = [min(row[first], row[second]) for row in rows]
    rest = [k for k in range(n) if k != first and k != second]
    while rest:
        nxt = max(rest, key=mins.__getitem__)
        order.append(nxt)
        rest.remove(nxt)
        for k in rest:
            if rows[k][nxt] < mins[k]:
                mins[k] = rows[k][nxt]
    return order


def apply_maxmin(matrix: DistanceMatrix) -> Tuple[DistanceMatrix, List[int]]:
    """Relabel ``matrix`` into max-min order.

    Returns the reordered matrix together with the permutation, where
    ``permutation[p]`` is the original index of the species now at
    position ``p`` (so results can be mapped back to the caller's labels).
    """
    order = maxmin_permutation(matrix)
    return matrix.relabeled(order), order


def is_maxmin_permutation(matrix: DistanceMatrix) -> bool:
    """Check whether the identity ordering of ``matrix`` is max-min.

    A check for tests: it accepts any max-min order, whichever way ties
    were broken.
    """
    n = matrix.n
    if n < 2:
        return True
    v = matrix.values
    if v[0, 1] + 1e-12 < matrix.max_distance():
        return False
    chosen = np.zeros(n, dtype=bool)
    chosen[0] = chosen[1] = True
    mins = np.minimum(v[:, 0], v[:, 1])
    for k in range(2, n):
        masked = np.where(chosen, -np.inf, mins)
        if mins[k] + 1e-12 < masked.max():
            return False
        chosen[k] = True
        mins = np.minimum(mins, v[:, k])
    return True
