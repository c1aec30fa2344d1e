"""Group-matrix reduction (PaCT Section 3.1, Figure 6).

Given a partition of the species into groups (the children of one
compact-set hierarchy node), build the small matrix whose element
``(A, B)`` summarises all distances between group ``A`` and group ``B``.
The paper defines three summaries and studies the first:

* ``maximum`` -- the largest cross distance.  The reduced matrix stays a
  metric, and the merged tree *dominates* the original matrix (feasible
  MUT candidate);
* ``minimum`` -- the smallest cross distance.  Cheapest merged tree, but
  feasibility is lost (the reduced matrix may not even be metric);
* ``average`` -- the mean cross distance; a compromise.

Worked example: for the paper's Figure 3 graph, the *maximum* matrix of
``C4 = {C3, 5}`` with ``C3 = {1, 2, 3}`` stores ``max(M[5, x]) = 6`` for
``x`` in ``C3`` -- exactly Figure 6.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix

__all__ = ["reduce_matrix", "REDUCTIONS"]


REDUCTIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "maximum": lambda block: float(block.max()),
    "minimum": lambda block: float(block.min()),
    "average": lambda block: float(block.mean()),
}


def reduce_matrix(
    matrix: DistanceMatrix,
    groups: Sequence[Sequence[int]],
    labels: Sequence[str],
    *,
    mode: str = "maximum",
) -> DistanceMatrix:
    """The reduced matrix over ``groups`` with one row per group.

    ``groups`` must be disjoint, non-empty index sets; ``labels`` names
    the rows of the result (singleton groups conventionally reuse the
    species label so the final tree reads naturally).
    """
    if mode not in REDUCTIONS:
        raise ValueError(f"unknown reduction {mode!r}; choose from {sorted(REDUCTIONS)}")
    if len(groups) != len(labels):
        raise ValueError("need exactly one label per group")
    order: List[int] = []
    bounds = [0]
    for group in groups:
        if not group:
            raise ValueError("groups must be non-empty")
        order.extend(group)
        bounds.append(len(order))
    if len(set(order)) != len(order):
        raise ValueError("groups must be disjoint")
    summarise = REDUCTIONS[mode]
    # One fancy-index copy puts every group's rows and columns side by
    # side; block (i, j) is then the slice between the group bounds.
    ordered = matrix.values[np.ix_(order, order)]
    # ``mean`` over a strided slice may sum in a different order than
    # over a contiguous block, so averages summarise a contiguous copy
    # and stay bit-identical to the per-block ``np.ix_`` gather.
    contiguous = mode == "average"
    m = len(groups)
    values = np.zeros((m, m))
    for i in range(m):
        rows = ordered[bounds[i]:bounds[i + 1]]
        for j in range(i + 1, m):
            block = rows[:, bounds[j]:bounds[j + 1]]
            if contiguous:
                block = np.ascontiguousarray(block)
            values[i, j] = values[j, i] = summarise(block)
    return DistanceMatrix(values, list(labels), validate=False)
