"""Exhaustive topology enumeration.

The papers motivate branch-and-bound with the size of the search space:
``A(n) = (2n - 3)!!`` rooted leaf-labelled binary topologies
(``A(20) > 10^21``, ``A(25) > 10^29``, ``A(30) > 10^37``).  This module
provides that count, a generator over every complete topology (the
test-suite oracle for small ``n``), and a brute-force minimum
ultrametric tree solver used to certify the branch-and-bound results.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.bnb.bounds import half_matrix
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.tree.ultrametric import UltrametricTree

__all__ = [
    "count_topologies",
    "enumerate_topologies",
    "brute_force_mut",
]

#: Refuse to enumerate beyond this many species (A(12) is ~13.7 billion;
#: even A(10) = 34,459,425 takes minutes in pure Python).
_ENUMERATION_LIMIT = 10


def count_topologies(n: int) -> int:
    """``A(n) = (2n - 3)!!``, the number of rooted binary topologies.

    ``A(1) = A(2) = 1``; every added species multiplies by the number of
    graft positions ``2k - 1``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 1
    for k in range(2, n):
        total *= 2 * k - 1
    return total


def enumerate_topologies(
    matrix: DistanceMatrix, *, limit: int = _ENUMERATION_LIMIT
) -> Iterator[PartialTopology]:
    """Yield every complete topology over ``matrix``'s species.

    Each yielded :class:`PartialTopology` carries its minimal-cost
    realization, so ``topology.cost`` is the cheapest feasible
    ultrametric tree with that shape.  Raises ``ValueError`` beyond
    ``limit`` species -- the space is ``(2n - 3)!!``.
    """
    n = matrix.n
    if n > limit:
        raise ValueError(
            f"refusing to enumerate {count_topologies(n)} topologies "
            f"for {n} species (limit {limit})"
        )
    if n < 2:
        raise ValueError("enumeration needs at least two species")
    stack: List[PartialTopology] = [
        PartialTopology.initial(half_matrix(matrix.values.tolist()))
    ]
    while stack:
        topology = stack.pop()
        if topology.is_complete:
            yield topology
            continue
        for position in range(len(topology.parent)):
            stack.append(topology.child(position))


def brute_force_mut(
    matrix: DistanceMatrix, *, limit: int = _ENUMERATION_LIMIT
) -> Tuple[UltrametricTree, float]:
    """The certified minimum ultrametric tree, by exhaustive search.

    Returns ``(tree, cost)``.  Exponential -- intended as a test oracle
    for small instances, not a production solver.
    """
    if matrix.n == 1:
        return UltrametricTree.leaf(matrix.labels[0]), 0.0
    best: PartialTopology = None  # type: ignore[assignment]
    for topology in enumerate_topologies(matrix, limit=limit):
        if best is None or topology.cost < best.cost:
            best = topology
    return best.to_tree(matrix.labels), best.cost
