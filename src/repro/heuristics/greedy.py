"""Greedy insertion heuristic (sequential-addition MUT).

The project report cites Wu & Tang's O(n) optimal-position result for
inserting one species into an existing evolutionary tree; iterating that
idea gives the classic *sequential addition* heuristic: take the species
in max-min order and graft each onto the position that minimises the
realized cost of the partial tree.  It explores exactly one root-to-leaf
path of the branch-and-bound tree, so it is polynomial
(``O(n^3)``) and usually lands between UPGMM and the optimum -- a useful
third baseline next to UPGMA/UPGMM.
"""

from __future__ import annotations

from repro.bnb.bounds import half_matrix
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.maxmin import apply_maxmin
from repro.tree.ultrametric import UltrametricTree

__all__ = ["greedy_insertion"]


def greedy_insertion(
    matrix: DistanceMatrix, *, use_maxmin: bool = True
) -> UltrametricTree:
    """Build an ultrametric tree by cheapest-position insertion.

    The result always dominates the matrix (each partial tree is a
    minimal feasible realization) but is generally not optimal: greedy
    choices cannot be undone.
    """
    n = matrix.n
    if n == 0:
        raise ValueError("cannot build a tree over zero species")
    if use_maxmin and n > 2:
        ordered, _ = apply_maxmin(matrix)
    else:
        ordered = matrix
    labels = ordered.labels
    if n == 1:
        return UltrametricTree.leaf(labels[0])
    if n == 2:
        return UltrametricTree.join(
            UltrametricTree.leaf(labels[0]),
            UltrametricTree.leaf(labels[1]),
            ordered.values[0, 1] / 2.0,
        )

    topology = PartialTopology.initial(half_matrix(ordered.values.tolist()))
    while not topology.is_complete:
        best = None
        for position in range(len(topology.parent)):
            child = topology.child(position)
            if best is None or child.cost < best.cost - 1e-15:
                best = child
        assert best is not None
        topology = best
    return topology.to_tree(labels)
