"""Conversions between ultrametric trees and scipy linkage matrices.

A scipy *linkage matrix* ``Z`` has one row per merge:
``[cluster_a, cluster_b, distance, size]`` where clusters ``0..n-1`` are
the leaves and row ``i`` creates cluster ``n + i``.  A scipy merge
*distance* is the cophenetic distance between the merged clusters, which
for an ultrametric tree is twice the merge node's height -- that factor
of two is the whole conversion.

These converters let trees built here feed
``scipy.cluster.hierarchy.dendrogram`` / ``cophenet`` directly, and let
scipy clusterings (e.g. ``linkage(..., method="complete")``) be checked
with this repository's feasibility predicates.  The test suite uses the
round trip as an independent oracle for UPGMA/UPGMM.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = ["tree_to_linkage", "linkage_to_tree"]


def tree_to_linkage(tree: UltrametricTree) -> Tuple[np.ndarray, List[str]]:
    """Convert a binary ultrametric tree to ``(Z, labels)``.

    ``labels[i]`` names scipy leaf cluster ``i``; ``Z`` is a valid
    ``(n - 1, 4)`` linkage matrix with merge distances equal to the
    cophenetic distances of the tree (``2 * height``).  Raises
    ``ValueError`` for non-binary trees (scipy merges are pairwise).
    """
    labels = tree.leaf_labels
    n = len(labels)
    if n < 2:
        raise ValueError("linkage requires at least two leaves")
    index = {label: i for i, label in enumerate(labels)}
    rows: List[List[float]] = []
    next_cluster = n

    def visit(node: TreeNode) -> Tuple[int, int]:
        """Post-order: returns (cluster id, cluster size)."""
        nonlocal next_cluster
        if node.is_leaf:
            return index[node.label], 1  # type: ignore[index]
        if len(node.children) != 2:
            raise ValueError("scipy linkage requires a binary tree")
        (id_a, size_a) = visit(node.children[0])
        (id_b, size_b) = visit(node.children[1])
        rows.append(
            [float(min(id_a, id_b)), float(max(id_a, id_b)),
             2.0 * node.height, float(size_a + size_b)]
        )
        cluster = next_cluster
        next_cluster += 1
        return cluster, size_a + size_b

    visit(tree.root)
    return np.asarray(rows, dtype=float), labels


def linkage_to_tree(
    linkage: np.ndarray, labels: Optional[Sequence[str]] = None
) -> UltrametricTree:
    """Convert a scipy linkage matrix into an :class:`UltrametricTree`.

    Merge heights become node heights (``distance / 2``); non-monotone
    linkages (possible with e.g. centroid linkage) are rejected because
    they do not describe an ultrametric tree.
    """
    z = np.asarray(linkage, dtype=float)
    if z.ndim != 2 or z.shape[1] != 4:
        raise ValueError(f"linkage must be (n-1, 4), got {z.shape}")
    n = z.shape[0] + 1
    if labels is None:
        labels = [f"s{i}" for i in range(n)]
    labels = list(labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a {n}-leaf linkage")

    nodes: List[TreeNode] = [TreeNode(0.0, label=label) for label in labels]
    sizes = [1] * n  # leaves below each node
    for row_index, (a, b, distance, size) in enumerate(z):
        ia, ib = int(a), int(b)
        limit = n + row_index
        if not (0 <= ia < limit and 0 <= ib < limit) or ia == ib:
            raise ValueError(f"linkage row {row_index} references bad clusters")
        height = distance / 2.0
        left, right = nodes[ia], nodes[ib]
        if height < left.height - 1e-9 or height < right.height - 1e-9:
            raise ValueError(
                f"linkage row {row_index} is non-monotone "
                f"(distance {distance} below a child merge)"
            )
        if int(size) != sizes[ia] + sizes[ib]:
            raise ValueError(f"linkage row {row_index} has a wrong size field")
        sizes.append(sizes[ia] + sizes[ib])
        nodes.append(TreeNode(max(height, left.height, right.height),
                              [left, right]))
    return UltrametricTree(nodes[-1])
