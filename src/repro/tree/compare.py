"""Tree comparison metrics.

The papers argue that compact sets "keep the precise relations among
species"; these metrics let the experiments quantify that claim:

* **Robinson-Foulds distance** -- the symmetric difference of the two
  trees' clade sets (rooted version); 0 means identical topologies;
* **cophenetic correlation** -- Pearson correlation between the tree's
  induced distances and the input matrix, the classic measure of how
  faithfully a dendrogram represents its data.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = [
    "clade_sets",
    "clades",
    "robinson_foulds",
    "normalized_robinson_foulds",
    "shared_clades",
    "cophenetic_correlation",
]


def clade_sets(root: TreeNode) -> List[Tuple[TreeNode, FrozenSet[str]]]:
    """Every internal node under ``root`` with the labels of its leaves.

    Nodes come in :meth:`TreeNode.walk` order.  One bottom-up pass builds
    each node's set from its children's sets, instead of walking the
    whole subtree under every node.
    """
    below: List[FrozenSet[str]] = []  # the set of each finished subtree
    found: List[Tuple[TreeNode, FrozenSet[str]]] = []
    for node in reversed(list(root.walk())):  # each node after its children
        k = len(node.children)
        if not k:
            below.append(frozenset((node.label or "",)))
            continue
        members = frozenset().union(*below[len(below) - k:])
        del below[len(below) - k:]
        below.append(members)
        found.append((node, members))
    found.reverse()
    return found


def clades(tree: UltrametricTree) -> Set[FrozenSet[str]]:
    """The non-trivial clades of a rooted tree.

    A clade is the leaf-label set below an internal node; singletons and
    the full leaf set are excluded (every tree has those).
    """
    n_labels = len(frozenset(tree.leaf_labels))
    return {
        members
        for _, members in clade_sets(tree.root)
        if 1 < len(members) < n_labels
    }


def _check_same_leaves(a: UltrametricTree, b: UltrametricTree) -> None:
    if set(a.leaf_labels) != set(b.leaf_labels):
        raise ValueError("trees must share the same leaf set")


def robinson_foulds(a: UltrametricTree, b: UltrametricTree) -> int:
    """Rooted Robinson-Foulds distance: ``|clades(a) XOR clades(b)|``."""
    _check_same_leaves(a, b)
    return len(clades(a) ^ clades(b))


def normalized_robinson_foulds(a: UltrametricTree, b: UltrametricTree) -> float:
    """RF distance scaled into [0, 1] by the total clade count."""
    _check_same_leaves(a, b)
    ca, cb = clades(a), clades(b)
    total = len(ca) + len(cb)
    if total == 0:
        return 0.0
    return len(ca ^ cb) / total


def shared_clades(a: UltrametricTree, b: UltrametricTree) -> Set[FrozenSet[str]]:
    """The clades the two trees agree on."""
    _check_same_leaves(a, b)
    return clades(a) & clades(b)


def cophenetic_correlation(
    tree: UltrametricTree, matrix: DistanceMatrix
) -> float:
    """Pearson correlation of induced tree distances vs matrix distances.

    1.0 means the dendrogram reproduces the input metric perfectly (only
    possible when the input is itself ultrametric); values near 1 mean
    the tree distorts the data little.
    """
    labels = matrix.labels
    if set(labels) != set(tree.leaf_labels):
        raise ValueError("tree leaves and matrix labels differ")
    induced = tree.distance_matrix(labels).values
    n = len(labels)
    iu = np.triu_indices(n, k=1)
    x = matrix.values[iu]
    y = induced[iu]
    if x.size < 2 or np.std(x) == 0 or np.std(y) == 0:
        return 1.0 if np.allclose(x, y) else 0.0
    return float(np.corrcoef(x, y)[0, 1])
