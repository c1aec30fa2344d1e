"""Consensus trees over a collection of ultrametric trees.

Branch-and-bound with ``collect_all`` returns *every* cost-optimal tree
(the papers' "results set"); bootstrap replication returns one tree per
resampled matrix.  Either way the biologist wants a single summary: the
*majority-rule consensus* keeps exactly the clades appearing in more
than a threshold fraction of the input trees (strict consensus at
threshold 1.0).  Majority clades are pairwise laminar, so they assemble
into a (generally non-binary) rooted tree; node heights are the average
heights of the supporting clades.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.tree.compare import clade_sets, clades
from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = ["majority_consensus", "clade_support"]


def clade_support(
    trees: Sequence[UltrametricTree],
) -> Dict[FrozenSet[str], float]:
    """Fraction of ``trees`` containing each observed non-trivial clade."""
    if not trees:
        raise ValueError("need at least one tree")
    leaf_set = set(trees[0].leaf_labels)
    for tree in trees[1:]:
        if set(tree.leaf_labels) != leaf_set:
            raise ValueError("all trees must share the same leaf set")
    counts: Dict[FrozenSet[str], int] = {}
    for tree in trees:
        for clade in clades(tree):
            counts[clade] = counts.get(clade, 0) + 1
    return {clade: count / len(trees) for clade, count in counts.items()}


def _average_clade_heights(
    trees: Sequence[UltrametricTree],
    kept: Sequence[FrozenSet[str]],
) -> Dict[FrozenSet[str], float]:
    totals: Dict[FrozenSet[str], Tuple[float, int]] = {
        clade: (0.0, 0) for clade in kept
    }
    kept_set = set(kept)
    for tree in trees:
        for node, members in clade_sets(tree.root):
            if members in kept_set:
                total, count = totals[members]
                totals[members] = (total + node.height, count + 1)
    return {
        clade: total / count for clade, (total, count) in totals.items() if count
    }


def majority_consensus(
    trees: Sequence[UltrametricTree],
    *,
    threshold: float = 0.5,
) -> UltrametricTree:
    """The majority-rule consensus of ``trees``.

    Keeps clades whose support strictly exceeds ``threshold`` (0.5 =
    classic majority rule; 1.0 - epsilon = strict consensus).  Clades
    above half support can never conflict, so they always nest into a
    tree; internal nodes may have more than two children where the
    inputs disagree.  Node heights average the supporting trees' clade
    heights (the root averages the input root heights), clamped so the
    result stays a valid ultrametric tree.
    """
    if not 0.5 <= threshold <= 1.0:
        raise ValueError(
            "threshold must be in [0.5, 1.0]; below 0.5 conflicting "
            "clades could both survive"
        )
    support = clade_support(trees)
    labels = trees[0].leaf_labels
    kept = [
        clade
        for clade, fraction in support.items()
        if fraction > threshold - 1e-12 and fraction >= 0.5
    ]
    # Strictly-majority clades are laminar; sort big-to-small and nest.
    # Same-size clades are disjoint: order them by their first leaf in
    # ``labels``, not by the hash order the clade sets came in.
    position = {label: i for i, label in enumerate(labels)}
    kept.sort(key=lambda clade: (-len(clade), min(map(position.get, clade))))
    heights = _average_clade_heights(trees, kept)
    root_height = sum(t.height() for t in trees) / len(trees)

    universe = frozenset(labels)
    root = TreeNode(root_height)
    containers: List[Tuple[FrozenSet[str], TreeNode]] = [(universe, root)]

    for clade in kept:
        # Deepest kept clade strictly containing this one (or the root).
        parent = root
        parent_members = universe
        for members, node in containers:
            if clade < members and len(members) < len(parent_members):
                parent, parent_members = node, members
        height = min(heights.get(clade, parent.height), parent.height)
        node = TreeNode(height)
        parent.add_child(node)
        containers.append((clade, node))

    # Attach every leaf under the smallest kept clade containing it.
    for label in labels:
        parent = root
        parent_members = universe
        for members, node in containers:
            if label in members and len(members) < len(parent_members):
                parent, parent_members = node, members
        parent.add_child(TreeNode(0.0, label=label))

    return UltrametricTree(root)
