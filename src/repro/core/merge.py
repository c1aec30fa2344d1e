"""Merging solved subtrees back into one ultrametric tree.

The last step of the paper's pipeline: each leaf of a reduced-matrix tree
that stands for a whole compact set is replaced by that compact set's own
solved subtree.  Compactness makes this safe: the placeholder leaf's
parent sits at height at least ``Min(C, !C) / 2``, while the subtree root
sits at ``Max(C) / 2 < Min(C, !C) / 2`` -- so the grafted edge always has
positive weight and the result remains a valid ultrametric tree (and,
under the *maximum* reduction, still dominates the original matrix).
"""

from __future__ import annotations

from typing import Mapping

from repro.tree.ultrametric import UltrametricTree

__all__ = ["merge_group_tree"]


def merge_group_tree(
    group_tree: UltrametricTree,
    subtrees: Mapping[str, UltrametricTree],
) -> UltrametricTree:
    """Replace placeholder leaves of ``group_tree`` by solved subtrees.

    ``subtrees`` maps placeholder leaf labels to the trees that expand
    them; placeholders not present in the map are kept as-is (singleton
    groups already carry the species label).  Raises ``ValueError`` if a
    graft would need a negative edge, i.e. the subtree is taller than the
    placeholder's parent allows -- which cannot happen for genuine
    compact sets and therefore signals a caller bug.
    """
    if not subtrees:
        return group_tree
    for label in subtrees:
        if not group_tree.has_leaf(label):
            raise KeyError(f"group tree has no placeholder leaf {label!r}")
    # Graft every placeholder in one pass: the merge then copies the
    # tree once, not once per placeholder.
    return group_tree.graft(subtrees)
