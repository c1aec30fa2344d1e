"""Merging solved subtrees back into one ultrametric tree.

The last step of the paper's pipeline: each leaf of a reduced-matrix tree
that stands for a whole compact set is replaced by that compact set's own
solved subtree.  Compactness makes this safe: the placeholder leaf's
parent sits at height at least ``Min(C, !C) / 2``, while the subtree root
sits at ``Max(C) / 2 < Min(C, !C) / 2`` -- so the grafted edge always has
positive weight and the result remains a valid ultrametric tree (and,
under the *maximum* reduction, still dominates the original matrix).

The merge moves each subtree root into its placeholder's slot instead of
copying it, so no node is ever built twice: over a whole hierarchy the
node work is linear in the size of the final tree, however deep the
nesting.  Only the leaf indexes are combined, smaller into larger.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = ["merge_group_tree"]


def merge_group_tree(
    group_tree: UltrametricTree,
    subtrees: Mapping[str, UltrametricTree],
) -> UltrametricTree:
    """Replace placeholder leaves of ``group_tree`` by solved subtrees.

    ``subtrees`` maps placeholder leaf labels to the trees that expand
    them; placeholders not present in the map are kept as-is (singleton
    groups already carry the species label).

    The merge **consumes its inputs**: each subtree's root is moved into
    the slot of its placeholder and the trees' leaf indexes are reused,
    so neither ``group_tree`` nor any subtree may be used afterwards,
    whether the merge returns or raises.  The pipeline owns every tree
    it solved, so it can hand them over; callers that need the inputs
    intact use the copying :meth:`UltrametricTree.graft`.

    Raises ``KeyError`` for a label that names no leaf of
    ``group_tree``, and ``ValueError`` if a graft would need a negative
    edge (the subtree is more than ``1e-9`` taller than the
    placeholder's parent, which cannot happen for genuine compact sets
    and therefore signals a caller bug) or if the result would repeat a
    leaf label.
    """
    if not subtrees:
        return group_tree
    group_index = group_tree._leaf_index
    slots = []
    for label, subtree in subtrees.items():
        placeholder = group_index.get(label)
        if placeholder is None:
            raise KeyError(f"group tree has no placeholder leaf {label!r}")
        parent = placeholder.parent
        sub_root = subtree.root
        if parent is not None and parent.height < sub_root.height - 1e-9:
            raise ValueError(
                f"cannot graft subtree of height {sub_root.height} "
                f"under a parent of height {parent.height}"
            )
        slots.append((placeholder, parent, sub_root))

    # Grow the largest index by the smaller ones: in a nesting chain the
    # deep subtree's index is taken over and each level adds its own few
    # leaves.
    parts = [tree._leaf_index for tree in subtrees.values()]
    parts.append(
        {k: v for k, v in group_index.items() if k not in subtrees}
    )
    parts.sort(key=len)
    index: Dict[str, TreeNode] = parts.pop()
    for part in parts:
        if not index.keys().isdisjoint(part):
            label = min(index.keys() & part.keys())
            raise ValueError(f"duplicate leaf label {label!r}")
        index.update(part)

    root = group_tree.root
    for placeholder, parent, sub_root in slots:
        sub_root.parent = parent
        if parent is None:
            root = sub_root
        else:
            siblings = parent.children
            siblings[siblings.index(placeholder)] = sub_root
    merged = UltrametricTree.__new__(UltrametricTree)
    merged.root = root
    merged._leaf_index = index
    return merged
