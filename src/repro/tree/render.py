"""ASCII rendering of ultrametric trees.

The project report promises a tool biologists can read without extra
software; this module draws the tree as a left-to-right dendrogram whose
column positions are proportional to node heights, e.g.::

    +--+------- a
    |  +------- b
    +---------- c

Used by the CLI's ``render`` subcommand and handy in notebooks/tests.
"""

from __future__ import annotations

from typing import List

from repro.tree.compare import clade_sets
from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = ["render_ascii", "render_heights"]


def render_ascii(tree: UltrametricTree, *, width: int = 60) -> str:
    """Draw ``tree`` as an ASCII dendrogram.

    ``width`` is the number of columns of the branch area; leaf labels
    follow it.  Node heights map linearly onto columns -- the root sits
    at column 0 and leaves at column ``width`` -- so the length of every
    horizontal run is proportional to the edge weight.
    """
    if width < 4:
        raise ValueError("width must be at least 4")
    root_height = tree.root.height
    if root_height <= 0:
        return "\n".join(f"- {label}" for label in tree.leaf_labels)

    def column(node: TreeNode) -> int:
        return int(round(width * (1.0 - node.height / root_height)))

    def emit(node: TreeNode, node_col: int) -> List[str]:
        """Lines of this subtree, relative to the node's rail column."""
        if node.is_leaf:
            return [f" {node.label}"]
        lines: List[str] = []
        for index, child in enumerate(node.children):
            child_col = max(column(child), node_col + 1)
            dashes = "-" * (child_col - node_col - 1)
            connector = "+" + dashes
            rail = "|" if index < len(node.children) - 1 else " "
            continuation = rail + " " * len(dashes)
            sub = emit(child, child_col)
            lines.append(connector + sub[0])
            lines.extend(continuation + line for line in sub[1:])
        return lines

    return "\n".join(emit(tree.root, 0))


def render_heights(tree: UltrametricTree) -> str:
    """A compact textual summary: each internal node's height and leaves.

    Useful when the dendrogram is too wide; one line per internal node,
    sorted by height (deepest merges first).
    """
    entries = [
        (node.height, sorted(members))
        for node, members in clade_sets(tree.root)
    ]
    entries.sort(key=lambda e: (e[0], e[1]))
    return "\n".join(
        f"h={height:10.4f}  {{{', '.join(leaves)}}}" for height, leaves in entries
    )
