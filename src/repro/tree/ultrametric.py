"""The :class:`UltrametricTree` data structure.

An ultrametric tree (UT) is a rooted, leaf-labelled, edge-weighted binary
tree in which every internal node has the same path length to all leaves
of its subtree (Definition 6).  We store the *height* of every node (its
distance to any leaf below it, Definition 7); edge weights are height
differences, and the weight of the tree is

    omega(T) = sum over edges of (height(parent) - height(child))
             = height(root) + sum over internal nodes of height(node)

which is the quantity the Minimum Ultrametric Tree problem minimises
(Definition 8).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix

__all__ = ["TreeNode", "UltrametricTree"]


class TreeNode:
    """A node of an ultrametric tree.

    Leaves carry a ``label`` and height ``0``; internal nodes carry a
    positive ``height`` and exactly two children (binary trees, per the
    paper's model), except transiently during construction.
    """

    __slots__ = ("height", "children", "label", "parent")

    def __init__(
        self,
        height: float = 0.0,
        children: Optional[List["TreeNode"]] = None,
        label: Optional[str] = None,
    ) -> None:
        self.height = float(height)
        self.children: List[TreeNode] = list(children) if children else []
        self.label = label
        self.parent: Optional[TreeNode] = None
        for child in self.children:
            child.parent = self

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def add_child(self, child: "TreeNode") -> None:
        child.parent = self
        self.children.append(child)

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> List["TreeNode"]:
        """All leaf nodes below (or equal to) this node, left to right."""
        found = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                found.append(node)
        return found

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"TreeNode(leaf {self.label!r})"
        return f"TreeNode(h={self.height:.4g}, {len(self.children)} children)"


class UltrametricTree:
    """A rooted ultrametric tree over named species.

    The class is a thin, well-checked wrapper around a :class:`TreeNode`
    root.  It provides the paper's cost function ``omega``, LCA queries,
    the induced tree metric, leaf substitution (the merge primitive of the
    compact-set pipeline) and Newick export via :mod:`repro.tree.newick`.
    """

    def __init__(self, root: TreeNode) -> None:
        self.root = root
        self._leaf_index: Dict[str, TreeNode] = {}
        for leaf in root.leaves():
            if leaf.label is None:
                raise ValueError("every leaf must carry a label")
            if leaf.label in self._leaf_index:
                raise ValueError(f"duplicate leaf label {leaf.label!r}")
            self._leaf_index[leaf.label] = leaf

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def leaf(cls, label: str) -> "UltrametricTree":
        """A single-leaf tree (height 0)."""
        return cls(TreeNode(0.0, label=label))

    @classmethod
    def join(
        cls, left: "UltrametricTree", right: "UltrametricTree", height: float
    ) -> "UltrametricTree":
        """Join two trees under a new root at ``height``.

        ``height`` must be at least the heights of both subtree roots,
        otherwise an edge would have negative weight.
        """
        if height < left.root.height or height < right.root.height:
            raise ValueError(
                f"join height {height} is below a subtree root "
                f"({left.root.height}, {right.root.height})"
            )
        return cls(TreeNode(height, [left.root, right.root]))

    def copy(self) -> "UltrametricTree":
        """Deep structural copy."""
        return self.graft({})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def leaf_labels(self) -> List[str]:
        """Labels in left-to-right leaf order."""
        return [leaf.label for leaf in self.root.leaves()]  # type: ignore[misc]

    @property
    def n_leaves(self) -> int:
        return len(self._leaf_index)

    def has_leaf(self, label: str) -> bool:
        return label in self._leaf_index

    def height(self) -> float:
        """Height of the root (distance from root to every leaf)."""
        return self.root.height

    def cost(self) -> float:
        """Total edge weight ``omega(T)`` (Definition 4)."""
        total = 0.0
        for node in self.root.walk():
            for child in node.children:
                total += node.height - child.height
        return total

    def lca(self, a: str, b: str) -> TreeNode:
        """Lowest common ancestor of two leaves."""
        path_a = self._path_to_root(a)
        ancestors = set(map(id, path_a))
        node: Optional[TreeNode] = self._leaf(b)
        while node is not None:
            if id(node) in ancestors:
                return node
            node = node.parent
        raise RuntimeError("leaves are not in the same tree")  # pragma: no cover

    def distance(self, a: str, b: str) -> float:
        """Induced tree metric: ``d_T(a, b) = 2 * height(LCA(a, b))``."""
        if a == b:
            return 0.0
        return 2.0 * self.lca(a, b).height

    def distance_matrix(self, labels: Optional[Sequence[str]] = None) -> DistanceMatrix:
        """The full matrix of induced distances (useful in tests)."""
        labels = list(labels) if labels is not None else self.leaf_labels
        return DistanceMatrix(
            2.0 * self._lca_heights(labels), labels, validate=False
        )

    def _lca_heights(self, labels: Sequence[str]) -> np.ndarray:
        """Matrix of LCA heights for the given leaf labels.

        The diagonal, and every row and column of a label the tree lacks,
        is 0.  One bottom-up pass numbers the leaves as it meets them, so
        the leaves below a node are a contiguous run of positions, and
        each internal node writes its height into the blocks between its
        children with slice assignments.  One gather then maps positions
        onto ``labels``.
        """
        order = list(self.root.walk())
        m = sum(1 for node in order if not node.children)
        # Row and column ``m`` stay 0: the gather's slot for absent labels.
        heights = np.zeros((m + 1, m + 1))
        position: Dict[Optional[str], int] = {}
        starts: List[int] = []  # first leaf position of each finished subtree
        end = 0  # one past the last leaf position seen so far
        for node in reversed(order):  # each node after its children
            k = len(node.children)
            if not k:
                position[node.label] = end
                starts.append(end)
                end += 1
                continue
            height = node.height
            # The k children finished last; each spans from its start to
            # the next one's, and the final one ends at ``end``.  Pair each
            # child with all the children after it.
            for c in range(len(starts) - k, len(starts) - 1):
                lo, mid = starts[c], starts[c + 1]
                heights[lo:mid, mid:end] = height
                heights[mid:end, lo:mid] = height
            del starts[len(starts) - k + 1:]
        index = np.array([position.get(label, m) for label in labels], dtype=np.intp)
        return heights.take(index, axis=0).take(index, axis=1)

    # ------------------------------------------------------------------
    # mutation used by the compact-set merge
    # ------------------------------------------------------------------
    def replace_leaf(self, label: str, subtree: "UltrametricTree") -> "UltrametricTree":
        """Return a new tree with leaf ``label`` replaced by ``subtree``.

        This is the merge primitive of Section 3 of the paper: the leaf
        that stood for a compact set in the reduced-matrix tree is grafted
        with the compact set's own solved subtree.  The graft is legal only
        when the leaf's parent height is at least the subtree root height
        (guaranteed by compactness when the *maximum* reduction is used);
        violations raise ``ValueError``.
        """
        self._leaf(label)  # KeyError for an unknown leaf
        return self.graft({label: subtree})

    def graft(self, subtrees: Mapping[str, "UltrametricTree"]) -> "UltrametricTree":
        """Return a copy with every leaf named in ``subtrees`` replaced.

        One pre-order pass copies this tree and, in place of each named
        leaf, a copy of its subtree, building the new leaf index as it
        goes -- so grafting ``k`` subtrees costs one copy of the result,
        not ``k``.  Neither this tree nor the subtrees are modified.
        Labels in ``subtrees`` that name no leaf are ignored.  Raises
        ``ValueError`` when a subtree is taller than the parent of the
        leaf it replaces, or when the result would repeat a leaf label.
        """
        index: Dict[str, TreeNode] = {}
        new_root: Optional[TreeNode] = None
        # (node to copy, parent of its copy, whether its leaves may be
        # replaced): leaves inside a grafted subtree are never replaced.
        stack: List[tuple] = [(self.root, None, True)]
        while stack:
            node, parent, replaceable = stack.pop()
            if replaceable and not node.children and node.label in subtrees:
                sub_root = subtrees[node.label].root  # type: ignore[index]
                if parent is not None and parent.height < sub_root.height - 1e-9:
                    raise ValueError(
                        f"cannot graft subtree of height {sub_root.height} "
                        f"under a parent of height {parent.height}"
                    )
                stack.append((sub_root, parent, False))
                continue
            clone = TreeNode(node.height, label=node.label)
            if parent is None:
                new_root = clone
            else:
                parent.add_child(clone)
            if node.children:
                for child in reversed(node.children):
                    stack.append((child, clone, replaceable))
            else:
                if clone.label is None:
                    raise ValueError("every leaf must carry a label")
                if clone.label in index:
                    raise ValueError(f"duplicate leaf label {clone.label!r}")
                index[clone.label] = clone
        tree = UltrametricTree.__new__(UltrametricTree)
        tree.root = new_root
        tree._leaf_index = index
        return tree

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _leaf(self, label: str) -> TreeNode:
        try:
            return self._leaf_index[label]
        except KeyError:
            raise KeyError(f"tree has no leaf {label!r}") from None

    def _path_to_root(self, label: str) -> List[TreeNode]:
        path = []
        node: Optional[TreeNode] = self._leaf(label)
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def __repr__(self) -> str:
        return (
            f"UltrametricTree(n_leaves={self.n_leaves}, "
            f"height={self.height():.4g}, cost={self.cost():.4g})"
        )
