"""The laminar hierarchy of compact sets.

Lemma 3 of the paper guarantees that compact sets never properly cross,
so together with the universe and the singletons they form a rooted tree:
the *compact-set hierarchy*.  Each internal node of the hierarchy induces
one small distance matrix over its children (Section 3.1 of the paper),
and the pipeline solves those matrices independently before merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Sequence

from repro.graph.compact_sets import find_compact_sets
from repro.matrix.distance_matrix import DistanceMatrix

__all__ = ["HierarchyNode", "CompactSetHierarchy"]


@dataclass
class HierarchyNode:
    """One node of the compact-set hierarchy.

    ``members`` is the vertex set the node covers; ``children`` partition
    it, ordered by smallest member.  Leaves are singletons.  ``reduced``
    is the node's ``maximum``-reduced matrix as row lists (one row per
    child, in child order) when
    :func:`repro.graph.compact_linear.kruskal_hierarchy` was asked for
    it, else ``None``.
    """

    members: FrozenSet[int]
    children: List["HierarchyNode"] = field(default_factory=list)
    reduced: Optional[List[List[float]]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def arity(self) -> int:
        """Number of children = size of this node's reduced matrix."""
        return len(self.children)

    def walk(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal of the subtree rooted here.

        Iterative, so a deeply nested hierarchy (one compact set per
        level) does not hit the interpreter's recursion limit.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"{self.arity} children"
        return f"HierarchyNode({sorted(self.members)}, {kind})"


class CompactSetHierarchy:
    """The laminar family of compact sets arranged as a tree.

    The root covers every vertex; every non-trivial compact set appears as
    an internal node; singletons are the leaves.  ``from_matrix`` builds
    the hierarchy with the paper's MST scan.
    """

    def __init__(self, root: HierarchyNode, n: int) -> None:
        self.root = root
        self.n = n

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls, matrix: DistanceMatrix, *, algorithm: str = "fast"
    ) -> "CompactSetHierarchy":
        """Build the hierarchy of all compact sets of ``matrix``.

        ``algorithm`` selects the discovery routine: ``"fast"`` (the
        one-pass O(n^2) method of :mod:`repro.graph.compact_linear`,
        default) or ``"scan"`` (the paper's literal re-scanning
        algorithm, arranged by :meth:`from_sets`).  Both return the same
        tree.
        """
        if algorithm == "fast":
            from repro.graph.compact_linear import kruskal_hierarchy

            return cls(kruskal_hierarchy(matrix)[0], matrix.n)
        if algorithm != "scan":
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose 'fast' or 'scan'"
            )
        return cls.from_sets(find_compact_sets(matrix), matrix.n)

    @classmethod
    def from_sets(
        cls, sets: Sequence[FrozenSet[int]], n: int
    ) -> "CompactSetHierarchy":
        """Arrange an arbitrary laminar family over ``range(n)`` as a tree.

        Raises ``ValueError`` if two sets properly cross (which Lemma 3
        rules out for genuine compact sets).
        """
        universe = frozenset(range(n))
        # Deduplicate; drop singletons and the universe, re-added below.
        unique = {s for s in sets if 1 < len(s) < n}
        ordered = sorted(unique, key=len, reverse=True)
        root = HierarchyNode(universe)
        for members in ordered:
            parent = cls._deepest_superset(root, members)
            for existing in parent.children:
                overlap = existing.members & members
                if overlap and not existing.members <= members:
                    raise ValueError(
                        f"sets {sorted(existing.members)} and {sorted(members)} "
                        "properly cross; not a laminar family"
                    )
            node = HierarchyNode(members)
            # Adopt any existing children that the new set swallows.
            swallowed = [c for c in parent.children if c.members <= members]
            for child in swallowed:
                parent.children.remove(child)
                node.children.append(child)
            parent.children.append(node)
        cls._attach_singletons(root)
        return cls(root, n)

    @staticmethod
    def _deepest_superset(root: HierarchyNode, members: FrozenSet[int]) -> HierarchyNode:
        node = root
        descended = True
        while descended:
            descended = False
            for child in node.children:
                if members <= child.members:
                    node = child
                    descended = True
                    break
        return node

    @staticmethod
    def _attach_singletons(root: HierarchyNode) -> None:
        for node in list(root.walk()):
            if node.size == 1:
                continue
            covered = frozenset().union(
                *[c.members for c in node.children]
            ) if node.children else frozenset()
            for vertex in sorted(node.members - covered):
                node.children.append(HierarchyNode(frozenset({vertex})))
            node.children.sort(key=lambda c: min(c.members))

    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[HierarchyNode]:
        """All nodes in pre-order."""
        return self.root.walk()

    def internal_nodes(self) -> List[HierarchyNode]:
        """Nodes with children -- each one yields a reduced matrix."""
        return [node for node in self.nodes() if not node.is_leaf]

    def compact_sets(self) -> List[FrozenSet[int]]:
        """The non-trivial compact sets present in the hierarchy."""
        return [
            node.members
            for node in self.nodes()
            if 1 < node.size < self.n
        ]

    def max_subproblem_size(self) -> int:
        """The largest reduced-matrix size the decomposition produces.

        This is what bounds branch-and-bound effort after decomposition;
        the paper's speedups come from this number being far below ``n``.
        """
        arities = [node.arity for node in self.internal_nodes()]
        return max(arities) if arities else 1

    def depth(self) -> int:
        """Longest root-to-leaf path length (edges)."""
        deepest = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            deepest = max(deepest, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return deepest

    def __repr__(self) -> str:
        return (
            f"CompactSetHierarchy(n={self.n}, "
            f"compact_sets={len(self.compact_sets())}, "
            f"max_subproblem={self.max_subproblem_size()})"
        )
