"""The compact-set hierarchy in one Kruskal pass (after Liang 1993).

The paper cites Liang's "An O(n^2) Algorithm for Finding the Compact
Sets of a Graph" as the efficient alternative to re-scanning the whole
matrix at every Kruskal merge (which costs O(n^3) overall).  By Lemma 4
every compact set is a group that Kruskal's scan completes, so the
hierarchy is the Kruskal merge tree with its non-compact merges
contracted.  One pass over the sorted edges builds it:

* **Min side.** A group ``A`` stays a component until the next accepted
  edge touching it absorbs it.  No edge leaving ``A`` can come earlier
  in the sorted order (it would have been accepted, or rejected because
  its ends were already joined, and either way put its far end inside
  ``A``), so that edge is the first edge leaving ``A`` in sort order:
  its weight is ``Min(A, !A)``, ties included.  Compactness is therefore
  settled when ``A`` is absorbed: ``A`` is compact iff ``Max(A) < w``.
* **Max side.** ``Max(A u B) = max(Max(A), Max(B), max cross(A, B))``.
  Each group keeps a row-max vector (the largest distance from any
  member to every vertex), so the cross maximum is ``A``'s vector read
  over ``B``'s members, and the merged group's vector one elementwise
  maximum: ``O(n)`` per merge, ``O(n^2)`` over the ``n - 1`` merges.

A compact group closes into a :class:`HierarchyNode` whose children are
its live *parts* -- the singletons and compact groups it absorbed, in
order of their smallest member.  Each part keeps its row-max vector
until its parent closes, so the parent's *maximum*-reduced matrix entry
``(P_a, P_b)`` is ``P_a``'s vector reduced over ``P_b``'s members:
bit-identical to :func:`repro.core.reduction.reduce_matrix`, since a
maximum does not depend on the order it is taken in.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.graph.hierarchy import HierarchyNode
from repro.graph.mst import _sorted_edges
from repro.matrix.distance_matrix import DistanceMatrix

__all__ = ["find_compact_sets_fast", "kruskal_hierarchy"]

#: A live part of a group: ``(smallest member, node, row-max vector,
#: members)``.  The leading key sorts a closing group's children.
_Part = Tuple[int, HierarchyNode, np.ndarray, List[int]]


#: Longest column list :func:`_cross_max` reads entry by entry; a longer
#: one pays for NumPy's fancy index and reduction (about 3 us), which
#: wins from about 32 entries on.
_ENTRYWISE_MAX_COLUMNS = 32


def _cross_max(row: np.ndarray, columns: List[int]) -> float:
    """``max(row[columns])``, exactly: a maximum does not round."""
    if len(columns) <= _ENTRYWISE_MAX_COLUMNS:
        return max(map(row.item, columns))
    return float(row[columns].max())


def _close(parts: List[_Part], members: List[int], reduce: bool) -> HierarchyNode:
    """The hierarchy node of a compact group made of ``parts``, which it
    sorts by smallest member."""
    parts.sort()  # parts are disjoint, so the smallest members never tie
    node = HierarchyNode(frozenset(members), [part[1] for part in parts])
    if reduce:
        # Entry (a, b) with a < b reads a's rows, as reduce_matrix does.
        k = len(parts)
        reduced = [[0.0] * k for _ in range(k)]
        for a in range(k - 1):
            row = parts[a][2]
            for b in range(a + 1, k):
                reduced[a][b] = reduced[b][a] = _cross_max(row, parts[b][3])
        node.reduced = reduced
    return node


def kruskal_hierarchy(
    matrix: DistanceMatrix, *, reduce: bool = False
) -> Tuple[HierarchyNode, List[FrozenSet[int]]]:
    """The compact-set hierarchy of ``matrix`` and its sets, in one pass.

    Returns the root (covering every vertex; singletons are the leaves,
    children ordered by smallest member) and the non-trivial compact
    sets in formation order -- the order of the Kruskal merge that
    completed each one.  With ``reduce``, every internal node also
    carries its ``maximum``-reduced matrix, as row lists, in
    :attr:`HierarchyNode.reduced`.
    """
    n = matrix.n
    if n < 2:
        return HierarchyNode(frozenset(range(n))), []
    # Group state, indexed by group id (a vertex of the group).
    group_of = list(range(n))
    members: List[List[int]] = [[v] for v in range(n)]
    row_max: List[np.ndarray] = list(matrix.values)
    max_internal = [0.0] * n
    parts: List[List[_Part]] = [
        [(v, HierarchyNode(frozenset((v,))), row_max[v], [v])] for v in range(n)
    ]
    formed_at = [-1] * n
    formed: List[Optional[FrozenSet[int]]] = [None] * (n - 1)

    def absorbed(g: int, w: float) -> List[_Part]:
        """The parts group ``g`` brings into a merge along weight ``w``."""
        if len(members[g]) > 1 and max_internal[g] < w:
            group = list(members[g])
            node = _close(parts[g], group, reduce)
            formed[formed_at[g]] = node.members
            return [(parts[g][0][0], node, row_max[g], group)]
        return parts[g]

    merges = 0
    for i, j, w in _sorted_edges(matrix):
        a, b = group_of[i], group_of[j]
        if a == b:
            continue
        merged_parts = absorbed(a, w) + absorbed(b, w)
        merges += 1
        if merges == n - 1:
            root = _close(merged_parts, list(range(n)), reduce)
            return root, [s for s in formed if s is not None]
        # Cross maximum: i's group's row-max over j's group's members
        # (i < j, the same rows the scan reads).
        cross = _cross_max(row_max[a], members[b])
        merged_max = max(max_internal[a], max_internal[b], cross)
        merged_row = np.maximum(row_max[a], row_max[b])
        keep, other = (a, b) if len(members[a]) >= len(members[b]) else (b, a)
        for v in members[other]:
            group_of[v] = keep
        members[keep].extend(members[other])
        row_max[keep] = merged_row
        max_internal[keep] = merged_max
        parts[keep] = merged_parts
        formed_at[keep] = merges - 1
    raise AssertionError("a complete graph is connected")  # pragma: no cover


def find_compact_sets_fast(
    matrix: DistanceMatrix,
    *,
    include_singletons: bool = False,
    include_universe: bool = False,
) -> List[FrozenSet[int]]:
    """All compact sets of ``matrix`` in O(n^2) after the edge sort.

    Drop-in replacement for
    :func:`repro.graph.compact_sets.find_compact_sets`: the sets of
    :func:`kruskal_hierarchy`, returned in the same discovery order.
    """
    n = matrix.n
    found: List[FrozenSet[int]] = []
    if include_singletons:
        found.extend(frozenset({i}) for i in range(n))
    found.extend(kruskal_hierarchy(matrix)[1])
    if include_universe and n >= 1:
        universe = frozenset(range(n))
        if universe not in found:
            found.append(universe)
    return found
