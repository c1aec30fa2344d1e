"""An O(n^2) compact-set algorithm (after Liang 1993 / Dekel-Hu-Ouyang).

The paper cites Liang's "An O(n^2) Algorithm for Finding the Compact
Sets of a Graph" as the efficient alternative to re-scanning the whole
matrix at every Kruskal merge (which costs O(n^3) overall).  The two
observations that make O(n^2) possible on a complete graph:

* **Min side.** By the cut property, the lightest edge leaving any
  vertex group is an MST edge, so ``Min(A, !A)`` is just the lightest
  *unprocessed MST edge* incident to the group -- maintainable with one
  lazily-deleted heap per group, merged small-into-large.
* **Max side.** ``Max(A u B) = max(Max(A), Max(B), max cross(A, B))``.
  Each group keeps a row-max vector (the largest distance from any
  member to every vertex), so the cross maximum is one NumPy reduction
  of ``A``'s vector over ``B``'s members, and the merged group's vector
  one elementwise maximum: ``O(n)`` per merge, ``O(n^2)`` over the
  ``n - 1`` merges, with no Python loop over vertex pairs.

The result is exactly the set family of
:func:`repro.graph.compact_sets.find_compact_sets` (tested), at a cost
dominated by the O(n^2) MST construction itself.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List

import numpy as np

from repro.graph.mst import kruskal_mst
from repro.graph.union_find import UnionFind
from repro.matrix.distance_matrix import DistanceMatrix

__all__ = ["find_compact_sets_fast"]


def find_compact_sets_fast(
    matrix: DistanceMatrix,
    *,
    include_singletons: bool = False,
    include_universe: bool = False,
) -> List[FrozenSet[int]]:
    """All compact sets of ``matrix`` in O(n^2) after the MST.

    Drop-in replacement for
    :func:`repro.graph.compact_sets.find_compact_sets`; results are
    returned in the same discovery order.
    """
    n = matrix.n
    values = matrix.values
    found: List[FrozenSet[int]] = []
    if include_singletons:
        found.extend(frozenset({i}) for i in range(n))

    if n >= 2:
        tree = kruskal_mst(matrix)
        uf = UnionFind(n)
        # Per-group state, keyed by union-find root:
        #   heaps of (weight, edge_index) for incident MST edges not yet
        #   processed; the running internal maximum distance.
        heaps: Dict[int, List] = {i: [] for i in range(n)}
        max_internal: Dict[int, float] = {i: 0.0 for i in range(n)}
        #   the row-max vector: entry v is the largest distance from any
        #   group member to v (a singleton's is its own matrix row).
        row_max: Dict[int, np.ndarray] = {i: values[i] for i in range(n)}
        processed = [False] * len(tree)
        for index, (i, j, w) in enumerate(tree):
            heapq.heappush(heaps[i], (w, index))
            heapq.heappush(heaps[j], (w, index))

        for index, (i, j, w) in enumerate(tree):
            root_a, root_b = uf.find(i), uf.find(j)
            # Cross maximum in one reduction: A's row-max over B's
            # members.  Each merge costs O(|B| + n), O(n^2) in total.
            cross = float(row_max[root_a][uf.group(j)].max())
            merged_max = max(max_internal[root_a], max_internal[root_b], cross)
            processed[index] = True
            uf.union(i, j)
            root = uf.find(i)
            other = root_b if root == root_a else root_a
            small, large = heaps[other], heaps[root]
            if len(small) > len(large):
                small, large = large, small
            for item in small:
                heapq.heappush(large, item)
            heaps[root] = large
            heaps.pop(other, None)
            max_internal[root] = merged_max
            max_internal.pop(other, None)
            row_max[root] = np.maximum(row_max.pop(root_a), row_max.pop(root_b))

            group_size = uf.group_size(i)
            if group_size == n:
                break
            # Lightest unprocessed MST edge incident to the group ==
            # Min(A, !A) by the cut property.
            heap = heaps[root]
            while heap and processed[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:  # pragma: no cover - only the final merge
                continue
            if merged_max < heap[0][0]:
                found.append(frozenset(uf.group(i)))

    if include_universe and n >= 1:
        universe = frozenset(range(n))
        if universe not in found:
            found.append(universe)
    return found
