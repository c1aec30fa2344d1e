"""Minimum spanning trees of the complete distance graph.

Step 1 of the paper's Algorithm *Compact Sets* finds an MST of the graph
the distance matrix describes ("here we use Kruskal's algorithm").  We
provide Kruskal (the paper's choice) and Prim (as a cross-check used in
tests), plus the uniqueness probe the paper discusses around Figure 7:
when an MST edge can be swapped for a non-tree edge of equal weight, more
than one MST exists and the compact-set scan order is ambiguous.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.graph.union_find import UnionFind
from repro.matrix.distance_matrix import DistanceMatrix

__all__ = ["kruskal_mst", "prim_mst", "mst_weight", "mst_is_unique"]

Edge = Tuple[int, int, float]


def _sorted_edges(matrix: DistanceMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle edges as ``(i, j, w)`` arrays sorted by weight.

    ``triu_indices`` lists the pairs in row-major ``(i, j)`` order and the
    stable sort keeps that order among equal weights, so the result is
    ordered exactly as a ``(w, i, j)`` tuple sort would order it.
    """
    rows, cols = np.triu_indices(matrix.n, k=1)
    weights = matrix.values[rows, cols]
    order = np.argsort(weights, kind="stable")
    return rows[order], cols[order], weights[order]


def kruskal_mst(matrix: DistanceMatrix) -> List[Edge]:
    """Kruskal's MST of the complete graph of ``matrix``.

    Returns ``n - 1`` edges ``(i, j, weight)`` with ``i < j``, in the order
    Kruskal accepted them (non-decreasing weight) -- exactly the edge order
    the compact-set scan consumes.
    """
    n = matrix.n
    uf = UnionFind(n)
    tree: List[Edge] = []
    if n < 2:
        return tree
    rows, cols, weights = _sorted_edges(matrix)
    for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
        if uf.union(i, j):
            tree.append((i, j, w))
            if len(tree) == n - 1:
                break
    return tree


def prim_mst(matrix: DistanceMatrix, start: int = 0) -> List[Edge]:
    """Prim's MST, used as an independent cross-check of Kruskal."""
    n = matrix.n
    if n == 0:
        return []
    values = matrix.values
    in_tree = [False] * n
    in_tree[start] = True
    heap: List[Tuple[float, int, int]] = []
    for j in range(n):
        if j != start:
            heapq.heappush(heap, (float(values[start, j]), start, j))
    tree: List[Edge] = []
    while heap and len(tree) < n - 1:
        w, i, j = heapq.heappop(heap)
        if in_tree[j]:
            continue
        in_tree[j] = True
        a, b = (i, j) if i < j else (j, i)
        tree.append((a, b, w))
        for k in range(n):
            if not in_tree[k]:
                heapq.heappush(heap, (float(values[j, k]), j, k))
    return tree


def mst_weight(tree: List[Edge]) -> float:
    """Total weight of an edge list."""
    return float(sum(w for _, _, w in tree))


def mst_is_unique(matrix: DistanceMatrix, tolerance: float = 1e-9) -> bool:
    """Is the MST of ``matrix`` unique?

    An MST is unique iff no non-tree edge ties (within ``tolerance``) the
    heaviest tree edge on the cycle it would close.  The paper (Figure 7)
    notes that when several MSTs coexist the replacement edge "should
    satisfy all conditions"; this probe lets callers detect that situation
    and, in tests, lets us assert the compact sets found do not depend on
    the tie-break.
    """
    tree = kruskal_mst(matrix)
    n = matrix.n
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in tree:
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))

    def max_edge_on_path(src: int, dst: int) -> float:
        # DFS on the n-1 edge tree; n is small everywhere we call this.
        stack = [(src, -1, 0.0)]
        while stack:
            node, parent, best = stack.pop()
            if node == dst:
                return best
            for nxt, w in adjacency[node]:
                if nxt != parent:
                    stack.append((nxt, node, max(best, w)))
        raise RuntimeError("tree is disconnected")  # pragma: no cover

    tree_set = {(i, j) for i, j, _ in tree}
    values = matrix.values
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in tree_set:
                continue
            w = float(values[i, j])
            if abs(w - max_edge_on_path(i, j)) <= tolerance:
                return False
    return True
