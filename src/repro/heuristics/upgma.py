"""UPGMA and UPGMM agglomerative tree construction.

Both are hierarchical clusterings of the distance matrix: repeatedly merge
the two closest clusters at height ``distance / 2`` until one cluster
remains.  They differ in the *linkage* -- how the distance between
clusters is defined:

* **UPGMA** (arithmetic mean, size-weighted): the biologists' staple; its
  tree may *underestimate* some pairwise distances, so it is not feasible
  for the MUT constraint.
* **UPGMM** (maximum linkage): the papers' modification.  Because the
  merge height is half the *largest* distance between the clusters, every
  induced distance ``d_T(i, j) = 2 h(LCA)`` is at least ``M[i, j]`` --
  the tree is a feasible (generally non-optimal) ultrametric tree, which
  is exactly what Algorithm BBU Step 3 needs for its initial upper bound.

Both linkages are *reducible*, so merge heights never decrease and the
output is a valid ultrametric tree.

Three implementations are provided:

* :func:`agglomerative_tree` -- the production path.  It keeps one
  ``(n, n)`` float64 working matrix, retires merged clusters in place by
  masking their row/column with ``+inf``, finds the closest pair with a
  vectorised ``argmin`` over the whole matrix, and applies the
  Lance-Williams linkage update to a full row at a time.  Cost is
  O(n^2) NumPy work per merge (O(n^3) total, but entirely inside C
  loops) with **zero** per-merge allocations of a fresh matrix.
* :func:`agglomerative_tree_reference` -- the original pure-Python
  implementation (O(n^3) scalar loops plus a grown ``(n+k, n+k)`` matrix
  copy per merge).  Kept verbatim for differential testing; the property
  suite asserts both produce trees of identical cost.
* :func:`upgmm_rows` -- UPGMM on plain row lists, the seed of small
  branch-and-bound searches.  It follows :func:`agglomerative_tree`'s rules
  step for step, so it builds the same tree bit for bit; on the 3-5
  species subproblems a search mostly sees, NumPy's per-call dispatch
  costs more than these loops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = [
    "upgma",
    "upgmm",
    "upgmm_rows",
    "single_linkage",
    "agglomerative_tree",
    "agglomerative_tree_reference",
]

Linkage = Callable[[float, float, int, int], float]
#: Row-at-a-time linkage: maps two full distance rows (and cluster sizes)
#: onto the merged cluster's row.  ``inf`` entries (retired clusters and
#: the diagonal) must map to ``inf``, which all three built-ins do.
VectorLinkage = Callable[[np.ndarray, np.ndarray, int, int], np.ndarray]


def _average_linkage(d_ak: float, d_bk: float, size_a: int, size_b: int) -> float:
    return (d_ak * size_a + d_bk * size_b) / (size_a + size_b)


def _maximum_linkage(d_ak: float, d_bk: float, size_a: int, size_b: int) -> float:
    return max(d_ak, d_bk)


def _minimum_linkage(d_ak: float, d_bk: float, size_a: int, size_b: int) -> float:
    return min(d_ak, d_bk)


def _average_linkage_rows(
    row_a: np.ndarray, row_b: np.ndarray, size_a: int, size_b: int
) -> np.ndarray:
    return (row_a * size_a + row_b * size_b) / (size_a + size_b)


#: Vectorised counterparts of the scalar built-ins; unknown (user-supplied)
#: linkages fall back to an element-wise loop over live clusters, which is
#: still O(n) per merge instead of the reference's O(n^2).
_VECTOR_LINKAGES: Dict[Linkage, VectorLinkage] = {
    _average_linkage: _average_linkage_rows,
    _maximum_linkage: lambda a, b, sa, sb: np.maximum(a, b),
    _minimum_linkage: lambda a, b, sa, sb: np.minimum(a, b),
}


def agglomerative_tree(matrix: DistanceMatrix, linkage: Linkage) -> UltrametricTree:
    """Generic agglomerative construction with a Lance-Williams linkage.

    ``linkage(d_ak, d_bk, |A|, |B|)`` maps the distances of two merged
    clusters ``A``, ``B`` to a third cluster ``K`` onto the distance of
    ``A union B`` to ``K``.

    This is the vectorised production implementation: a single in-place
    working matrix with ``inf``-masked retired slots and an ``argmin``
    nearest-pair scan.  For the three built-in linkages the row update is
    a NumPy expression; custom scalar linkages are applied element-wise
    over the live clusters only.  See
    :func:`agglomerative_tree_reference` for the original loop the
    differential tests compare against.
    """
    n = matrix.n
    if n == 0:
        raise ValueError("cannot build a tree over zero species")
    if n == 1:
        return UltrametricTree.leaf(matrix.labels[0])

    vector_linkage = _VECTOR_LINKAGES.get(linkage)

    # One (n, n) working matrix for the whole run.  Slot i holds the
    # distances of live cluster i; a merged-away cluster's row/column is
    # masked to +inf so the global argmin never selects it.
    dist = matrix.values.astype(float, copy=True)
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    slot_nodes: List[TreeNode] = [
        TreeNode(0.0, label=label) for label in matrix.labels
    ]

    for _ in range(n - 1):
        # Closest live pair: argmin over the masked matrix (ties resolve
        # to the smallest row-major index, deterministically).
        flat = int(np.argmin(dist))
        a, b = divmod(flat, n)
        if a > b:
            a, b = b, a
        d = float(dist[a, b])
        height = d / 2.0
        node_a, node_b = slot_nodes[a], slot_nodes[b]
        merged = TreeNode(
            max(height, node_a.height, node_b.height), [node_a, node_b]
        )

        # Lance-Williams update: cluster A union B reuses slot a.
        if vector_linkage is not None:
            new_row = vector_linkage(
                dist[a], dist[b], int(sizes[a]), int(sizes[b])
            )
        else:
            new_row = np.full(n, np.inf)
            row_a, row_b = dist[a], dist[b]
            sa, sb = int(sizes[a]), int(sizes[b])
            for k in np.flatnonzero(alive):
                if k == a or k == b:
                    continue
                new_row[k] = linkage(float(row_a[k]), float(row_b[k]), sa, sb)
        new_row[a] = np.inf
        new_row[b] = np.inf
        dist[a, :] = new_row
        dist[:, a] = new_row
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        sizes[a] += sizes[b]
        alive[b] = False
        slot_nodes[a] = merged

    root_slot = int(np.flatnonzero(alive)[0])
    return UltrametricTree(slot_nodes[root_slot])


def agglomerative_tree_reference(
    matrix: DistanceMatrix, linkage: Linkage
) -> UltrametricTree:
    """The original pure-Python agglomerative loop (differential oracle).

    O(n^3) scalar pair scans plus a freshly grown ``(n+k, n+k)`` matrix
    per merge.  Retained unchanged so property tests can assert the
    vectorised :func:`agglomerative_tree` produces trees of identical
    cost; do not use it on large inputs.
    """
    n = matrix.n
    if n == 0:
        raise ValueError("cannot build a tree over zero species")
    if n == 1:
        return UltrametricTree.leaf(matrix.labels[0])

    # Working distance matrix between live clusters.
    dist = matrix.values.astype(float).copy()
    active = list(range(n))
    nodes: List[TreeNode] = [
        TreeNode(0.0, label=label) for label in matrix.labels
    ]
    sizes = [1] * n

    while len(active) > 1:
        # Closest pair among active clusters (deterministic tie-break).
        best = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                a, b = active[ai], active[bi]
                d = dist[a, b]
                if best is None or d < best[0] - 1e-15:
                    best = (d, a, b)
        assert best is not None
        d, a, b = best
        height = d / 2.0
        merged = TreeNode(max(height, nodes[a].height, nodes[b].height),
                          [nodes[a], nodes[b]])
        nodes.append(merged)
        sizes.append(sizes[a] + sizes[b])
        # Grow the working matrix by one row/column for the new cluster.
        new_index = dist.shape[0]
        grown = np.zeros((new_index + 1, new_index + 1))
        grown[:new_index, :new_index] = dist
        for k in active:
            if k in (a, b):
                continue
            d_new = linkage(float(dist[a, k]), float(dist[b, k]), sizes[a], sizes[b])
            grown[new_index, k] = grown[k, new_index] = d_new
        dist = grown
        active = [k for k in active if k not in (a, b)] + [new_index]

    return UltrametricTree(nodes[active[0]])


def upgma(matrix: DistanceMatrix) -> UltrametricTree:
    """Unweighted Pair Group Method with Arithmetic mean."""
    return agglomerative_tree(matrix, _average_linkage)


def upgmm(matrix: DistanceMatrix) -> UltrametricTree:
    """Unweighted Pair Group Method with *Maximum* (the papers' UPGMM).

    The returned tree always satisfies ``d_T(i, j) >= M[i, j]`` for a
    metric input, making its cost a valid upper bound on the minimum
    ultrametric tree cost.  Runs on the vectorised
    :func:`agglomerative_tree` path, which the heuristic methods need at
    hundreds of species; branch-and-bound searches over at most 16
    species seed with :func:`upgmm_rows`.
    """
    return agglomerative_tree(matrix, _maximum_linkage)


def upgmm_rows(
    rows: Sequence[Sequence[float]], labels: Sequence[str]
) -> UltrametricTree:
    """UPGMM on a matrix's row lists: the seed of BBU Step 3.

    The same tree as ``upgmm(DistanceMatrix(rows, labels))``, bit for
    bit: the first minimum in row-major order over the whole working
    matrix (``inf`` diagonal) picks the pair ``a < b``; the merged row is
    the elementwise maximum of rows ``a`` and ``b``, written into slot
    ``a`` as row and column; slot ``b`` becomes ``inf``.  Slot 0 is never
    retired, so it holds the root.  O(n^3) Python: it beats :func:`upgmm`
    only up to about 16 species, where NumPy's per-call dispatch
    outweighs the scans.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("cannot build a tree over zero species")
    inf = float("inf")
    dist = [list(row) for row in rows]
    for i in range(n):
        dist[i][i] = inf
    slot_nodes = [TreeNode(0.0, label=label) for label in labels]
    # Retired rows are all ``inf`` and can never hold the first minimum,
    # so the scans and updates skip them.
    live = list(range(n))
    for _ in range(n - 1):
        closest = inf
        a = b = 0
        for i in live:
            row = dist[i]
            low = min(row)
            if low < closest:
                closest, a, b = low, i, row.index(low)
        if a > b:
            a, b = b, a
        node_a, node_b = slot_nodes[a], slot_nodes[b]
        slot_nodes[a] = TreeNode(
            max(dist[a][b] / 2.0, node_a.height, node_b.height),
            [node_a, node_b],
        )
        merged = list(map(max, dist[a], dist[b]))
        merged[a] = merged[b] = inf
        dist[a] = merged
        live.remove(b)
        for k in live:
            row = dist[k]
            row[a] = merged[k]
            row[b] = inf
    return UltrametricTree(slot_nodes[0])


def single_linkage(matrix: DistanceMatrix) -> UltrametricTree:
    """Minimum-linkage variant (the *subdominant* ultrametric).

    Included for the reduction ablation: its induced distances are the
    largest ultrametric *below* ``M``, mirroring how the *minimum* reduced
    matrices behave in the compact-set pipeline.
    """
    return agglomerative_tree(matrix, _minimum_linkage)
