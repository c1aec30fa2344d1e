"""Tests for MST construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.mst import kruskal_mst, mst_is_unique, mst_weight, prim_mst
from repro.graph.union_find import UnionFind
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix


def _is_spanning_tree(edges, n):
    if len(edges) != n - 1:
        return False
    uf = UnionFind(n)
    for i, j, _ in edges:
        if not uf.union(i, j):
            return False
    return uf.count == 1


class TestKruskal:
    def test_spanning_tree(self, square5):
        edges = kruskal_mst(square5)
        assert _is_spanning_tree(edges, square5.n)

    def test_edges_in_nondecreasing_order(self, square5):
        weights = [w for _, _, w in kruskal_mst(square5)]
        assert weights == sorted(weights)

    def test_known_mst(self, square5):
        edges = {(i, j) for i, j, _ in kruskal_mst(square5)}
        # a-b (2), c-d (3), then the two 4-weight links around e, then
        # one 10-weight bridge.
        assert (0, 1) in edges
        assert (2, 3) in edges

    def test_matches_prim_weight(self):
        for seed in range(6):
            m = random_metric_matrix(9, seed=seed, integer=False)
            assert mst_weight(kruskal_mst(m)) == pytest.approx(
                mst_weight(prim_mst(m))
            )

    def test_two_vertices(self):
        m = DistanceMatrix([[0, 7], [7, 0]])
        assert kruskal_mst(m) == [(0, 1, 7.0)]

    def test_single_vertex(self):
        m = DistanceMatrix([[0.0]])
        assert kruskal_mst(m) == []


class TestPrim:
    def test_spanning_tree(self, square5):
        assert _is_spanning_tree(prim_mst(square5), square5.n)

    def test_start_vertex_irrelevant_for_weight(self, square5):
        weights = {
            round(mst_weight(prim_mst(square5, start=s)), 9)
            for s in range(square5.n)
        }
        assert len(weights) == 1

    def test_empty(self):
        m = DistanceMatrix(np.zeros((0, 0)), labels=[])
        assert prim_mst(m) == []


class TestUniqueness:
    def test_distinct_weights_unique(self, paper_example):
        assert mst_is_unique(paper_example)

    def test_ties_detected(self):
        # Figure 7 situation: a 3-cycle of equal weights has two MSTs.
        m = DistanceMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert not mst_is_unique(m)

    def test_square_with_tie(self):
        m = DistanceMatrix(
            [
                [0, 1, 2, 2],
                [1, 0, 2, 2],
                [2, 2, 0, 1],
                [2, 2, 1, 0],
            ]
        )
        assert not mst_is_unique(m)


def _tuple_sort_kruskal(matrix):
    """Kruskal over the ``(w, i, j)`` tuple sort of every pair: the
    reference order the vectorised edge sort must reproduce."""
    edges = sorted((w, i, j) for i, j, w in matrix.pairs())
    uf = UnionFind(matrix.n)
    tree = []
    for w, i, j in edges:
        if uf.union(i, j):
            tree.append((i, j, w))
    return tree


@st.composite
def _tied_integer_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    top = draw(st.integers(min_value=1, max_value=4))  # few values: ties
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = draw(st.integers(1, top))
    return DistanceMatrix(values)


class TestKruskalTieOrder:
    @settings(max_examples=150, deadline=None)
    @given(_tied_integer_matrices())
    def test_edge_order_matches_tuple_sort(self, matrix):
        edges = kruskal_mst(matrix)
        assert edges == _tuple_sort_kruskal(matrix)
        assert all(
            type(i) is int and type(j) is int and type(w) is float
            for i, j, w in edges
        )
