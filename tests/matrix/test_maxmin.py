"""Tests for max-min permutations."""

import numpy as np
import pytest

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix
from repro.matrix.maxmin import (
    apply_maxmin,
    is_maxmin_permutation,
    maxmin_permutation,
)
from tests.differential_inputs import DIFFERENTIAL_MATRICES


def numpy_maxmin_permutation(matrix):
    """The NumPy max-min loop the row-list version replaced (reference)."""
    n = matrix.n
    if n == 0:
        return []
    if n == 1:
        return [0]
    v = matrix.values
    first, second, _ = matrix.max_pair()
    order = [first, second]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = chosen[second] = True
    mins = np.minimum(v[:, first], v[:, second])
    while len(order) < n:
        masked = np.where(chosen, -np.inf, mins)
        nxt = int(np.argmax(masked))
        order.append(nxt)
        chosen[nxt] = True
        mins = np.minimum(mins, v[:, nxt])
    return order


class TestMaxminPermutation:
    def test_starts_with_farthest_pair(self, square5):
        order = maxmin_permutation(square5)
        d = square5.values
        assert d[order[0], order[1]] == square5.max_distance()

    def test_is_a_permutation(self, square5):
        order = maxmin_permutation(square5)
        assert sorted(order) == list(range(square5.n))

    def test_greedy_choice_maximises_min_distance(self, square5):
        order = maxmin_permutation(square5)
        v = square5.values
        for k in range(2, square5.n):
            prefix = order[:k]
            chosen_min = min(v[order[k], i] for i in prefix)
            for other in order[k + 1:]:
                other_min = min(v[other, i] for i in prefix)
                assert chosen_min >= other_min - 1e-12

    def test_empty_matrix(self):
        m = DistanceMatrix(np.zeros((0, 0)), labels=[])
        assert maxmin_permutation(m) == []

    def test_single_species(self):
        m = DistanceMatrix([[0.0]])
        assert maxmin_permutation(m) == [0]

    def test_two_species(self):
        m = DistanceMatrix([[0, 5], [5, 0]])
        assert sorted(maxmin_permutation(m)) == [0, 1]

    def test_deterministic(self, square5):
        assert maxmin_permutation(square5) == maxmin_permutation(square5)


class TestApplyMaxmin:
    def test_result_is_maxmin_ordered(self, square5):
        ordered, _ = apply_maxmin(square5)
        assert is_maxmin_permutation(ordered)

    def test_permutation_maps_back(self, square5):
        ordered, perm = apply_maxmin(square5)
        for p in range(square5.n):
            assert ordered.labels[p] == square5.labels[perm[p]]

    def test_preserves_distances(self, square5):
        ordered, _ = apply_maxmin(square5)
        for a in square5.labels:
            for b in square5.labels:
                assert ordered[a, b] == square5[a, b]


class TestIsMaxmin:
    def test_random_matrices_after_apply(self):
        for seed in range(5):
            m = random_metric_matrix(9, seed=seed)
            ordered, _ = apply_maxmin(m)
            assert is_maxmin_permutation(ordered)

    def test_detects_bad_start(self):
        # Identity order does not start with the farthest pair.
        m = DistanceMatrix(
            [[0, 1, 5], [1, 0, 5], [5, 5, 0]]
        )
        assert not is_maxmin_permutation(m)

    def test_small_matrices_trivially_maxmin(self):
        assert is_maxmin_permutation(DistanceMatrix([[0.0]]))
        assert is_maxmin_permutation(DistanceMatrix([[0, 3], [3, 0]]))


class TestMatchesNumpyReference:
    @pytest.mark.parametrize(
        "matrix",
        [m for _, m in DIFFERENTIAL_MATRICES],
        ids=[name for name, _ in DIFFERENTIAL_MATRICES],
    )
    def test_same_order(self, matrix):
        assert maxmin_permutation(matrix) == numpy_maxmin_permutation(matrix)

    def test_running_minima_read_columns(self):
        # Symmetric only within tolerance: species 2 and 3 tie on rows
        # but not on columns.  The column reading picks species 3.
        eps = 1e-10
        m = DistanceMatrix([
            [0, 9, 4 + eps, 4],
            [9, 0, 5, 5],
            [4, 5, 0, 1],
            [4 + eps, 5, 1, 0],
        ])
        assert numpy_maxmin_permutation(m) == [0, 1, 3, 2]
        assert maxmin_permutation(m) == [0, 1, 3, 2]

    def test_first_pair_is_first_maximum_in_row_major_order(self):
        m = DistanceMatrix([
            [0, 1, 7, 2],
            [1, 0, 3, 7],
            [7, 3, 0, 7],
            [2, 7, 7, 0],
        ])
        assert maxmin_permutation(m)[:2] == [0, 2]
