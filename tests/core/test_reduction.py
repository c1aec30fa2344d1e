"""Tests for group-matrix reduction."""

import numpy as np
import pytest

from repro.core.reduction import REDUCTIONS, reduce_matrix
from repro.matrix.generators import clustered_matrix, random_metric_matrix


class TestReduceMatrix:
    def test_maximum(self, square5):
        reduced = reduce_matrix(
            square5, [[0, 1], [2, 3, 4]], ["AB", "CDE"], mode="maximum"
        )
        assert reduced["AB", "CDE"] == 12.0

    def test_minimum(self, square5):
        reduced = reduce_matrix(
            square5, [[0, 1], [2, 3, 4]], ["AB", "CDE"], mode="minimum"
        )
        assert reduced["AB", "CDE"] == 10.0

    def test_average(self, square5):
        reduced = reduce_matrix(
            square5, [[0, 1], [2, 3, 4]], ["AB", "CDE"], mode="average"
        )
        expected = (10 + 11 + 12 + 11 + 10 + 12) / 6
        assert reduced["AB", "CDE"] == pytest.approx(expected)

    def test_singleton_groups_reproduce_matrix(self, square5):
        groups = [[i] for i in range(5)]
        reduced = reduce_matrix(square5, groups, square5.labels)
        assert (reduced.values == square5.values).all()

    def test_three_groups(self, square5):
        reduced = reduce_matrix(
            square5, [[0, 1], [2, 3], [4]], ["AB", "CD", "E"], mode="maximum"
        )
        assert reduced.n == 3
        assert reduced["AB", "E"] == 12.0
        assert reduced["CD", "E"] == 4.0

    def test_maximum_reduction_of_metric_is_metric(self):
        """max linkage preserves the triangle inequality."""
        for seed in range(4):
            m = random_metric_matrix(9, seed=seed)
            reduced = reduce_matrix(
                m, [[0, 1, 2], [3, 4], [5, 6], [7, 8]], list("wxyz")
            )
            assert reduced.is_metric()

    def test_minimum_reduction_can_break_metricity(self):
        """min linkage offers no such guarantee; find a witness."""
        found = False
        for seed in range(30):
            m = random_metric_matrix(9, seed=seed)
            reduced = reduce_matrix(
                m,
                [[0, 1, 2], [3, 4], [5, 6], [7, 8]],
                list("wxyz"),
                mode="minimum",
            )
            if not reduced.is_metric():
                found = True
                break
        assert found

    def test_compact_groups_ordering(self):
        """For compact groups: minimum reduction >= every within-group
        distance of either group (compactness pushes cross distances up)."""
        m = clustered_matrix([3, 3], seed=1)
        low = reduce_matrix(m, [[0, 1, 2], [3, 4, 5]], ["A", "B"], mode="minimum")
        within_max = max(
            m.values[i, j]
            for block in ([0, 1, 2], [3, 4, 5])
            for i in block
            for j in block
            if i < j
        )
        assert low["A", "B"] > within_max


class TestValidation:
    def test_unknown_mode(self, square5):
        with pytest.raises(ValueError, match="reduction"):
            reduce_matrix(square5, [[0], [1]], ["a", "b"], mode="median")

    def test_label_count_mismatch(self, square5):
        with pytest.raises(ValueError, match="label"):
            reduce_matrix(square5, [[0], [1]], ["only"])

    def test_empty_group(self, square5):
        with pytest.raises(ValueError, match="non-empty"):
            reduce_matrix(square5, [[0], []], ["a", "b"])

    def test_overlapping_groups(self, square5):
        with pytest.raises(ValueError, match="disjoint"):
            reduce_matrix(square5, [[0, 1], [1, 2]], ["a", "b"])

    def test_registry_contents(self):
        assert set(REDUCTIONS) == {"maximum", "minimum", "average"}


def _reference_reduce(matrix, groups, mode):
    """One ``np.ix_`` gather per block pair: the original reduction."""
    summarise = REDUCTIONS[mode]
    m = len(groups)
    values = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            block = matrix.values[np.ix_(list(groups[i]), list(groups[j]))]
            values[i, j] = values[j, i] = summarise(block)
    return values


class TestBlockSlicedEquivalence:
    """The block-sliced reduction equals the per-pair gather bit for bit
    (``average`` is the delicate case: a sum's rounding depends on its
    order)."""

    @pytest.mark.parametrize("mode", sorted(REDUCTIONS))
    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_equal_to_per_pair_gather(self, mode, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        matrix = random_metric_matrix(n, seed=seed, integer=False)
        # Scattered, unequal groups: non-contiguous rows and columns.
        order = rng.permutation(n).tolist()
        cuts = sorted(rng.choice(np.arange(1, n), size=min(5, n - 1),
                                 replace=False).tolist())
        groups = [
            order[a:b] for a, b in zip([0] + cuts, cuts + [n])
        ]
        labels = [f"g{k}" for k in range(len(groups))]
        reduced = reduce_matrix(matrix, groups, labels, mode=mode)
        expected = _reference_reduce(matrix, groups, mode)
        assert np.array_equal(reduced.values, expected)
