"""Tests for the DistanceMatrix container and its predicates."""

import numpy as np
import pytest

from repro.matrix.distance_matrix import DistanceMatrix, MatrixValidationError


class TestConstruction:
    def test_basic_construction(self):
        m = DistanceMatrix([[0, 1], [1, 0]])
        assert m.n == 2
        assert len(m) == 2

    def test_default_labels(self):
        m = DistanceMatrix([[0, 1], [1, 0]])
        assert m.labels == ["s0", "s1"]

    def test_explicit_labels(self):
        m = DistanceMatrix([[0, 1], [1, 0]], labels=["x", "y"])
        assert m.labels == ["x", "y"]

    def test_values_are_copied(self):
        raw = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = DistanceMatrix(raw)
        raw[0, 1] = 99.0
        assert m[0, 1] == 1.0

    def test_stored_values_are_immutable(self):
        # A matrix is a value: its digest is memoised and result caches
        # key on it, so in-place writes must fail loudly.
        m = DistanceMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="read-only"):
            m.values[0, 1] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            m.values[:] = 0.0
        assert m[0, 1] == 1.0

    def test_derived_matrices_are_immutable_too(self):
        m = DistanceMatrix([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        for derived in (m.submatrix([0, 1]), m.relabeled([2, 1, 0]),
                        m.with_labels(["a", "b", "c"])):
            with pytest.raises(ValueError, match="read-only"):
                derived.values[0, 0] = 1.0

    def test_non_square_rejected(self):
        with pytest.raises(MatrixValidationError, match="square"):
            DistanceMatrix([[0, 1, 2], [1, 0, 2]])

    def test_wrong_label_count_rejected(self):
        with pytest.raises(MatrixValidationError, match="labels"):
            DistanceMatrix([[0, 1], [1, 0]], labels=["only-one"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MatrixValidationError, match="unique"):
            DistanceMatrix([[0, 1], [1, 0]], labels=["x", "x"])

    def test_asymmetric_rejected(self):
        with pytest.raises(MatrixValidationError, match="symmetric"):
            DistanceMatrix([[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(MatrixValidationError, match="diagonal"):
            DistanceMatrix([[1, 1], [1, 0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(MatrixValidationError, match="non-negative"):
            DistanceMatrix([[0, -1], [-1, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixValidationError, match="finite"):
            DistanceMatrix([[0, float("nan")], [float("nan"), 0]])

    def test_validate_false_skips_checks(self):
        m = DistanceMatrix([[0, 1], [2, 0]], validate=False)
        assert m.n == 2

    def test_single_species(self):
        m = DistanceMatrix([[0.0]])
        assert m.n == 1

    def test_zero_species_passes_validation(self):
        m = DistanceMatrix(np.zeros((0, 0)))
        assert m.n == 0
        m.validate()

    def test_non_finite_reported_before_asymmetry(self):
        with pytest.raises(MatrixValidationError, match="non-finite"):
            DistanceMatrix([[0, float("nan"), 1], [2, 0, 3], [4, 5, 0]])

    def test_asymmetry_at_tolerance_passes(self):
        # Binary fractions make the difference exactly the tolerance.
        tol = 2.0 ** -10
        m = DistanceMatrix([[0, 1], [1 + tol, 0]], tolerance=tol)
        assert m[1, 0] - m[0, 1] == tol

    def test_asymmetry_just_above_tolerance_fails(self):
        tol = 1e-9
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        values[1, 0] = np.nextafter(1.0 + tol, 2.0)
        assert abs(values[1, 0] - values[0, 1]) > tol
        with pytest.raises(MatrixValidationError, match="symmetric"):
            DistanceMatrix(values, tolerance=tol)

    def test_later_writes_to_the_caller_array_do_not_leak(self):
        for raw in ([[0.0, 1.0], [1.0, 0.0]], np.array([[0.0, 1.0], [1.0, 0.0]])):
            m = DistanceMatrix(raw)
            raw[0][1] = 99.0
            assert m[0, 1] == 1.0
            assert m.values is not raw


class TestAccess:
    def test_getitem_by_index(self, tiny_matrix):
        assert tiny_matrix[0, 2] == 8.0

    def test_getitem_by_label(self, tiny_matrix):
        assert tiny_matrix["a", "c"] == 8.0

    def test_getitem_mixed(self, tiny_matrix):
        assert tiny_matrix["a", 1] == 2.0

    def test_unknown_label_raises(self, tiny_matrix):
        with pytest.raises(KeyError, match="zzz"):
            tiny_matrix["zzz", "a"]

    def test_index_of(self, tiny_matrix):
        assert tiny_matrix.index_of("b") == 1
        assert tiny_matrix.index_of(2) == 2

    def test_equality(self, tiny_matrix):
        same = DistanceMatrix(
            [[0, 2, 8], [2, 0, 8], [8, 8, 0]], labels=["a", "b", "c"]
        )
        assert tiny_matrix == same

    def test_inequality_on_labels(self, tiny_matrix):
        other = DistanceMatrix(
            [[0, 2, 8], [2, 0, 8], [8, 8, 0]], labels=["x", "y", "z"]
        )
        assert tiny_matrix != other

    def test_pairs_iteration(self, tiny_matrix):
        pairs = list(tiny_matrix.pairs())
        assert pairs == [(0, 1, 2.0), (0, 2, 8.0), (1, 2, 8.0)]


class TestPredicates:
    def test_metric_true(self, tiny_matrix):
        assert tiny_matrix.is_metric()

    def test_metric_false(self):
        m = DistanceMatrix(
            [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
        )
        assert not m.is_metric()

    def test_require_metric_passes(self, tiny_matrix):
        assert tiny_matrix.require_metric() is tiny_matrix

    def test_require_metric_raises(self):
        m = DistanceMatrix([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
        with pytest.raises(MatrixValidationError, match="triangle"):
            m.require_metric()

    def test_ultrametric_true(self, tiny_matrix):
        # Distances 2, 8, 8: two largest equal -> ultrametric.
        assert tiny_matrix.is_ultrametric()

    def test_ultrametric_false(self):
        m = DistanceMatrix([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        assert not m.is_ultrametric()

    def test_ultrametric_implies_metric(self, tiny_matrix):
        assert tiny_matrix.is_ultrametric() and tiny_matrix.is_metric()


class TestDerivedMatrices:
    def test_submatrix_by_index(self, square5):
        sub = square5.submatrix([2, 3, 4])
        assert sub.labels == ["c", "d", "e"]
        assert sub["c", "d"] == 3.0

    def test_submatrix_by_label(self, square5):
        sub = square5.submatrix(["a", "e"])
        assert sub[0, 1] == 12.0

    def test_submatrix_preserves_order(self, square5):
        sub = square5.submatrix(["e", "a"])
        assert sub.labels == ["e", "a"]

    def test_relabeled(self, tiny_matrix):
        re = tiny_matrix.relabeled([2, 0, 1])
        assert re.labels == ["c", "a", "b"]
        assert re["c", "a"] == 8.0

    def test_relabeled_rejects_non_permutation(self, tiny_matrix):
        with pytest.raises(MatrixValidationError, match="permutation"):
            tiny_matrix.relabeled([0, 0, 1])

    def test_with_labels(self, tiny_matrix):
        renamed = tiny_matrix.with_labels(["x", "y", "z"])
        assert renamed.labels == ["x", "y", "z"]
        assert renamed["x", "z"] == 8.0


class TestQueries:
    def test_max_pair(self, square5):
        i, j, d = square5.max_pair()
        assert d == 12.0
        assert {square5.labels[i], square5.labels[j]} <= {"a", "b", "e"}

    def test_min_pair(self, square5):
        i, j, d = square5.min_pair()
        assert (i, j, d) == (0, 1, 2.0)

    def test_max_distance(self, square5):
        assert square5.max_distance() == 12.0

    def test_min_link(self, square5):
        assert square5.min_link("a") == 2.0
        assert square5.min_link("e") == 4.0

    def test_min_link_single_species(self):
        m = DistanceMatrix([[0.0]])
        assert m.min_link(0) == 0.0

    def test_max_pair_requires_two(self):
        m = DistanceMatrix([[0.0]])
        with pytest.raises(MatrixValidationError):
            m.max_pair()
