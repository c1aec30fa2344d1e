"""``is_metric`` and ``is_ultrametric`` against literal triple loops.

Both predicates broadcast a block of middle indices at a time.  Each
triple must still see the arithmetic of the one-middle-at-a-time loop,
``(M[i, j] + M[j, k]) - M[i, k] < -tol`` and
``M[i, j] > max(M[i, k], M[k, j]) + tol``, so a decision at the
tolerance edge cannot depend on the block size.  The matrices below put
one triangle at and just past ``tol`` through each middle index, with
exact and with rounding arithmetic, and the block bound is shrunk so
that blocks of 1, 2, ... indices and a block of all of them are each
exercised.
"""

import itertools

import numpy as np
import pytest

from repro.matrix import distance_matrix
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix

TOL = distance_matrix.DEFAULT_TOLERANCE


def literal_is_metric(matrix):
    v, n = matrix.values, matrix.n
    return not any(
        (v[i, j] + v[j, k]) - v[i, k] < -TOL
        for i, j, k in itertools.product(range(n), repeat=3)
    )


def literal_is_ultrametric(matrix):
    v, n = matrix.values, matrix.n
    return not any(
        v[i, j] > max(v[i, k], v[k, j]) + TOL
        for i, j, k in itertools.permutations(range(n), 3)
    )


def _with_entry(values, i, j, value):
    values = values.copy()
    values[i, j] = values[j, i] = value
    return DistanceMatrix(values, validate=False)


def edge_matrices(n=6):
    """For each middle index ``j``, one triangle ``(i, j, k)`` exactly at
    the tolerance edge and every other triple clear of it.

    ``M[i, j] = M[j, k] = 0`` and ``M[i, k]`` is ``0``, ``tol`` or
    ``2 tol`` (all other distances 2), so the arithmetic is exact: the
    metric slack through ``j`` is ``0``, ``-tol`` or ``-2 tol`` (and
    ``+tol`` the other way round), and ``M[i, k]`` exceeds its
    ultrametric bound ``max(M[i, j], M[j, k])`` by the same amounts.
    """
    for j in range(n):
        i, k = (j + 1) % n, (j + 2) % n
        values = np.full((n, n), 2.0)
        np.fill_diagonal(values, 0.0)
        values[i, j] = values[j, i] = values[j, k] = values[k, j] = 0.0
        for offset in (0.0, TOL, 2 * TOL):
            yield _with_entry(values, i, k, offset)


def rounded_edge_matrices(n=6, seeds=range(40)):
    """The same triangles on non-integer distances, where ``(a + b) - c``
    rounds: only the one-middle arithmetic decides them."""
    for seed in seeds:
        values = random_metric_matrix(n, seed=seed).values / 7.0
        j = seed % n
        i, k = (j + 1) % n, (j + 2) % n
        for offset in (-TOL, 0.0, TOL):
            yield _with_entry(values, i, k, values[i, j] + values[j, k] + offset)


CASES = list(edge_matrices()) + list(rounded_edge_matrices()) + [
    DistanceMatrix(np.zeros((1, 1))),
    DistanceMatrix(np.zeros((2, 2))),
    random_metric_matrix(7, seed=3),
]


@pytest.mark.parametrize("per_block", [1, 2, 5, 6, 7, None])
def test_blocked_checks_match_the_triple_loops(monkeypatch, per_block):
    """``per_block`` middle indices per broadcast; ``None`` keeps the
    default bound, which takes every index of these sizes at once."""
    for matrix in CASES:
        if per_block is not None:
            monkeypatch.setattr(
                distance_matrix, "TRIPLE_BLOCK_ELEMENTS",
                per_block * matrix.n * matrix.n,
            )
        assert matrix.is_metric() == literal_is_metric(matrix)
        assert matrix.is_ultrametric() == literal_is_ultrametric(matrix)


def test_edge_cases_decide_both_ways():
    """The edge matrices are not all accepted or all rejected."""
    metric = {literal_is_metric(m) for m in CASES}
    ultrametric = {literal_is_ultrametric(m) for m in CASES}
    assert metric == {True, False} and ultrametric == {True, False}


@pytest.mark.parametrize("n,blocks", [(25, 1), (26, 2)])
def test_default_bound_on_both_sides_of_one_block(monkeypatch, n, blocks):
    """About ``cbrt(bound)`` species fill one block; one more splits it.
    A violation through the last middle index is found either way, and
    the decisions match those of one whole-matrix broadcast."""
    matrix = random_metric_matrix(n, seed=1)
    assert len(list(matrix._middle_blocks())) == blocks
    last, i, k = n - 1, 0, 1
    values = matrix.values
    cases = [
        matrix,
        _with_entry(values, i, k, values[i, last] + values[last, k] + 2 * TOL),
    ]
    found = [(m.is_metric(), m.is_ultrametric()) for m in cases]
    monkeypatch.setattr(distance_matrix, "TRIPLE_BLOCK_ELEMENTS", n ** 3)
    assert found == [(m.is_metric(), m.is_ultrametric()) for m in cases]
    assert found[0][0] and not found[1][0]
