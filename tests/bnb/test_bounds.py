"""Tests for the lower-bound tails."""

import numpy as np
import pytest

from repro.bnb.bounds import (
    LOWER_BOUNDS,
    half_matrix,
    minfront_tails,
    minlink_tails,
    search_context,
    trivial_tails,
)
from repro.bnb.topology import PartialTopology
from repro.bnb.sequential import exact_mut
from repro.matrix.generators import random_metric_matrix
from repro.matrix.maxmin import apply_maxmin
from tests.differential_inputs import DIFFERENTIAL_MATRICES


# ---------------------------------------------------------------------------
# The NumPy implementations the row-list bounds replaced (references)
# ---------------------------------------------------------------------------
def _numpy_suffix_sums(per_species, n):
    tails = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = tails[k + 1] + per_species[k]
    return tails


def numpy_half_matrix(matrix):
    return (matrix.values * 0.5).tolist()


def numpy_trivial_tails(matrix):
    return [0.0] * (matrix.n + 1)


def numpy_minlink_tails(matrix):
    n = matrix.n
    if n < 2:
        return [0.0] * (n + 1)
    masked = matrix.values.astype(float, copy=True)
    np.fill_diagonal(masked, np.inf)
    per = (masked.min(axis=1) / 2.0).tolist()
    return _numpy_suffix_sums(per, n)


def numpy_minfront_tails(matrix):
    n = matrix.n
    per = [0.0] * n
    if n > 1:
        acc = np.minimum.accumulate(matrix.values, axis=0)
        per[1:] = (np.diagonal(acc, offset=1) / 2.0).tolist()
    return _numpy_suffix_sums(per, n)


NUMPY_BOUNDS = {
    "trivial": numpy_trivial_tails,
    "minlink": numpy_minlink_tails,
    "minfront": numpy_minfront_tails,
}


def _bits(values):
    """Float bit patterns, nested like ``values``."""
    if isinstance(values, list):
        return [_bits(v) for v in values]
    return float(values).hex()


class TestHalfMatrix:
    def test_values(self, tiny_matrix):
        half = half_matrix(tiny_matrix.values.tolist())
        assert half[0][1] == 1.0
        assert half[0][2] == 4.0

    def test_plain_lists(self, tiny_matrix):
        half = half_matrix(tiny_matrix.values.tolist())
        assert isinstance(half, list)
        assert isinstance(half[0][0], float)


class TestTails:
    def test_trivial_all_zero(self, square5):
        assert trivial_tails(square5.values.tolist()) == [0.0] * 6

    def test_minfront_suffix_structure(self, square5):
        tails = minfront_tails(square5.values.tolist())
        assert tails[-1] == 0.0
        for k in range(square5.n):
            assert tails[k] >= tails[k + 1] - 1e-12

    def test_minfront_values(self, tiny_matrix):
        # minfront per species: j=0 -> 0; j=1 -> M[0,1]/2 = 1; j=2 ->
        # min(M[0,2], M[1,2])/2 = 4.
        tails = minfront_tails(tiny_matrix.values.tolist())
        assert tails[2] == pytest.approx(4.0)
        assert tails[1] == pytest.approx(5.0)
        assert tails[0] == pytest.approx(5.0)

    def test_minlink_below_minfront(self):
        """minlink minimises over a superset, so its tail is never larger."""
        for seed in range(5):
            m, _ = apply_maxmin(random_metric_matrix(9, seed=seed))
            front = minfront_tails(m.values.tolist())
            link = minlink_tails(m.values.tolist())
            for k in range(2, m.n + 1):
                assert link[k] <= front[k] + 1e-9

    def test_registry(self):
        assert set(LOWER_BOUNDS) == {"trivial", "minlink", "minfront"}


@pytest.mark.parametrize(
    "matrix",
    [m for _, m in DIFFERENTIAL_MATRICES],
    ids=[name for name, _ in DIFFERENTIAL_MATRICES],
)
class TestMatchesNumpyReference:
    def test_half_matrix(self, matrix):
        expected = _bits(numpy_half_matrix(matrix))
        assert _bits(half_matrix(matrix.values.tolist())) == expected

    @pytest.mark.parametrize("bound", sorted(NUMPY_BOUNDS))
    def test_tails(self, matrix, bound):
        expected = _bits(NUMPY_BOUNDS[bound](matrix))
        assert _bits(LOWER_BOUNDS[bound](matrix.values.tolist())) == expected
        half, tails = search_context(matrix.values.tolist(), bound)
        assert _bits(tails) == expected
        assert _bits(half) == _bits(numpy_half_matrix(matrix))


class TestBoundValidity:
    @pytest.mark.parametrize("bound", ["trivial", "minlink", "minfront"])
    @pytest.mark.parametrize("seed", range(4))
    def test_lb_never_exceeds_optimal(self, bound, seed):
        """For every BBT node on the path to an optimum, LB <= OPT."""
        m, _ = apply_maxmin(random_metric_matrix(6, seed=seed))
        tails = LOWER_BOUNDS[bound](m.values.tolist())
        half = half_matrix(m.values.tolist())
        # Every BBT node's LB must stay below the best completion
        # reachable from it; we verify that invariant on a node sample.
        stack = [PartialTopology.initial(half)]
        stack[0].lower_bound = stack[0].cost + tails[2]
        checked = 0
        while stack and checked < 150:
            node = stack.pop()
            best_below = _best_completion(node, m.n)
            assert node.lower_bound <= best_below + 1e-9
            checked += 1
            if not node.is_complete and node.num_leaves < 5:
                tail = tails[node.next_species + 1]
                for pos in range(len(node.parent)):
                    stack.append(node.child(pos, tail))

    def test_minfront_tail_bounds_total_cost(self):
        """tail(2) + initial cost is a valid global lower bound."""
        for seed in range(5):
            m, _ = apply_maxmin(random_metric_matrix(8, seed=seed))
            optimal = exact_mut(m, use_maxmin=False).cost
            tails = minfront_tails(m.values.tolist())
            root = PartialTopology.initial(half_matrix(m.values.tolist()))
            assert root.cost + tails[2] <= optimal + 1e-9


def _best_completion(node, n):
    if node.is_complete:
        return node.cost
    best = float("inf")
    stack = [node]
    while stack:
        t = stack.pop()
        if t.is_complete:
            best = min(best, t.cost)
            continue
        for pos in range(len(t.parent)):
            stack.append(t.child(pos))
    return best
