"""Property-based tests (hypothesis) for the core invariants.

Each property mirrors a lemma or guarantee stated in DESIGN.md:
metric-closure correctness, compact-set scan completeness and laminarity,
UPGMM feasibility, branch-and-bound optimality against exhaustive search,
lower-bound admissibility, merge safety, and serialization round trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnb.bounds import LOWER_BOUNDS, half_matrix
from repro.bnb.sequential import exact_mut
from repro.bnb.topology import PartialTopology
from repro.core.pipeline import CompactSetTreeBuilder
from repro.graph.compact_sets import (
    compact_sets_brute_force,
    find_compact_sets,
    laminar_violations,
)
from repro.heuristics.upgma import upgma, upgmm
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.maxmin import apply_maxmin, is_maxmin_permutation
from repro.matrix.repair import metric_closure
from repro.parallel.pools import SortedPool
from repro.sequences.distance import edit_distance
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree
from repro.tree.newick import parse_newick, to_newick

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def raw_matrices(draw, min_n=3, max_n=7):
    """Symmetric non-negative matrices with zero diagonal (maybe non-metric)."""
    n = draw(st.integers(min_n, max_n))
    entries = draw(
        st.lists(
            st.floats(1.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    values = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = entries[k]
            k += 1
    return DistanceMatrix(values, validate=False)


@st.composite
def metric_matrices(draw, min_n=3, max_n=7):
    return metric_closure(draw(raw_matrices(min_n, max_n)))


class TestClosureProperties:
    @RELAXED
    @given(raw_matrices())
    def test_closure_is_metric_and_dominated(self, matrix):
        closed = metric_closure(matrix)
        assert closed.is_metric()
        assert (closed.values <= matrix.values + 1e-9).all()

    @RELAXED
    @given(raw_matrices())
    def test_closure_idempotent(self, matrix):
        once = metric_closure(matrix)
        twice = metric_closure(once)
        assert np.allclose(once.values, twice.values)


class TestMaxminProperties:
    @RELAXED
    @given(metric_matrices())
    def test_apply_maxmin_yields_maxmin_order(self, matrix):
        ordered, perm = apply_maxmin(matrix)
        assert sorted(perm) == list(range(matrix.n))
        assert is_maxmin_permutation(ordered)


class TestCompactSetProperties:
    @RELAXED
    @given(metric_matrices(max_n=7))
    def test_scan_equals_brute_force(self, matrix):
        assert set(find_compact_sets(matrix)) == set(
            compact_sets_brute_force(matrix)
        )

    @RELAXED
    @given(metric_matrices())
    def test_laminar_family(self, matrix):
        sets = find_compact_sets(
            matrix, include_singletons=True, include_universe=True
        )
        assert laminar_violations(sets) == []


class TestHeuristicProperties:
    @RELAXED
    @given(metric_matrices())
    def test_upgmm_dominates(self, matrix):
        tree = upgmm(matrix)
        assert is_valid_ultrametric_tree(tree)
        assert dominates_matrix(tree, matrix)

    @RELAXED
    @given(metric_matrices())
    def test_upgma_below_upgmm(self, matrix):
        assert upgma(matrix).cost() <= upgmm(matrix).cost() + 1e-9


class TestBnbProperties:
    @RELAXED
    @given(metric_matrices(max_n=6))
    def test_bnb_optimal_vs_exhaustive(self, matrix):
        best = float("inf")
        stack = [PartialTopology.initial(half_matrix(matrix.values.tolist()))]
        while stack:
            t = stack.pop()
            if t.is_complete:
                best = min(best, t.cost)
                continue
            for pos in range(len(t.parent)):
                stack.append(t.child(pos))
        result = exact_mut(matrix)
        assert result.cost == pytest.approx(best)
        assert dominates_matrix(result.tree, matrix)

    @RELAXED
    @given(metric_matrices(max_n=6), st.sampled_from(sorted(LOWER_BOUNDS)))
    def test_lower_bound_admissible_at_root(self, matrix, bound):
        ordered, _ = apply_maxmin(matrix)
        tails = LOWER_BOUNDS[bound](ordered.values.tolist())
        root = PartialTopology.initial(half_matrix(ordered.values.tolist()))
        assert root.cost + tails[2] <= exact_mut(matrix).cost + 1e-9


class TestPipelineProperties:
    @RELAXED
    @given(metric_matrices(max_n=7))
    def test_compact_pipeline_sandwich(self, matrix):
        """exact <= compact(maximum) <= UPGMM, and the tree is feasible."""
        result = CompactSetTreeBuilder().build(matrix)
        assert is_valid_ultrametric_tree(result.tree)
        assert dominates_matrix(result.tree, matrix)
        assert exact_mut(matrix).cost <= result.cost + 1e-9
        assert result.cost <= upgmm(matrix).cost() + 1e-9


class TestSerializationProperties:
    @RELAXED
    @given(metric_matrices())
    def test_newick_round_trip_preserves_distances(self, matrix):
        tree = upgmm(matrix)
        back = parse_newick(to_newick(tree, precision=12))
        labels = tree.leaf_labels
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                assert back.distance(a, b) == pytest.approx(
                    tree.distance(a, b), abs=1e-6
                )

    @RELAXED
    @given(metric_matrices())
    def test_induced_matrix_is_ultrametric(self, matrix):
        induced = upgmm(matrix).distance_matrix(matrix.labels)
        assert induced.is_ultrametric()


class TestPoolProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=0, max_size=40),
        st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_pool_model(self, priorities, pop_best_flags):
        """The double-heap pool behaves like a sorted list."""
        pool = SortedPool()
        model = []
        for p in priorities:
            pool.push(p, p)
            model.append(p)
        model.sort()
        for take_best in pop_best_flags:
            if not model:
                assert pool.pop_best() is None
                break
            if take_best:
                assert pool.pop_best() == model.pop(0)
            else:
                assert pool.pop_worst() == model.pop()
            assert len(pool) == len(model)


class TestEditDistanceProperties:
    DNA = st.text(alphabet="ACGT", min_size=0, max_size=12)

    @settings(max_examples=50, deadline=None)
    @given(DNA, DNA)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @settings(max_examples=50, deadline=None)
    @given(DNA)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @settings(max_examples=30, deadline=None)
    @given(DNA, DNA, DNA)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @settings(max_examples=30, deadline=None)
    @given(DNA, DNA)
    def test_bounded_by_max_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))
