"""Tests for Algorithm BBU (sequential branch-and-bound)."""

import pytest

from repro.bnb.bounds import half_matrix
from repro.bnb.sequential import BranchAndBoundSolver, exact_mut
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import (
    hierarchical_matrix,
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.heuristics.upgma import upgmm
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree


def brute_force_optimum(matrix):
    best = float("inf")
    stack = [PartialTopology.initial(half_matrix(matrix.values.tolist()))]
    while stack:
        t = stack.pop()
        if t.is_complete:
            best = min(best, t.cost)
            continue
        for pos in range(len(t.parent)):
            stack.append(t.child(pos))
    return best


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_random(self, seed):
        m = random_metric_matrix(7, seed=seed)
        assert exact_mut(m).cost == pytest.approx(brute_force_optimum(m))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_clustered(self, seed):
        m = hierarchical_matrix([[2, 2], [3]], seed=seed)
        assert exact_mut(m).cost == pytest.approx(brute_force_optimum(m))

    def test_result_is_feasible(self):
        for seed in range(4):
            m = random_metric_matrix(8, seed=seed)
            result = exact_mut(m)
            assert is_valid_ultrametric_tree(result.tree)
            assert dominates_matrix(result.tree, m)
            assert result.tree.cost() == pytest.approx(result.cost)

    def test_never_above_upgmm(self):
        for seed in range(5):
            m = random_metric_matrix(9, seed=seed)
            assert exact_mut(m).cost <= upgmm(m).cost() + 1e-9

    def test_ultrametric_input_recovers_matrix_cost(self):
        """On ultrametric input the optimum equals the UPGMM cost."""
        m = random_ultrametric_matrix(9, seed=2)
        result = exact_mut(m)
        assert result.cost == pytest.approx(upgmm(m).cost())

    def test_labels_preserved(self, square5):
        result = exact_mut(square5)
        assert set(result.tree.leaf_labels) == set(square5.labels)


class TestEdgeCases:
    def test_single_species(self):
        m = DistanceMatrix([[0.0]], labels=["x"])
        result = exact_mut(m)
        assert result.cost == 0.0
        assert result.tree.leaf_labels == ["x"]

    def test_two_species(self):
        m = DistanceMatrix([[0, 10], [10, 0]], labels=["x", "y"])
        result = exact_mut(m)
        assert result.cost == pytest.approx(10.0)

    def test_three_species(self, tiny_matrix):
        result = exact_mut(tiny_matrix)
        # heights 1 and 4: omega = 4 + (4 + 1) = 9.
        assert result.cost == pytest.approx(9.0)

    def test_zero_species_rejected(self):
        import numpy as np

        m = DistanceMatrix(np.zeros((0, 0)), labels=[])
        with pytest.raises(ValueError):
            exact_mut(m)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError, match="lower bound"):
            BranchAndBoundSolver(lower_bound="nope")


class TestOptions:
    @pytest.mark.parametrize("bound", ["trivial", "minlink", "minfront"])
    def test_all_bounds_agree_on_cost(self, bound):
        m = random_metric_matrix(8, seed=11)
        assert exact_mut(m, lower_bound=bound).cost == pytest.approx(
            exact_mut(m).cost
        )

    def test_stronger_bounds_expand_fewer_nodes(self):
        m = random_metric_matrix(10, seed=13)
        trivial = exact_mut(m, lower_bound="trivial").stats.nodes_expanded
        minlink = exact_mut(m, lower_bound="minlink").stats.nodes_expanded
        minfront = exact_mut(m, lower_bound="minfront").stats.nodes_expanded
        assert minfront <= minlink <= trivial

    def test_without_maxmin_same_cost(self):
        m = random_metric_matrix(8, seed=17)
        assert exact_mut(m, use_maxmin=False).cost == pytest.approx(
            exact_mut(m).cost
        )

    def test_node_limit_returns_suboptimal_flag(self):
        m = random_metric_matrix(12, seed=19)
        limited = exact_mut(m, node_limit=3)
        assert limited.stats.node_limit_hit
        assert not limited.optimal
        assert limited.cost >= exact_mut(m).cost - 1e-9

    def test_collect_all_returns_optima(self):
        m = random_metric_matrix(7, seed=23)
        result = exact_mut(m, collect_all=True)
        assert result.all_trees
        for tree in result.all_trees:
            assert tree.cost() == pytest.approx(result.cost)
            assert dominates_matrix(tree, m)

    def test_collect_all_finds_every_optimum(self):
        """Cross-check the optima set against exhaustive enumeration."""
        m = random_metric_matrix(6, seed=29)
        result = exact_mut(m, collect_all=True)
        best = brute_force_optimum(m)
        stack = [PartialTopology.initial(half_matrix(m.values.tolist()))]
        count = 0
        signatures = set()
        while stack:
            t = stack.pop()
            if t.is_complete:
                if t.cost <= best + 1e-9:
                    signatures.add(t.signature())
                continue
            for pos in range(len(t.parent)):
                stack.append(t.child(pos))
        assert len(result.all_trees) == len(signatures)


class TestStats:
    def test_counters_populated(self):
        m = random_metric_matrix(9, seed=31)
        stats = exact_mut(m).stats
        assert stats.nodes_created > stats.nodes_expanded > 0
        assert stats.initial_upper_bound > 0
        assert stats.best_cost <= stats.initial_upper_bound + 1e-9
        assert stats.elapsed_seconds >= 0

    def test_ub_updates_when_seed_beaten(self):
        found = False
        for seed in range(10):
            m = random_metric_matrix(9, seed=seed)
            stats = exact_mut(m).stats
            if stats.best_cost < stats.initial_upper_bound - 1e-9:
                assert stats.ub_updates >= 1
                found = True
        assert found

    def test_merge_accumulates(self):
        from repro.bnb.sequential import SearchStats

        a = SearchStats(nodes_created=5, nodes_expanded=3, elapsed_seconds=1.0)
        b = SearchStats(nodes_created=7, nodes_expanded=4, elapsed_seconds=0.5)
        a.merge(b)
        assert a.nodes_created == 12
        assert a.nodes_expanded == 7
        assert a.elapsed_seconds == pytest.approx(1.5)

    def test_merge_keeps_best_cost_and_seed_bound(self):
        """Regression: merge() used to drop both fields, so pipeline
        aggregates reported a 0.0 seed bound and an inf best cost."""
        from repro.bnb.sequential import SearchStats

        a = SearchStats(
            initial_upper_bound=10.0, best_cost=9.0, max_open_size=4
        )
        b = SearchStats(
            initial_upper_bound=7.5, best_cost=6.25, max_open_size=9
        )
        a.merge(b)
        assert a.initial_upper_bound == pytest.approx(17.5)
        assert a.best_cost == 6.25  # min, not sum (and not dropped)
        assert a.max_open_size == 9

    def test_merge_into_fresh_accumulator_is_identity(self):
        """Folding one run into SearchStats() must reproduce that run --
        this is exactly what CompactResult.aggregate_search_stats does."""
        from repro.bnb.sequential import SearchStats

        run = SearchStats(
            nodes_created=3,
            initial_upper_bound=4.0,
            best_cost=3.5,
            node_limit_hit=True,
        )
        acc = SearchStats()
        acc.merge(run)
        assert acc.best_cost == 3.5
        assert acc.initial_upper_bound == 4.0
        assert acc.node_limit_hit


class TestGaugeReporting:
    """Regression: max_open_size / prune_fraction / seed_gap_fraction were
    emitted as *counters*, so repeated solves on one recorder summed a
    maximum and summed fractions into nonsense totals.  They now ride on
    the ``bnb.solve`` span as attributes (gauges)."""

    def solve_twice(self):
        from repro.obs import Recorder

        rec = Recorder()
        results = [
            BranchAndBoundSolver(recorder=rec).solve(
                random_metric_matrix(n, seed=seed)
            )
            for n, seed in ((8, 41), (9, 43))
        ]
        return rec, results

    def test_gauges_are_not_counters(self):
        rec, _ = self.solve_twice()
        for name in (
            "bnb.max_open_size",
            "bnb.prune_fraction",
            "bnb.seed_gap_fraction",
        ):
            assert rec.counters(name) == []
        # The genuinely additive statistics still arrive as counters.
        assert rec.counter_total("bnb.nodes_created") > 0

    def test_each_span_carries_its_own_run(self):
        rec, results = self.solve_twice()
        spans = rec.spans("bnb.solve")
        assert len(spans) == 2
        for span, result in zip(spans, results):
            stats = result.stats
            assert span.attrs["bnb.max_open_size"] == stats.max_open_size
            assert span.attrs["bnb.prune_fraction"] == pytest.approx(
                stats.nodes_pruned / stats.nodes_created
            )
            assert span.attrs["bnb.seed_gap_fraction"] == pytest.approx(
                (stats.initial_upper_bound - result.cost)
                / stats.initial_upper_bound
            )
