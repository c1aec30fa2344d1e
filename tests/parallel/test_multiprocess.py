"""Tests for the real multiprocessing engine."""

import pytest

from repro.bnb.search import SearchCore
from repro.bnb.sequential import exact_mut
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix
from repro.obs import ProgressTracker, Recorder, progress_context
from repro.parallel.multiprocess import multiprocess_mut
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree


class TestMultiprocess:
    def test_matches_sequential(self):
        m = random_metric_matrix(9, seed=3)
        result = multiprocess_mut(m, n_workers=2)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_three_workers(self):
        m = random_metric_matrix(10, seed=4)
        result = multiprocess_mut(m, n_workers=3)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_tree_feasible(self):
        m = random_metric_matrix(9, seed=5)
        result = multiprocess_mut(m, n_workers=2)
        assert is_valid_ultrametric_tree(result.tree)
        assert dominates_matrix(result.tree, m)
        assert result.tree.cost() == pytest.approx(result.cost)

    def test_single_worker_falls_back(self):
        m = random_metric_matrix(8, seed=6)
        result = multiprocess_mut(m, n_workers=1)
        assert result.n_workers == 1
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_tiny_matrix_falls_back(self):
        m = DistanceMatrix([[0, 4, 8], [4, 0, 8], [8, 8, 0]])
        result = multiprocess_mut(m, n_workers=4)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_rejects_bad_worker_count(self):
        m = random_metric_matrix(6, seed=7)
        with pytest.raises(ValueError):
            multiprocess_mut(m, n_workers=0)

    def test_counters_positive(self):
        m = random_metric_matrix(10, seed=8)
        result = multiprocess_mut(m, n_workers=2)
        assert result.nodes_expanded > 0
        assert result.initial_upper_bound >= result.cost - 1e-9

    def test_33_option(self):
        m = random_metric_matrix(9, seed=9)
        result = multiprocess_mut(m, n_workers=2, relationship_33=True)
        assert result.cost == pytest.approx(exact_mut(m).cost)


class TestSearchStats:
    """``MultiprocessResult.stats`` uses the sequential solver's schema."""

    # The UPGMM seed is not optimal here, so the search completes trees.
    MATRIX = random_metric_matrix(11, seed=1)

    def test_master_prebranch_plus_worker_counters(self):
        recorder = Recorder()
        result = multiprocess_mut(self.MATRIX, n_workers=2, recorder=recorder)
        master = SearchCore.from_matrix(self.MATRIX)
        master.prebranch(2 * 2)  # prebranch_factor * n_workers
        workers = recorder.counter_total("mp.nodes_expanded")
        stats = result.stats
        assert stats.nodes_expanded == master.stats.nodes_expanded + workers
        assert result.nodes_expanded == stats.nodes_expanded
        assert result.nodes_pruned == stats.nodes_pruned
        assert stats.best_cost == result.cost
        assert stats.initial_upper_bound == result.initial_upper_bound

    def test_progress_reports_nodes_created_as_bnb_does(self):
        # Like bnb, nodes_created counts the root and every grafted
        # position -- cut, filtered or kept -- so complete trees that
        # survive the cut make it exceed expanded + pruned.
        tracker = ProgressTracker(interval_seconds=0.0)
        with progress_context(tracker):
            result = multiprocess_mut(self.MATRIX, n_workers=2)
        stats = result.stats
        assert tracker.latest["nodes_created"] == stats.nodes_created
        assert tracker.latest["nodes_expanded"] == stats.nodes_expanded
        assert stats.nodes_created > stats.nodes_expanded + stats.nodes_pruned

    def test_sequential_fallback_carries_solver_stats(self):
        result = multiprocess_mut(self.MATRIX, n_workers=1)
        sequential = exact_mut(self.MATRIX).stats
        assert result.stats.nodes_created == sequential.nodes_created
        assert result.stats.nodes_expanded == sequential.nodes_expanded
        assert result.nodes_expanded == sequential.nodes_expanded
