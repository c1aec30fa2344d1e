"""Tests for the end-to-end compact-set pipeline."""

import collections
import dataclasses

import pytest

from repro.bnb.sequential import BranchAndBoundSolver, SearchStats, exact_mut
from repro.core.api import construct_tree
from repro.core.pipeline import CompactSetTreeBuilder, SubproblemReport
from repro.heuristics.upgma import upgmm
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import (
    clustered_matrix,
    hierarchical_matrix,
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.obs import Recorder
from repro.obs.progress import (
    ProgressTracker,
    SubsolveProgress,
    progress_context,
)
from repro.parallel.config import ClusterConfig
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree
from repro.tree.newick import to_newick
from repro.verify.oracles import run_oracles
from tests.differential_inputs import nested_chain


_NODE_SPANS = (
    "pipeline.node", "pipeline.reduce", "pipeline.solve", "pipeline.merge",
)


def _assert_node_children_in_order(spans):
    """Each node span's own children are reduce, solve, nodes..., merge."""
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    for span in spans:
        if span.name != "pipeline.node":
            continue
        names = [c.name for c in sorted(by_parent[span.id], key=lambda c: c.id)]
        assert names[:2] == ["pipeline.reduce", "pipeline.solve"]
        assert names[-1] == "pipeline.merge"
        assert set(names[2:-1]) <= {"pipeline.node"}


class TestBuild:
    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_tree_on_clustered_data(self, seed):
        m = hierarchical_matrix([[3, 2], [3]], seed=seed)
        result = CompactSetTreeBuilder().build(m)
        assert is_valid_ultrametric_tree(result.tree)
        assert dominates_matrix(result.tree, m)
        assert result.cost == pytest.approx(result.tree.cost())

    def test_cost_between_optimum_and_upgmm(self):
        for seed in range(4):
            m = clustered_matrix([3, 3, 2], seed=seed)
            result = CompactSetTreeBuilder().build(m)
            assert result.cost >= exact_mut(m).cost - 1e-9
            assert result.cost <= upgmm(m).cost() + 1e-9

    def test_near_optimal_on_clustered_data(self):
        """The Figure 9/10 claim: cost within a few percent of optimal."""
        for seed in range(5):
            m = hierarchical_matrix([[3, 2], [4]], seed=seed)
            compact_cost = CompactSetTreeBuilder().build(m).cost
            optimal = exact_mut(m).cost
            assert compact_cost <= optimal * 1.05 + 1e-9

    def test_subproblems_small_on_clustered_data(self):
        m = hierarchical_matrix([[3, 3], [3, 3]], seed=1)
        result = CompactSetTreeBuilder().build(m)
        assert result.max_subproblem_size <= 4
        assert result.max_subproblem_size < m.n

    def test_no_compact_sets_degenerates_to_plain_bnb(self):
        # All-equal distances: the root reduced matrix is the full matrix.
        m = DistanceMatrix(
            [[0, 5, 5, 5], [5, 0, 5, 5], [5, 5, 0, 5], [5, 5, 5, 0]]
        )
        result = CompactSetTreeBuilder().build(m)
        assert result.max_subproblem_size == 4
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_ultrametric_input_exactly_recovered(self):
        m = random_ultrametric_matrix(10, seed=6)
        result = CompactSetTreeBuilder().build(m)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_single_species(self):
        m = DistanceMatrix([[0.0]], labels=["only"])
        result = CompactSetTreeBuilder().build(m)
        assert result.tree.leaf_labels == ["only"]
        assert result.cost == 0.0

    def test_two_species(self):
        m = DistanceMatrix([[0, 6], [6, 0]], labels=["x", "y"])
        result = CompactSetTreeBuilder().build(m)
        assert result.cost == pytest.approx(6.0)

    def test_zero_species_rejected(self):
        import numpy as np

        m = DistanceMatrix(np.zeros((0, 0)), labels=[])
        with pytest.raises(ValueError):
            CompactSetTreeBuilder().build(m)

    def test_labels_preserved(self):
        m = clustered_matrix([2, 3], seed=3, labels=list("vwxyz"))
        result = CompactSetTreeBuilder().build(m)
        assert set(result.tree.leaf_labels) == set("vwxyz")

    def test_paper_example(self, paper_example):
        result = CompactSetTreeBuilder().build(paper_example)
        assert is_valid_ultrametric_tree(result.tree)
        assert dominates_matrix(result.tree, paper_example)
        assert result.max_subproblem_size <= 3


class TestReports:
    def test_one_report_per_internal_node(self):
        m = hierarchical_matrix([[3, 2], [3]], seed=2)
        result = CompactSetTreeBuilder().build(m)
        assert len(result.reports) == len(result.hierarchy.internal_nodes())

    def test_report_fields(self):
        m = clustered_matrix([3, 3], seed=4)
        result = CompactSetTreeBuilder().build(m)
        for report in result.reports:
            assert report.size >= 2
            assert report.elapsed_seconds >= 0.0
            assert report.solver in ("bnb", "parallel", "upgmm")
            assert report.cost > 0

    def test_elapsed_recorded(self):
        m = clustered_matrix([3, 3], seed=4)
        result = CompactSetTreeBuilder().build(m)
        assert result.elapsed_seconds > 0


class TestObservability:
    def test_one_solve_span_per_subproblem_report(self):
        recorder = Recorder()
        m = hierarchical_matrix([[3, 2], [3]], seed=2)
        result = CompactSetTreeBuilder(recorder=recorder).build(m)
        solves = recorder.spans("pipeline.solve")
        assert len(solves) == len(result.reports)
        # Each report's elapsed time IS its span's duration.
        for report, span in zip(result.reports, solves):
            assert report.elapsed_seconds == pytest.approx(span.duration)
            assert span.attrs["size"] == report.size
            assert span.attrs["solver"] == report.solver

    def test_span_hierarchy(self):
        recorder = Recorder()
        m = clustered_matrix([3, 3], seed=4)
        result = CompactSetTreeBuilder(recorder=recorder).build(m)
        (build,) = recorder.spans("pipeline.build")
        assert build.attrs["n"] == m.n
        assert result.elapsed_seconds == pytest.approx(build.duration)
        (discover,) = recorder.spans("pipeline.discover")
        assert discover.parent == build.id
        for node_span in recorder.spans("pipeline.node"):
            assert node_span.parent is not None
        # Every internal node produced reduce and merge spans.
        n_nodes = len(recorder.spans("pipeline.node"))
        assert len(recorder.spans("pipeline.reduce")) == n_nodes
        assert len(recorder.spans("pipeline.merge")) == n_nodes

    def test_solve_spans_cover_most_of_build_time(self):
        """Acceptance check: per-subproblem timings are consistent with
        the run's total, not a separate hand-rolled measurement."""
        recorder = Recorder()
        m = hierarchical_matrix([[3, 2], [3]], seed=2)
        result = CompactSetTreeBuilder(recorder=recorder).build(m)
        span_total = sum(s.duration for s in recorder.spans("pipeline.solve"))
        report_total = sum(r.elapsed_seconds for r in result.reports)
        assert span_total == pytest.approx(report_total)
        assert span_total <= result.elapsed_seconds

    def test_span_order_is_a_recursive_descent(self):
        """The explicit-stack descent opens and closes spans exactly as a
        recursive one would: node, reduce, solve, each compound child's
        node in label order, then merge -- all parented to the node."""
        recorder = Recorder()
        m = hierarchical_matrix([[[2, 3], 2], [4, [2, 2]]], seed=3)
        result = CompactSetTreeBuilder(recorder=recorder).build(m)

        def expected(node):
            names = ["pipeline.node", "pipeline.reduce", "pipeline.solve"]
            for child in node.children:
                if not child.is_leaf:
                    names += expected(child)
            return names + ["pipeline.merge"]

        spans = sorted(
            (s for s in recorder.spans() if s.name in _NODE_SPANS),
            key=lambda s: s.id,
        )
        assert [s.name for s in spans] == expected(result.hierarchy.root)
        _assert_node_children_in_order(spans)

    def test_recorder_does_not_change_result(self):
        m = clustered_matrix([3, 3], seed=4)
        plain = CompactSetTreeBuilder().build(m)
        traced = CompactSetTreeBuilder(recorder=Recorder()).build(m)
        assert traced.cost == pytest.approx(plain.cost)
        assert len(traced.reports) == len(plain.reports)


class TestOptions:
    def test_parallel_solver(self):
        m = hierarchical_matrix([[3, 2], [3]], seed=5)
        result = CompactSetTreeBuilder(
            solver="parallel", cluster=ClusterConfig(n_workers=4)
        ).build(m)
        sequential = CompactSetTreeBuilder().build(m)
        assert result.cost == pytest.approx(sequential.cost)

    def test_parallel_solver_records_makespan_on_big_subproblems(self):
        # A near-uniform matrix keeps a large root subproblem, so the
        # simulated cluster actually runs (size-2 subproblems fall back).
        m = random_metric_matrix(7, seed=11)
        result = CompactSetTreeBuilder(
            solver="parallel", cluster=ClusterConfig(n_workers=4)
        ).build(m)
        if result.max_subproblem_size >= 3:
            assert result.total_simulated_makespan > 0

    def test_upgmm_solver_is_upper_bound(self):
        m = clustered_matrix([3, 3], seed=6)
        heuristic = CompactSetTreeBuilder(solver="upgmm").build(m)
        exact = CompactSetTreeBuilder().build(m)
        assert heuristic.cost >= exact.cost - 1e-9

    def test_max_exact_size_triggers_fallback(self):
        m = random_metric_matrix(9, seed=7)  # few compact sets -> big root
        result = CompactSetTreeBuilder(max_exact_size=4).build(m)
        fallbacks = [r for r in result.reports if r.solver == "upgmm"]
        if result.max_subproblem_size > 4:
            assert fallbacks

    @pytest.mark.parametrize("mode", ["maximum", "minimum", "average"])
    def test_reduction_modes_run(self, mode):
        m = clustered_matrix([3, 3], seed=8)
        result = CompactSetTreeBuilder(reduction=mode).build(m)
        assert is_valid_ultrametric_tree(result.tree)

    def test_reduction_cost_ordering(self):
        """minimum <= average <= maximum reduction cost."""
        m = clustered_matrix([3, 3, 2], seed=9)
        costs = {
            mode: CompactSetTreeBuilder(reduction=mode).build(m).cost
            for mode in ("minimum", "average", "maximum")
        }
        assert costs["minimum"] <= costs["average"] + 1e-9
        assert costs["average"] <= costs["maximum"] + 1e-9

    def test_invalid_reduction_rejected(self):
        with pytest.raises(ValueError):
            CompactSetTreeBuilder(reduction="median")

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            CompactSetTreeBuilder(solver="quantum")

    def test_solver_options_forwarded(self):
        m = clustered_matrix([3, 3], seed=10)
        result = CompactSetTreeBuilder(lower_bound="trivial").build(m)
        assert is_valid_ultrametric_tree(result.tree)


class TestDeepHierarchy:
    """One compact set per level: 1199 nested nodes at n = 1200."""

    def test_compact_solves_a_1200_level_chain(self):
        m = nested_chain(1200)
        result = construct_tree(m, "compact")
        assert result.details.hierarchy.depth() == 1199
        assert len(result.details.reports) == 1199
        assert run_oracles(
            result.tree, m, reported_cost=result.cost, method="compact"
        ) == []

    def test_traced_chain_keeps_span_nesting(self):
        recorder = Recorder()
        m = nested_chain(400)
        result = CompactSetTreeBuilder(recorder=recorder).build(m)
        nodes = recorder.spans("pipeline.node")
        assert len(nodes) == 399
        # Each level's node span is the parent of the next level's.
        by_id = {s.id: s for s in nodes}
        deepest = max(nodes, key=lambda s: s.id)
        depth = 0
        while deepest.parent in by_id:
            deepest = by_id[deepest.parent]
            depth += 1
        assert depth == 398
        assert [r.size for r in result.reports] == [2] * 399


class TestAggregateSearchStats:
    def test_aggregates_over_exact_reports(self):
        m = hierarchical_matrix([[3, 2], [3]], seed=14)
        result = CompactSetTreeBuilder().build(m)
        with_stats = [r.stats for r in result.reports if r.stats is not None]
        assert with_stats  # the exact solver ran somewhere
        agg = result.aggregate_search_stats
        assert agg.nodes_created == sum(s.nodes_created for s in with_stats)
        assert agg.nodes_expanded == sum(s.nodes_expanded for s in with_stats)
        assert agg.initial_upper_bound == pytest.approx(
            sum(s.initial_upper_bound for s in with_stats)
        )
        assert agg.best_cost == min(s.best_cost for s in with_stats)
        assert agg.max_open_size == max(s.max_open_size for s in with_stats)

    def test_none_for_heuristic_solver(self):
        m = clustered_matrix([3, 3], seed=15)
        result = CompactSetTreeBuilder(solver="upgmm").build(m)
        assert all(r.stats is None for r in result.reports)
        assert result.aggregate_search_stats is None

    def test_fallback_reports_carry_no_stats(self):
        m = random_metric_matrix(9, seed=7)  # few compact sets -> big root
        result = CompactSetTreeBuilder(max_exact_size=4).build(m)
        for report in result.reports:
            if report.solver == "upgmm":
                assert report.stats is None
            else:
                assert report.stats is not None


#: Every ``SearchStats`` field but the wall time.
STATS_FIELDS = tuple(
    f.name for f in dataclasses.fields(SearchStats)
    if f.name != "elapsed_seconds"
)


def report_digest(report):
    """A report's fields but the wall times, stats included."""
    fields = tuple(
        getattr(report, f.name) for f in dataclasses.fields(SubproblemReport)
        if f.name not in ("elapsed_seconds", "stats")
    )
    stats = report.stats
    return fields + tuple(getattr(stats, name) for name in STATS_FIELDS)


class TestCherries:
    """An untraced two-species node skips the solver's span and
    counters; its tree, report, stats and progress must not change."""

    MATRIX = hierarchical_matrix([[6, 6]] * 5, seed=0, jitter=0.3)

    def test_cherry_reports_match_the_solver(self):
        result = CompactSetTreeBuilder().build(self.MATRIX)
        nodes = {
            tuple(sorted(node.members)): node
            for node in result.hierarchy.internal_nodes()
        }
        cherries = [r for r in result.reports if r.size == 2]
        assert len(cherries) == 23
        for report in cherries:
            node = nodes[report.members]
            solved = BranchAndBoundSolver().solve(
                DistanceMatrix(node.reduced, ["a", "b"])
            )
            reference = SubproblemReport(
                report.members, 2, solved.cost, 0.0, "bnb",
                nodes_expanded=solved.stats.nodes_expanded,
                stats=solved.stats,
            )
            assert report_digest(report) == report_digest(reference)

    def test_untraced_build_matches_the_traced_one(self, monkeypatch):
        """A traced build solves every cherry through the solver, an
        untraced one directly: the reports and the counts folded into
        the job's progress tracker must agree."""
        folded = []
        final = SubsolveProgress.final

        def recording_final(view, incumbent, stats, open_nodes=()):
            folded.append(
                (incumbent, stats.nodes_expanded, stats.nodes_created)
            )
            return final(view, incumbent, stats, open_nodes)

        monkeypatch.setattr(SubsolveProgress, "final", recording_final)
        runs = []
        for recorder in (None, Recorder()):
            folded.clear()
            with progress_context(ProgressTracker()):
                result = CompactSetTreeBuilder(recorder=recorder).build(
                    self.MATRIX
                )
            runs.append((
                to_newick(result.tree), result.cost,
                [report_digest(r) for r in result.reports], list(folded),
            ))
        untraced, traced = runs
        assert len(untraced[3]) == len(result.reports)
        assert untraced == traced


#: Span ``(name, parent name, count)`` and counter totals of a traced
#: ``compact`` build, as recorded before cherries skipped the solver:
#: a traced build must keep every span and counter.
_NESTING = [
    ("bnb.solve", "pipeline.solve"),
    ("pipeline.build", None),
    ("pipeline.discover", "pipeline.build"),
    ("pipeline.merge", "pipeline.node"),
    ("pipeline.node", "pipeline.build"),
    ("pipeline.node", "pipeline.node"),
    ("pipeline.reduce", "pipeline.node"),
    ("pipeline.solve", "pipeline.node"),
]
TRACE_PINS = {
    0: ([34, 1, 1, 34, 1, 33, 34, 34], (88, 15, 0, 71, 2)),
    1: ([34, 1, 1, 34, 1, 33, 34, 34], (68, 11, 0, 54, 3)),
    2: ([38, 1, 1, 38, 1, 37, 38, 38], (35, 6, 0, 28, 1)),
}
_COUNTERS = (
    "bnb.nodes_created", "bnb.nodes_expanded", "bnb.nodes_filtered_33",
    "bnb.nodes_pruned", "bnb.ub_updates",
)


@pytest.mark.parametrize("seed", sorted(TRACE_PINS))
def test_traced_build_keeps_its_spans_and_counters(seed):
    recorder = Recorder()
    CompactSetTreeBuilder(recorder=recorder).build(
        hierarchical_matrix([[6, 6]] * 5, seed=seed, jitter=0.3)
    )
    spans = recorder.spans()
    names = {span.id: span.name for span in spans}
    nesting = collections.Counter(
        (span.name, names.get(span.parent)) for span in spans
    )
    counts, totals = TRACE_PINS[seed]
    assert nesting == dict(zip(_NESTING, counts))
    events = collections.Counter(c.name for c in recorder.counters())
    assert events == {name: counts[0] for name in _COUNTERS}
    assert tuple(
        recorder.counter_total(name) for name in _COUNTERS
    ) == totals
