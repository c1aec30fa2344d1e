"""The compact-set construction pipeline (the paper's core algorithm).

:class:`CompactSetTreeBuilder` wires the whole Section-3 procedure
together: hierarchy discovery, per-node matrix reduction, exact (or
parallel, or heuristic) solving of every reduced matrix, and bottom-up
merging.  The result records one :class:`SubproblemReport` per reduced
matrix so the experiments can show *where* the time went -- the paper's
headline claim is precisely that the largest reduced matrix is far
smaller than the input.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Tuple

from repro.bnb.sequential import BranchAndBoundSolver, SearchStats, solve_cherry
from repro.core.merge import merge_group_tree
from repro.core.reduction import REDUCTIONS, reduce_matrix
from repro.graph.compact_linear import kruskal_hierarchy
from repro.graph.hierarchy import CompactSetHierarchy, HierarchyNode
from repro.heuristics.upgma import upgmm
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.progress import current_progress, progress_context
from repro.obs.recorder import NullRecorder, as_recorder
from repro.parallel.config import ClusterConfig
from repro.parallel.simulator import ParallelBranchAndBound
from repro.tree.ultrametric import UltrametricTree

__all__ = ["SubproblemReport", "CompactResult", "CompactSetTreeBuilder"]


@dataclass
class SubproblemReport:
    """One reduced matrix solved during the pipeline."""

    members: Tuple[int, ...]
    size: int
    cost: float
    elapsed_seconds: float
    solver: str
    nodes_expanded: int = 0
    simulated_makespan: float = 0.0
    #: Full search statistics when the subproblem ran the exact solver
    #: (``None`` for heuristic fallbacks and the simulated cluster).
    stats: Optional[SearchStats] = None


@dataclass
class CompactResult:
    """Outcome of a compact-set construction."""

    tree: UltrametricTree
    cost: float
    hierarchy: CompactSetHierarchy
    reports: List[SubproblemReport] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    reduction: str = "maximum"

    @property
    def max_subproblem_size(self) -> int:
        """Largest reduced matrix the pipeline had to solve."""
        return max((r.size for r in self.reports), default=1)

    @property
    def total_simulated_makespan(self) -> float:
        """Sum of simulated cluster makespans over all subproblems."""
        return sum(r.simulated_makespan for r in self.reports)

    @property
    def aggregate_search_stats(self) -> Optional[SearchStats]:
        """Every exact subproblem's :class:`SearchStats` merged, in report
        order, or ``None`` when no subproblem ran the exact solver."""
        merged: Optional[SearchStats] = None
        for report in self.reports:
            if report.stats is None:
                continue
            if merged is None:
                merged = SearchStats()
            merged.merge(report.stats)
        return merged


class CompactSetTreeBuilder:
    """Build a near-optimal ultrametric tree via compact-set decomposition.

    Parameters
    ----------
    reduction:
        ``"maximum"`` (the paper's choice; merged tree dominates the
        input matrix), ``"minimum"`` or ``"average"``.
    solver:
        ``"bnb"`` -- sequential Algorithm BBU per reduced matrix;
        ``"parallel"`` -- the simulated-cluster parallel BBU;
        ``"upgmm"`` -- heuristic only (fast lower-quality baseline).
    cluster:
        :class:`ClusterConfig` for the ``"parallel"`` solver.
    max_exact_size:
        Reduced matrices larger than this fall back to UPGMM instead of
        exact search (``None`` disables the fallback).  Pure-Python
        branch-and-bound is exponential, so benchmarks cap this.
    solver_options:
        Extra keyword arguments for the branch-and-bound solver
        (``lower_bound``, ``relationship_33``...).
    recorder:
        Optional :class:`repro.obs.Recorder`.  When supplied, the build
        emits one ``pipeline.node`` span per internal hierarchy node with
        nested ``pipeline.reduce`` / ``pipeline.solve`` /
        ``pipeline.merge`` spans (plus ``pipeline.discover`` for the
        hierarchy scan), and the underlying solver emits its search
        counters.  Defaults to the no-op recorder.
    """

    def __init__(
        self,
        *,
        reduction: str = "maximum",
        solver: str = "bnb",
        cluster: Optional[ClusterConfig] = None,
        max_exact_size: Optional[int] = None,
        recorder: Optional[NullRecorder] = None,
        **solver_options,
    ) -> None:
        if reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {reduction!r}; choose from {sorted(REDUCTIONS)}"
            )
        if solver not in ("bnb", "parallel", "upgmm"):
            raise ValueError(f"unknown solver {solver!r}")
        self.reduction = reduction
        self.solver = solver
        self.cluster = cluster or ClusterConfig()
        self.max_exact_size = max_exact_size
        self.solver_options = solver_options
        self.recorder = as_recorder(recorder)
        # Solver objects are stateless across solves; construct once here
        # instead of once per subproblem (this also validates the solver
        # options up front rather than on the first reduced matrix).
        self._bnb_solver: Optional[BranchAndBoundSolver] = None
        self._parallel_solver: Optional[ParallelBranchAndBound] = None
        if solver == "bnb":
            self._bnb_solver = BranchAndBoundSolver(
                recorder=self.recorder, **solver_options
            )
        elif solver == "parallel":
            self._parallel_solver = ParallelBranchAndBound(
                self.cluster, recorder=self.recorder, **solver_options
            )
        # Placeholder labels only need to be unique within one build.
        self._placeholder_ids = itertools.count()

    # ------------------------------------------------------------------
    def build(self, matrix: DistanceMatrix) -> CompactResult:
        """Run the full pipeline on ``matrix``."""
        rec = self.recorder
        if matrix.n == 0:
            raise ValueError("cannot build a tree over zero species")
        # The job's progress stream: sub-solves report through a view
        # that never closes it, and the build closes it once below.
        tracker = current_progress()
        if tracker is not None:
            tracker.start()
        start = rec.clock()
        with progress_context(
            None if tracker is None else tracker.subsolves()
        ), rec.span(
            "pipeline.build",
            n=matrix.n,
            reduction=self.reduction,
            solver=self.solver,
        ) as build_span:
            with rec.span("pipeline.discover", n=matrix.n):
                # The Kruskal pass also builds every node's maximum-
                # reduced matrix, so pipeline.reduce only wraps it.
                root, _ = kruskal_hierarchy(
                    matrix, reduce=self.reduction == "maximum"
                )
                hierarchy = CompactSetHierarchy(root, matrix.n)
            if matrix.n == 1:
                tree = UltrametricTree.leaf(matrix.labels[0])
                reports: List[SubproblemReport] = []
            else:
                self._placeholder_ids = itertools.count()
                tree, reports = self._solve_node(matrix, hierarchy.root)
        # When tracing, the result's elapsed time IS the build span's
        # duration; otherwise fall back to plain clock arithmetic.
        if build_span.end is not None:
            elapsed = build_span.end - build_span.start
        else:
            elapsed = rec.clock() - start
        result = CompactResult(
            tree=tree,
            cost=tree.cost(),
            hierarchy=hierarchy,
            reports=reports,
            elapsed_seconds=elapsed,
            reduction=self.reduction,
        )
        if tracker is not None:
            tracker.final(
                result.cost, result.aggregate_search_stats or SearchStats()
            )
        return result

    # ------------------------------------------------------------------
    def _solve_node(
        self,
        matrix: DistanceMatrix,
        node: HierarchyNode,
    ) -> Tuple[UltrametricTree, List[SubproblemReport]]:
        """Solve one internal hierarchy node; returns the subtree plus its
        reports.

        Reports come back in pre-order: this node's own reduced matrix
        first, then each placeholder child's reports in label order.

        The descent is an explicit stack of open nodes, not recursion,
        so a hierarchy nested a thousand levels deep solves within the
        interpreter's recursion limit.  Each open node holds its
        ``pipeline.node`` span; its children's spans open and close
        inside it, in the order a recursive descent would give.
        """
        names = matrix.labels  # one copy for the whole descent
        stack: List[_OpenNode] = []
        try:
            stack.append(self._open_node(matrix, names, node, None))
            while stack:
                top = stack[-1]
                if top.pending:
                    name, child = top.pending.pop()
                    stack.append(self._open_node(matrix, names, child, name))
                    continue
                # Every tree merged here was solved for this build alone,
                # so the merge may move its nodes.
                with self.recorder.span("pipeline.merge", size=top.size):
                    tree = merge_group_tree(top.group_tree, top.subtrees)
                stack.pop()
                top.span.__exit__(None, None, None)
                if stack:
                    parent = stack[-1]
                    parent.subtrees[top.name] = tree
                    parent.reports += top.reports
        except BaseException:
            error = sys.exc_info()
            while stack:
                stack.pop().span.__exit__(*error)
            raise
        return tree, top.reports

    def _open_node(
        self,
        matrix: DistanceMatrix,
        names: List[str],
        node: HierarchyNode,
        name: Optional[str],
    ) -> "_OpenNode":
        """Open ``node``'s span, then reduce and solve its own matrix.

        ``name`` is the node's placeholder label in its parent's matrix.
        A singleton child is named by its species (``names`` holds the
        matrix's labels).  Placeholder names for the compound children
        are minted here, so a sequential descent numbers them in
        pre-order.
        """
        rec = self.recorder
        size = len(node.members)
        span = rec.span("pipeline.node", size=size, arity=node.arity)
        span.__enter__()
        try:
            labels: List[str] = []
            compound: List[Tuple[str, HierarchyNode]] = []
            for child in node.children:
                if child.children:
                    label = f"__cs{next(self._placeholder_ids)}__"
                    compound.append((label, child))
                else:
                    (member,) = child.members
                    label = names[member]
                labels.append(label)
            with rec.span("pipeline.reduce", size=node.arity):
                rows = node.reduced  # built for "maximum" only
                if rows is None:
                    groups = [sorted(child.members) for child in node.children]
                    rows = reduce_matrix(
                        matrix, groups, labels, mode=self.reduction
                    ).values.tolist()
            group_tree, report = self._solve_matrix(
                rows, labels, tuple(sorted(node.members))
            )
        except BaseException:
            span.__exit__(*sys.exc_info())
            raise
        compound.reverse()  # popped from the end, in label order
        return _OpenNode(name, size, span, group_tree, [report], compound)

    def _solve_matrix(
        self, rows: List[List[float]], labels: List[str], members: Tuple[int, ...]
    ) -> Tuple[UltrametricTree, SubproblemReport]:
        rec = self.recorder
        solver = self.solver
        size = len(rows)
        if self.max_exact_size is not None and size > self.max_exact_size:
            solver = "upgmm"
        t0 = rec.clock()
        if solver == "bnb" and size == 2 and not rec.enabled:
            # An untraced cherry skips the solver's span and counters; a
            # traced one goes through the solver to keep the trace whole.
            tree, stats = solve_cherry(labels, rows[0][1])
            stats.elapsed_seconds = rec.clock() - t0
            tracker = self._bnb_solver.tracker()
            if tracker is not None:
                tracker.final(stats.best_cost, stats)
            return tree, SubproblemReport(
                members, size, stats.best_cost, stats.elapsed_seconds,
                solver, stats=stats,
            )
        report = SubproblemReport(members, size, 0.0, 0.0, solver)
        with rec.span(
            "pipeline.solve", solver=solver, size=size
        ) as solve_span:
            if solver == "upgmm":
                tree = upgmm(DistanceMatrix(rows, labels, validate=False))
                report.cost = tree.cost()
            elif solver == "bnb":
                result = self._bnb_solver.solve_rows(rows, labels)
                tree, report.cost, report.stats = (
                    result.tree, result.cost, result.stats
                )
                report.nodes_expanded = result.stats.nodes_expanded
            else:  # parallel
                presult = self._parallel_solver.solve(
                    DistanceMatrix(rows, labels, validate=False)
                )
                tree, report.cost = presult.tree, presult.cost
                report.nodes_expanded = presult.total_nodes_expanded
                report.simulated_makespan = presult.makespan
        # The report's elapsed time comes from the recorder: the solve
        # span's own duration when tracing, its clock otherwise, so every
        # SubproblemReport matches its span exactly.
        if solve_span.end is not None:
            report.elapsed_seconds = solve_span.end - solve_span.start
        else:
            report.elapsed_seconds = rec.clock() - t0
        return tree, report


@dataclass
class _OpenNode:
    """A hierarchy node whose own matrix is solved and whose span is open,
    waiting for its placeholder children before the merge."""

    #: The node's placeholder label in its parent's matrix.
    name: Optional[str]
    size: int
    span: ContextManager
    group_tree: UltrametricTree
    reports: List[SubproblemReport]
    #: ``(placeholder name, compound child)`` not yet solved, next last.
    pending: List[Tuple[str, HierarchyNode]]
    #: Solved children by placeholder name.
    subtrees: Dict[str, UltrametricTree] = field(default_factory=dict)
