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

from repro.bnb.sequential import BranchAndBoundSolver, SearchStats
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
        stack: List[_OpenNode] = []
        try:
            stack.append(self._open_node(matrix, node))
            while stack:
                top = stack[-1]
                child = top.next_child()
                if child is None:
                    # Every tree merged here was solved for this build
                    # alone, so the merge may move its nodes.
                    with self.recorder.span("pipeline.merge", size=top.node.size):
                        tree = merge_group_tree(top.group_tree, top.subtrees)
                    stack.pop()
                    top.span.__exit__(None, None, None)
                    if stack:
                        stack[-1].absorb(tree, top.reports)
                else:
                    stack.append(self._open_node(matrix, child))
        except BaseException:
            error = sys.exc_info()
            while stack:
                stack.pop().span.__exit__(*error)
            raise
        return tree, top.reports

    def _open_node(
        self, matrix: DistanceMatrix, node: HierarchyNode
    ) -> "_OpenNode":
        """Open ``node``'s span, then reduce and solve its own matrix.

        Placeholder names for the compound children are minted here, so
        a sequential descent numbers them in pre-order.
        """
        rec = self.recorder
        span = rec.span("pipeline.node", size=node.size, arity=node.arity)
        span.__enter__()
        try:
            labels: List[str] = []
            compound: List[Tuple[str, HierarchyNode]] = []
            for child in node.children:
                if child.size == 1:
                    (member,) = child.members
                    labels.append(matrix.labels[member])
                else:
                    name = f"__cs{next(self._placeholder_ids)}__"
                    labels.append(name)
                    compound.append((name, child))
            with rec.span("pipeline.reduce", size=node.arity):
                if node.reduced is not None:  # built for "maximum" only
                    reduced = DistanceMatrix(node.reduced, labels, validate=False)
                else:
                    groups = [sorted(child.members) for child in node.children]
                    reduced = reduce_matrix(
                        matrix, groups, labels, mode=self.reduction
                    )
            group_tree, report = self._solve_matrix(
                reduced, tuple(sorted(node.members))
            )
        except BaseException:
            span.__exit__(*sys.exc_info())
            raise
        return _OpenNode(node, span, group_tree, [report], compound)

    def _solve_matrix(
        self, reduced: DistanceMatrix, members: Tuple[int, ...]
    ) -> Tuple[UltrametricTree, SubproblemReport]:
        rec = self.recorder
        solver = self.solver
        if (
            self.max_exact_size is not None
            and reduced.n > self.max_exact_size
            and solver != "upgmm"
        ):
            solver = "upgmm"

        nodes_expanded = 0
        makespan = 0.0
        stats: Optional[SearchStats] = None
        t0 = rec.clock()
        with rec.span(
            "pipeline.solve", solver=solver, size=reduced.n
        ) as solve_span:
            if solver == "bnb":
                assert self._bnb_solver is not None
                result = self._bnb_solver.solve(reduced)
                tree, cost = result.tree, result.cost
                nodes_expanded = result.stats.nodes_expanded
                stats = result.stats
            elif solver == "parallel":
                assert self._parallel_solver is not None
                presult = self._parallel_solver.solve(reduced)
                tree, cost = presult.tree, presult.cost
                nodes_expanded = presult.total_nodes_expanded
                makespan = presult.makespan
            else:  # upgmm
                tree = upgmm(reduced)
                cost = tree.cost()
        # The report's elapsed time comes from the recorder: the solve
        # span's own duration when tracing, its clock otherwise, so every
        # SubproblemReport matches its span exactly.
        if solve_span.end is not None:
            elapsed = solve_span.end - solve_span.start
        else:
            elapsed = rec.clock() - t0

        report = SubproblemReport(
            members=members,
            size=reduced.n,
            cost=cost,
            elapsed_seconds=elapsed,
            solver=solver,
            nodes_expanded=nodes_expanded,
            simulated_makespan=makespan,
            stats=stats,
        )
        return tree, report


@dataclass
class _OpenNode:
    """A hierarchy node whose own matrix is solved and whose span is open,
    waiting for its placeholder children before the merge."""

    node: HierarchyNode
    span: ContextManager
    group_tree: UltrametricTree
    reports: List[SubproblemReport]
    #: ``(placeholder name, compound child)``, in label order.
    children: List[Tuple[str, HierarchyNode]]
    subtrees: Dict[str, UltrametricTree] = field(default_factory=dict)

    def next_child(self) -> Optional[HierarchyNode]:
        """The first placeholder child not yet solved, if any."""
        if len(self.subtrees) < len(self.children):
            return self.children[len(self.subtrees)][1]
        return None

    def absorb(
        self, subtree: UltrametricTree, reports: List[SubproblemReport]
    ) -> None:
        """Take the next placeholder child's solved subtree."""
        self.subtrees[self.children[len(self.subtrees)][0]] = subtree
        self.reports.extend(reports)
