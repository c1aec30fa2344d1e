"""Algorithm BBU: sequential branch-and-bound for minimum ultrametric trees.

The solver follows the pseudo-code both papers reproduce from Wu, Chao &
Tang (1999):

1. relabel the species into a max-min permutation;
2. create the BBT root -- the unique topology over species 1 and 2;
3. run UPGMM, store its cost as the initial upper bound UB;
4. depth-first search: branch by grafting the next species onto every
   edge (children visited best-lower-bound first), delete nodes with
   ``LB >= UB``, update UB whenever a cheaper complete tree appears.

The optional 3-3 relationship constraint (Step 4 of the parallel paper)
filters children as they are generated.  Setup and the expansion step
live in :class:`repro.bnb.search.SearchCore`, shared with the parallel
engines; this module keeps the DFS frontier and the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bnb.bounds import LOWER_BOUNDS
from repro.bnb.search import SearchCore, SearchStats
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.progress import ProgressTracker, current_progress
from repro.obs.recorder import NullRecorder, as_recorder
from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = [
    "SearchStats", "BBUResult", "BranchAndBoundSolver", "exact_mut",
    "solve_cherry",
]

_EPS = 1e-9

#: How many loop iterations the solver lets pass between
#: ``ProgressTracker.tick`` calls.
#: The tracker's own time gate is authoritative; this stride only
#: bounds how often the hot loop pays the Python call (at the solver's
#: typical tens of thousands of nodes per second, 64 still checks the
#: clock hundreds of times a second, far finer than any sane
#: ``interval_seconds``).
_PROGRESS_TICK_STRIDE = 64


@dataclass
class BBUResult:
    """Outcome of a branch-and-bound run."""

    tree: UltrametricTree
    cost: float
    stats: SearchStats
    optimal: bool = True
    #: All cost-optimal trees, populated when ``collect_all`` is set.
    all_trees: List[UltrametricTree] = field(default_factory=list)


class BranchAndBoundSolver:
    """Configurable Algorithm-BBU solver.

    Parameters
    ----------
    lower_bound:
        One of ``"trivial"``, ``"minlink"``, ``"minfront"`` (default;
        the paper's bound).
    use_maxmin:
        Relabel species into max-min order first (BBU Step 1).  Turning
        this off is only useful for the ablation benchmark.
    relationship_33:
        Apply the 3-3 relationship constraint when inserting the third
        species (the parallel paper's Step 4).
    enforce_all_33:
        Generalize the constraint to every insertion.  Heuristic: may
        prune the optimum on non-ultrametric inputs.
    node_limit:
        Abort after expanding this many BBT nodes; the best tree found so
        far is returned with ``optimal=False``.
    use_kernel:
        Branch with the kernel (:class:`repro.bnb.kernel.BranchKernel`):
        every insertion position's cost and lower bound is evaluated
        from one per-node table and only survivors of the bound cut are
        materialised.  The table is built in plain Python below the
        measured crossover (``repro.bnb.search._KERNEL_MIN_SPECIES``
        species) and with NumPy from there.  Decisions are bit-identical
        on every path (the kernel module documents the proof), so this
        is purely a speed knob; ``False`` forces the original per-child
        scalar loop everywhere, which also serves as the
        differential-test reference.
    collect_all:
        Also gather *every* optimal tree (within ``1e-9`` of the optimum),
        mirroring the papers' "results set".
    on_incumbent:
        Optional callback ``(cost, tree)`` fired whenever the search
        finds a strictly better complete tree — anytime progress
        reporting for long runs (the UPGMM seed is reported first).
    recorder:
        Optional :class:`repro.obs.Recorder`.  Each solve runs inside a
        ``bnb.solve`` span and emits its search counters
        (``bnb.nodes_expanded``, ``bnb.nodes_pruned``,
        ``bnb.ub_updates``, ...) plus bound-effectiveness statistics on
        completion -- the counters aggregate the run's ``SearchStats``
        once at the end, so the per-node hot loop is untouched.
    progress:
        Optional :class:`repro.obs.progress.ProgressTracker` driven from
        the inner loop (throttled incumbent/bound/gap snapshots).  When
        ``None`` the ambient :func:`repro.obs.progress.current_progress`
        tracker is used if one is bound; with neither, the hot loop pays
        a single ``is not None`` check per iteration and allocates
        nothing.  Every solve ends with ``tracker.final``; under a
        multi-solve job the tracker is a
        :class:`~repro.obs.progress.SubsolveProgress` view, whose
        ``final`` adds the solve's counters to the job's totals and
        leaves closing the stream to the job.
    """

    def __init__(
        self,
        *,
        lower_bound: str = "minfront",
        use_maxmin: bool = True,
        relationship_33: bool = False,
        enforce_all_33: bool = False,
        use_kernel: bool = True,
        node_limit: Optional[int] = None,
        collect_all: bool = False,
        on_incumbent: Optional[
            Callable[[float, UltrametricTree], None]
        ] = None,
        recorder: Optional[NullRecorder] = None,
        progress: Optional[ProgressTracker] = None,
    ) -> None:
        if lower_bound not in LOWER_BOUNDS:
            raise ValueError(
                f"unknown lower bound {lower_bound!r}; "
                f"choose from {sorted(LOWER_BOUNDS)}"
            )
        self.lower_bound = lower_bound
        self.use_maxmin = use_maxmin
        self.relationship_33 = relationship_33
        self.enforce_all_33 = enforce_all_33
        self.use_kernel = use_kernel
        self.node_limit = node_limit
        self.collect_all = collect_all
        self.on_incumbent = on_incumbent
        self.recorder = as_recorder(recorder)
        self.progress = progress

    def tracker(self) -> Optional[ProgressTracker]:
        """The explicit ``progress`` tracker, else the ambient one."""
        return current_progress() if self.progress is None else self.progress

    # ------------------------------------------------------------------
    def solve(self, matrix: DistanceMatrix) -> BBUResult:
        """Construct a minimum ultrametric tree for ``matrix``."""
        return self.solve_rows(matrix.values.tolist(), matrix.labels)

    def solve_rows(
        self, rows: Sequence[Sequence[float]], labels: Sequence[str]
    ) -> BBUResult:
        """:meth:`solve` on a matrix given as row lists and labels.

        The compact pipeline hands over the rows its hierarchy pass
        built, so no :class:`DistanceMatrix` is made per subproblem.
        """
        rec = self.recorder
        n = len(rows)
        if n == 0:
            raise ValueError("cannot build a tree over zero species")
        with rec.span(
            "bnb.solve", n=n, lower_bound=self.lower_bound
        ) as solve_span:
            result = self._solve(rows, labels)
            if rec.enabled:
                stats = result.stats
                rec.counter("bnb.nodes_created", stats.nodes_created)
                rec.counter("bnb.nodes_expanded", stats.nodes_expanded)
                rec.counter("bnb.nodes_pruned", stats.nodes_pruned)
                rec.counter("bnb.nodes_filtered_33", stats.nodes_filtered_33)
                rec.counter("bnb.ub_updates", stats.ub_updates)
                # Non-additive statistics ride on the span as attributes
                # (gauges), NOT as counters: emitted as counters, repeated
                # solves summed a maximum and summed fractions, so any
                # multi-solve profile reported nonsense.  The profile view
                # aggregates these per span name (min/mean/max).
                solve_span.attrs["bnb.max_open_size"] = stats.max_open_size
                if stats.nodes_created > 0:
                    # Bound effectiveness: fraction of generated nodes the
                    # lower bound killed, and how far the UPGMM seed was
                    # from the final optimum (0 = seed already optimal).
                    solve_span.attrs["bnb.prune_fraction"] = (
                        stats.nodes_pruned / stats.nodes_created
                    )
                if stats.initial_upper_bound > 0:
                    solve_span.attrs["bnb.seed_gap_fraction"] = (
                        stats.initial_upper_bound - result.cost
                    ) / stats.initial_upper_bound
        return result

    def _solve(
        self, rows: Sequence[Sequence[float]], labels: Sequence[str]
    ) -> BBUResult:
        rec = self.recorder
        start = rec.clock()
        # Resolved once per solve: the explicit tracker, or the ambient
        # one bound by ``progress_context`` (the scheduler / CLI path).
        tracker = self.tracker()
        if len(rows) <= 2:
            if len(rows) == 1:
                tree = UltrametricTree.leaf(labels[0])
                stats = SearchStats(best_cost=0.0)
            else:
                tree, stats = solve_cherry(labels, rows[0][1])
                stats.elapsed_seconds = rec.clock() - start
            if tracker is not None:
                tracker.final(stats.best_cost, stats)
            return BBUResult(tree, stats.best_cost, stats)

        core = SearchCore(
            rows,
            labels,
            lower_bound=self.lower_bound,
            use_maxmin=self.use_maxmin,
            relationship_33=self.relationship_33,
            enforce_all_33=self.enforce_all_33,
            use_kernel=self.use_kernel,
        )
        stats = core.stats
        labels = core.labels
        seed = core.seed
        upper_bound = stats.initial_upper_bound
        if self.on_incumbent is not None:
            self.on_incumbent(upper_bound, seed)
        best: Optional[PartialTopology] = None
        best_complete: List[PartialTopology] = []
        open_nodes: List[PartialTopology] = [core.root]
        keep_margin = _EPS if self.collect_all else -_EPS

        if tracker is not None:
            tracker.start()
        progress_countdown = 0

        while open_nodes:
            if self.node_limit is not None and stats.nodes_expanded >= self.node_limit:
                stats.node_limit_hit = True
                break
            if tracker is not None:
                # Strided: pay the tick() call only every
                # _PROGRESS_TICK_STRIDE iterations.
                progress_countdown -= 1
                if progress_countdown <= 0:
                    tracker.tick(upper_bound, stats, open_nodes)
                    progress_countdown = _PROGRESS_TICK_STRIDE
            node = open_nodes.pop()
            threshold = upper_bound + keep_margin
            if node.lower_bound > threshold:
                stats.nodes_pruned += 1
                continue
            children, complete = core.expand(node, threshold)
            for child in complete:
                cost = child.cost
                if cost < upper_bound - _EPS:
                    upper_bound = cost
                    best = child
                    stats.ub_updates += 1
                    if self.on_incumbent is not None:
                        self.on_incumbent(cost, child.to_tree(labels))
                    if self.collect_all:
                        best_complete = [
                            t for t in best_complete
                            if t.cost <= upper_bound + _EPS
                        ]
                if self.collect_all and cost <= upper_bound + _EPS:
                    best_complete.append(child)
                    if best is None or cost < best.cost - _EPS:
                        best = child
                elif best is None and cost <= upper_bound + _EPS:
                    # UPGMM tree matched by search; remember topology.
                    best = child
            if children:
                # Depth-first, cheapest lower bound expanded first.
                children.sort(key=lambda c: -c.lower_bound)
                open_nodes.extend(children)
                if len(open_nodes) > stats.max_open_size:
                    stats.max_open_size = len(open_nodes)

        stats.best_cost = upper_bound if best is not None else stats.initial_upper_bound
        stats.elapsed_seconds = rec.clock() - start
        if tracker is not None:
            # On a node-limit break ``open_nodes`` is non-empty, so the
            # closing snapshot reports the honest residual gap.
            tracker.final(upper_bound, stats, open_nodes)

        if best is None:
            # The UPGMM seed was never beaten (it is optimal or the node
            # limit stopped us first); return it.
            tree = seed
            cost = upper_bound
        else:
            tree = best.to_tree(labels)
            cost = best.cost
        result = BBUResult(
            tree,
            cost,
            stats,
            optimal=not stats.node_limit_hit,
        )
        if self.collect_all:
            unique = {}
            for topo in best_complete:
                if topo.cost <= cost + _EPS:
                    unique[topo.signature()] = topo
            result.all_trees = [t.to_tree(labels) for t in unique.values()]
            if not result.all_trees and best is not None:
                result.all_trees = [tree]
        return result


def solve_cherry(
    labels: Sequence[str], distance: float
) -> Tuple[UltrametricTree, SearchStats]:
    """The exact tree of two species and its search counters.

    The one join sits at half their distance (a max-min order of two
    species is the identity).  Every two-species solve takes its tree
    and cost from here: :meth:`BranchAndBoundSolver.solve_rows` and the
    compact pipeline's cherries.  The caller sets ``elapsed_seconds``.
    """
    height = float(distance) / 2.0
    if height < 0.0:
        raise ValueError(f"join height {height} is below a leaf")
    leaves = [TreeNode(label=labels[0]), TreeNode(label=labels[1])]
    tree = UltrametricTree.over_leaves(TreeNode(height, leaves), leaves)
    # The two leaf edges, summed as ``tree.cost()`` would.
    return tree, SearchStats(best_cost=height + height)


def exact_mut(matrix: DistanceMatrix, **solver_options) -> BBUResult:
    """One-call exact minimum ultrametric tree (convenience wrapper)."""
    return BranchAndBoundSolver(**solver_options).solve(matrix)
