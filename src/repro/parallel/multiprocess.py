"""Real multi-core execution of the parallel branch-and-bound.

The simulator in :mod:`repro.parallel.simulator` models the papers'
cluster; this module actually runs the same master/slave decomposition on
local cores with :mod:`multiprocessing`, serving as an end-to-end sanity
check that the decomposition logic is sound:

* the master (parent process) relabels the matrix, seeds the UPGMM upper
  bound and pre-branches the BBT to ``prebranch_factor * p`` nodes;
* the frontier is dispatched cyclically to ``p`` worker processes;
* workers run the sequential DFS on their share, publishing improved
  upper bounds through a shared ``multiprocessing.Value`` (the "global
  upper bound broadcast") that every worker polls between expansions;
* the master gathers per-worker optima and returns the global best.

Production hardening (vs. the original prototype):

* **Start-method portability** -- ``fork`` is used where available (it is
  the cheapest), falling back to ``spawn`` on platforms without it
  (Windows) or when the caller asks; every worker argument is picklable,
  so both start methods produce identical results.
* **Exact result transport** -- workers ship their best topology as a
  :meth:`~repro.bnb.topology.PartialTopology.to_payload` tuple whose
  floats survive pickling bit-exactly (the prototype round-tripped
  through a 12-digit Newick string, so the re-parsed tree's cost could
  disagree with the reported cost).  The master re-materialises the tree
  and verifies ``|tree.cost() - cost| < 1e-9`` on receipt.
* **Liveness supervision** -- lives in :mod:`repro.parallel.executor`,
  shared with the serving layer's worker slots.  Each worker runs its
  share through :func:`~repro.parallel.executor.run_task`, and the
  master waits in :func:`~repro.parallel.executor.supervise`: a worker
  killed by the OOM killer or a signal raises a typed
  :class:`~repro.parallel.executor.WorkerCrashed` naming it instead of
  blocking forever on ``Queue.get()``, and a worker-side exception
  arrives as a :class:`~repro.parallel.executor.RemoteTaskError` with
  its original type, message and traceback.  A ``finally`` block tears
  every process down with :func:`~repro.parallel.executor.discard`.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bnb.search import SearchCore, SearchStats
from repro.bnb.topology import PartialTopology
from repro.bnb.sequential import BranchAndBoundSolver
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.progress import current_progress
from repro.parallel.executor import (
    discard,
    run_task,
    select_start_method,
    supervise,
)
from repro.obs.recorder import (
    NullRecorder,
    as_recorder,
    current_trace_id,
    trace_context,
)
from repro.tree.ultrametric import UltrametricTree

__all__ = ["MultiprocessResult", "multiprocess_mut", "select_start_method"]

_EPS = 1e-9


@dataclass
class MultiprocessResult:
    """Outcome of a real multi-process run."""

    tree: UltrametricTree
    cost: float
    nodes_expanded: int
    nodes_pruned: int
    n_workers: int
    initial_upper_bound: float
    #: Resolved multiprocessing start method ("fork"/"spawn"), or
    #: "sequential" when the input was solved in-process.
    start_method: str = "fork"
    #: The master's pre-branch counters merged with every worker's, in
    #: the same schema as the sequential solver's.
    stats: SearchStats = field(default_factory=SearchStats)


def _worker_main(
    payloads: List[tuple],
    core: SearchCore,
    shared_ub,
    poll_interval: int,
    trace_id: Optional[str] = None,
) -> Tuple[Optional[float], Optional[tuple], dict]:
    """DFS-complete a share of the frontier (runs in a child process).

    Every argument is picklable so the function works under both the
    ``fork`` and ``spawn`` start methods.  Returns ``(cost, payload,
    counters)``: the best topology found below the shared upper bound
    (both ``None`` when there is none) and ``counters["stats"]``, this
    worker's :class:`SearchStats`.  ``trace_id`` is the originating
    request's correlation id; the worker echoes it back inside
    ``counters`` so the master stamps each ``mp.worker`` span with an id
    that genuinely crossed the process boundary (not one re-read from
    master-side state).
    """
    # The core arrives carrying the master's pre-branch counters; this
    # worker reports only its own.
    core.stats = stats = SearchStats()
    stack = sorted(
        (PartialTopology.from_payload(p, core.half) for p in payloads),
        key=lambda t: -t.lower_bound,
    )
    local_ub = shared_ub.value
    best: Optional[PartialTopology] = None
    while stack:
        node = stack.pop()
        if stats.nodes_expanded % poll_interval == 0:
            published = shared_ub.value
            if published < local_ub:
                local_ub = published
        threshold = local_ub - _EPS
        if node.lower_bound > threshold:
            stats.nodes_pruned += 1
            continue
        children, complete = core.expand(node, threshold)
        for child in complete:
            if child.cost < local_ub - _EPS:
                local_ub = child.cost
                best = child
                stats.ub_updates += 1
                with shared_ub.get_lock():
                    if local_ub < shared_ub.value:
                        shared_ub.value = local_ub
        if children:
            children.sort(key=lambda c: -c.lower_bound)
            stack.extend(children)
            if len(stack) > stats.max_open_size:
                stats.max_open_size = len(stack)

    counters = {"stats": stats, "trace_id": trace_id}
    if best is None:
        return None, None, counters
    return best.cost, best.to_payload(), counters


def multiprocess_mut(
    matrix: DistanceMatrix,
    n_workers: int = 4,
    *,
    lower_bound: str = "minfront",
    relationship_33: bool = False,
    enforce_all_33: bool = False,
    prebranch_factor: int = 2,
    poll_interval: int = 64,
    use_kernel: bool = True,
    start_method: Optional[str] = None,
    recorder: Optional[NullRecorder] = None,
    trace_id: Optional[str] = None,
) -> MultiprocessResult:
    """Exact minimum ultrametric tree using real worker processes.

    Falls back to the sequential solver for tiny inputs or ``n_workers=1``.
    ``start_method`` forces a :mod:`multiprocessing` start method
    (``"fork"``/``"spawn"``/``"forkserver"``); by default the cheapest
    method the platform supports is used (see :func:`select_start_method`).
    With a ``recorder``, the run executes inside an ``mp.solve`` span,
    each worker process contributes an ``mp.worker`` span (master-side
    wall clock, process start to result arrival -- the same per-worker
    interval model as the simulator's trace) and its expand/prune
    counters.

    ``trace_id`` correlates the run with an originating request; it
    defaults to the ambient :func:`~repro.obs.recorder.current_trace_id`
    (set by the serving layer around each job), is shipped to every
    worker process, and comes back stamped on that worker's ``mp.worker``
    span -- end-to-end request-to-worker correlation.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    rec = as_recorder(recorder)
    method = select_start_method(start_method)
    if trace_id is None:
        trace_id = current_trace_id()
    with trace_context(trace_id), rec.span(
        "mp.solve", n=matrix.n, workers=n_workers, start_method=method
    ):
        return _multiprocess_impl(
            matrix,
            n_workers,
            lower_bound,
            relationship_33,
            enforce_all_33,
            prebranch_factor,
            poll_interval,
            method,
            rec,
            trace_id,
            use_kernel,
        )


def _multiprocess_impl(
    matrix: DistanceMatrix,
    n_workers: int,
    lower_bound: str,
    relationship_33: bool,
    enforce_all_33: bool,
    prebranch_factor: int,
    poll_interval: int,
    method: str,
    rec: NullRecorder,
    trace_id: Optional[str] = None,
    use_kernel: bool = True,
) -> MultiprocessResult:
    if matrix.n < 4 or n_workers == 1:
        seq = BranchAndBoundSolver(
            lower_bound=lower_bound,
            relationship_33=relationship_33,
            enforce_all_33=enforce_all_33,
            use_kernel=use_kernel,
            recorder=rec,
        ).solve(matrix)
        return MultiprocessResult(
            tree=seq.tree,
            cost=seq.cost,
            nodes_expanded=seq.stats.nodes_expanded,
            nodes_pruned=seq.stats.nodes_pruned,
            n_workers=1,
            initial_upper_bound=seq.stats.initial_upper_bound,
            start_method="sequential",
            stats=seq.stats,
        )

    start = rec.clock()
    core = SearchCore.from_matrix(
        matrix,
        lower_bound=lower_bound,
        relationship_33=relationship_33,
        enforce_all_33=enforce_all_33,
        use_kernel=use_kernel,
    )
    stats = core.stats
    pre = core.prebranch(prebranch_factor * n_workers)
    best_cost = pre.upper_bound
    best_tree = core.seed if pre.best is None else pre.best.to_tree(core.labels)
    frontier = pre.frontier

    # The parallel master reports progress at its natural heartbeat
    # points: after pre-branching (the frontier's bounds are the global
    # lower bound) and on each worker-result arrival (the shared upper
    # bound carries workers' live incumbent improvements).  A frontier
    # the pre-branch emptied starts no worker.
    tracker = current_progress()
    if tracker is not None and frontier:
        tracker.tick(best_cost, stats, frontier)
    ctx = multiprocessing.get_context(method)
    shared_ub = ctx.Value("d", best_cost)
    result_queue = ctx.Queue()
    processes: Dict[int, "multiprocessing.process.BaseProcess"] = {}
    starts: Dict[int, float] = {}
    try:
        for worker_id in range(n_workers):
            # Cyclic dispatch of the lower-bound-sorted frontier.
            share = [
                node.to_payload() for node in frontier[worker_id::n_workers]
            ]
            if not share:
                continue
            proc = ctx.Process(
                target=run_task,
                args=(
                    worker_id,
                    result_queue,
                    _worker_main,
                    share,
                    core,
                    shared_ub,
                    poll_interval,
                    trace_id,
                ),
                daemon=True,
            )
            starts[worker_id] = rec.clock()
            proc.start()
            processes[worker_id] = proc

        for worker_id, (cost, payload, counters) in supervise(
            processes, result_queue, what="branch-and-bound worker"
        ):
            arrived = rec.clock()
            worker_stats = counters["stats"]
            stats.merge(worker_stats)
            if tracker is not None:
                tracker.tick(min(best_cost, shared_ub.value), stats, ())
            if rec.enabled:
                # Stamp the trace id that round-tripped through the
                # worker process, not the master-side ambient one.
                span_attrs = {"worker": worker_id}
                if counters.get("trace_id") is not None:
                    span_attrs["trace_id"] = counters["trace_id"]
                rec.add_span(
                    "mp.worker",
                    starts[worker_id],
                    arrived,
                    **span_attrs,
                )
                rec.counter(
                    "mp.nodes_expanded",
                    worker_stats.nodes_expanded,
                    worker=worker_id,
                )
                rec.counter(
                    "mp.nodes_pruned", worker_stats.nodes_pruned, worker=worker_id
                )
            if cost is not None and cost < best_cost - _EPS:
                tree = PartialTopology.from_payload(payload, core.half).to_tree(
                    core.labels
                )
                realised = tree.cost()
                if abs(realised - cost) > 1e-9:
                    raise RuntimeError(
                        f"worker {worker_id} reported cost {cost!r} but its "
                        f"tree realises {realised!r} (lossy transport?)"
                    )
                best_cost = cost
                best_tree = tree
    finally:
        discard(processes.values(), result_queue)

    stats.best_cost = best_cost
    stats.elapsed_seconds = rec.clock() - start
    if tracker is not None:
        tracker.final(best_cost, stats)
    return MultiprocessResult(
        tree=best_tree,
        cost=best_cost,
        nodes_expanded=stats.nodes_expanded,
        nodes_pruned=stats.nodes_pruned,
        n_workers=n_workers,
        initial_upper_bound=stats.initial_upper_bound,
        start_method=method,
        stats=stats,
    )
