"""Discrete-event simulation of the master/slave parallel branch-and-bound.

The simulator executes the *identical* search logic as the sequential
Algorithm BBU -- it drives the same :class:`~repro.bnb.search.SearchCore`
(branching, lower bounds, 3-3 filter, pre-branch) -- but interleaves
``p`` workers on a simulated clock:

* the master relabels the matrix, seeds the UPGMM upper bound, and
  pre-branches the BBT until the frontier reaches
  ``prebranch_factor * p`` nodes (Steps 1-5 of the papers' listing);
* the frontier is sorted by lower bound; roughly ``1/p`` of it stays in
  the **global pool** and the rest is dispatched cyclically to the
  workers' **local pools** (Step 6);
* each worker repeatedly takes its most promising node, prunes or
  branches it, *broadcasts* improved upper bounds (arriving at the other
  workers after ``ub_broadcast_latency``), refills from the global pool
  when its local pool empties, and donates its least promising node to
  the global pool when the global pool is empty (Step 7);
* when every pool is dry the master gathers the solutions (Step 8).

Because upper bounds discovered by one worker prune the others' subtrees,
the *total* number of expanded nodes differs from the sequential run --
the mechanism behind the super-linear speedups the papers report -- and
the simulation reproduces it deterministically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bnb.bounds import LOWER_BOUNDS
from repro.bnb.search import SearchCore
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.recorder import NullRecorder, as_recorder
from repro.parallel.config import ClusterConfig
from repro.parallel.pools import SortedPool
from repro.parallel.trace import TraceInterval
from repro.tree.ultrametric import UltrametricTree

__all__ = ["WorkerStats", "ParallelResult", "ParallelBranchAndBound"]

_EPS = 1e-9
#: Simulated cost of discarding a pruned node (bound comparison only).
_PRUNE_COST = 1.0


@dataclass
class WorkerStats:
    """Per-worker counters from one simulated run."""

    worker_id: int
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    busy_time: float = 0.0
    donations: int = 0
    refills: int = 0
    steals: int = 0
    ub_broadcasts: int = 0
    finished_at: float = 0.0


@dataclass
class ParallelResult:
    """Outcome of a simulated parallel run."""

    tree: UltrametricTree
    cost: float
    makespan: float
    setup_time: float
    total_nodes_expanded: int
    total_nodes_pruned: int
    messages: int
    workers: List[WorkerStats] = field(default_factory=list)
    initial_upper_bound: float = 0.0
    #: Busy intervals, populated when ``ClusterConfig.record_trace`` is set.
    trace: List[TraceInterval] = field(default_factory=list)

    @property
    def total_busy_time(self) -> float:
        """Aggregate work units actually spent expanding/pruning."""
        return sum(w.busy_time for w in self.workers)

    def efficiency(self) -> float:
        """Busy fraction of the cluster: ``busy / (p * makespan)``."""
        if self.makespan <= 0 or not self.workers:
            return 1.0
        return self.total_busy_time / (len(self.workers) * self.makespan)


class _Worker:
    """Mutable per-worker simulation state."""

    __slots__ = ("pool", "ub", "broadcast_ptr", "stats")

    def __init__(self, worker_id: int, ub: float) -> None:
        self.pool: SortedPool[PartialTopology] = SortedPool()
        self.ub = ub
        self.broadcast_ptr = 0
        self.stats = WorkerStats(worker_id)


class ParallelBranchAndBound:
    """The parallel Algorithm BBU on a simulated cluster.

    Search options mirror :class:`repro.bnb.sequential.BranchAndBoundSolver`;
    cluster behaviour comes from a :class:`ClusterConfig`.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        lower_bound: str = "minfront",
        use_maxmin: bool = True,
        relationship_33: bool = False,
        enforce_all_33: bool = False,
        use_kernel: bool = True,
        recorder: Optional[NullRecorder] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        if lower_bound not in LOWER_BOUNDS:
            raise ValueError(f"unknown lower bound {lower_bound!r}")
        self.lower_bound = lower_bound
        self.use_maxmin = use_maxmin
        self.relationship_33 = relationship_33
        self.enforce_all_33 = enforce_all_33
        self.use_kernel = use_kernel
        self.recorder = as_recorder(recorder)

    # ------------------------------------------------------------------
    def solve(self, matrix: DistanceMatrix) -> ParallelResult:
        """Run the simulated cluster on ``matrix``.

        With a recorder attached, the run executes inside a
        ``parallel.solve`` wall-clock span; every simulated busy interval
        is also emitted as a ``parallel.worker`` span (``clock:
        "simulated"`` -- the same model as :class:`TraceInterval`, so the
        Gantt/utilization views consume either source), along with the
        run's expansion/prune/message counters.
        """
        rec = self.recorder
        with rec.span(
            "parallel.solve", n=matrix.n, workers=self.config.n_workers
        ):
            result = self._solve_impl(matrix)
            if rec.enabled:
                for interval in result.trace:
                    rec.add_span(
                        "parallel.worker",
                        interval.start,
                        interval.end,
                        worker=interval.worker,
                        kind=interval.kind,
                        clock="simulated",
                    )
                rec.counter(
                    "parallel.nodes_expanded", result.total_nodes_expanded
                )
                rec.counter("parallel.nodes_pruned", result.total_nodes_pruned)
                rec.counter("parallel.messages", result.messages)
                rec.counter("parallel.simulated_makespan", result.makespan)
        return result

    def _solve_impl(self, matrix: DistanceMatrix) -> ParallelResult:
        cfg = self.config
        record_trace = cfg.record_trace or self.recorder.enabled
        n = matrix.n
        if n < 3:
            # Too small to parallelise; fall back to the trivial cases.
            from repro.bnb.sequential import BranchAndBoundSolver

            seq = BranchAndBoundSolver(
                lower_bound=self.lower_bound, use_maxmin=self.use_maxmin
            ).solve(matrix)
            return ParallelResult(
                tree=seq.tree,
                cost=seq.cost,
                makespan=0.0,
                setup_time=0.0,
                total_nodes_expanded=seq.stats.nodes_expanded,
                total_nodes_pruned=seq.stats.nodes_pruned,
                messages=0,
                workers=[WorkerStats(0)],
                initial_upper_bound=seq.stats.initial_upper_bound,
            )

        core = SearchCore.from_matrix(
            matrix,
            lower_bound=self.lower_bound,
            use_maxmin=self.use_maxmin,
            relationship_33=self.relationship_33,
            enforce_all_33=self.enforce_all_33,
            use_kernel=self.use_kernel,
        )
        stats = core.stats

        # ------------------------------------------------------------------
        # Master phase: UPGMM + pre-branching, charged sequentially.
        # ------------------------------------------------------------------
        clock = cfg.expansion_unit_cost * n * n  # UPGMM / setup charge
        pre = core.prebranch(cfg.prebranch_factor * cfg.n_workers)
        for leaves in pre.popped:
            clock += _PRUNE_COST if leaves is None else cfg.expansion_cost(leaves)
        global_ub = pre.upper_bound
        best = pre.best
        frontier = pre.frontier
        setup_time = clock

        # ------------------------------------------------------------------
        # Dispatch: cyclic assignment, ~1/p of the nodes kept in the GP.
        # ------------------------------------------------------------------
        p = cfg.n_workers
        workers = [_Worker(w, global_ub) for w in range(p)]
        gp: SortedPool[PartialTopology] = SortedPool()
        messages = p  # initial matrix + UB broadcast to every worker
        slot = 0
        for index, node in enumerate(frontier):
            if p > 1 and index % (p + 1) == p:
                gp.push(node.lower_bound, node)
            else:
                workers[slot % p].pool.push(node.lower_bound, node)
                slot += 1
        start_time = clock + cfg.transfer_latency

        # ------------------------------------------------------------------
        # Event loop.
        # ------------------------------------------------------------------
        #: broadcasts: (arrival_time, ub value), appended in arrival order.
        broadcasts: List[Tuple[float, float]] = []
        heap: List[Tuple[float, int, str, int, Optional[PartialTopology]]] = []
        seq_counter = 0

        def schedule(time: float, action: str, worker_id: int,
                     payload: Optional[PartialTopology] = None) -> None:
            nonlocal seq_counter
            heapq.heappush(heap, (time, seq_counter, action, worker_id, payload))
            seq_counter += 1

        idle: set = set()
        in_flight_to_gp = 0
        trace: List[TraceInterval] = []

        for w in range(p):
            schedule(start_time, "work", w)

        makespan = start_time

        def absorb_broadcasts(worker: _Worker, now: float) -> None:
            while (
                worker.broadcast_ptr < len(broadcasts)
                and broadcasts[worker.broadcast_ptr][0] <= now + _EPS
            ):
                value = broadcasts[worker.broadcast_ptr][1]
                if value < worker.ub:
                    worker.ub = value
                worker.broadcast_ptr += 1

        while heap:
            now, _, action, wid, payload = heapq.heappop(heap)
            makespan = max(makespan, now)
            worker = workers[wid]

            if action == "gp_arrival":
                assert payload is not None
                in_flight_to_gp -= 1
                gp.push(payload.lower_bound, payload)
                if idle:
                    woken = min(idle)
                    idle.discard(woken)
                    schedule(now, "work", woken)
                continue

            if action == "carry":
                # A node requested from the GP arrives at the worker.
                assert payload is not None
                worker.pool.push(payload.lower_bound, payload)
                schedule(now, "work", wid)
                continue

            # action == "work"
            absorb_broadcasts(worker, now)
            node = None
            elapsed = 0.0
            while worker.pool:
                candidate = worker.pool.pop_best()
                if candidate is None:
                    break
                if candidate.lower_bound > worker.ub - _EPS:
                    worker.stats.nodes_pruned += 1
                    stats.nodes_pruned += 1
                    elapsed += _PRUNE_COST
                    continue
                node = candidate
                break

            if node is None:
                worker.stats.busy_time += elapsed
                if record_trace and elapsed > 0:
                    trace.append(TraceInterval(wid, now, now + elapsed, "prune"))
                refill = gp.pop_best()
                if refill is not None:
                    worker.stats.refills += 1
                    messages += 1
                    schedule(now + elapsed + cfg.transfer_latency, "carry", wid, refill)
                    continue
                if cfg.steal_from_loaded and p > 1:
                    # Poll the most heavily loaded worker (HPCAsia Sec. 3).
                    victim = max(workers, key=lambda w: len(w.pool))
                    if len(victim.pool) > 1:
                        stolen = victim.pool.pop_worst()
                        if stolen is not None:
                            worker.stats.steals += 1
                            messages += 2  # request + payload
                            schedule(
                                now + elapsed + 2 * cfg.transfer_latency,
                                "carry",
                                wid,
                                stolen,
                            )
                            continue
                worker.stats.finished_at = now + elapsed
                idle.add(wid)
                continue

            dt = cfg.expansion_cost(node.num_leaves, wid)
            worker.stats.busy_time += elapsed + dt
            worker.stats.nodes_expanded += 1
            done = now + elapsed + dt
            if record_trace:
                if elapsed > 0:
                    trace.append(
                        TraceInterval(wid, now, now + elapsed, "prune")
                    )
                trace.append(TraceInterval(wid, now + elapsed, done, "expand"))

            improved = False
            pruned_before = stats.nodes_pruned
            children, complete = core.expand(node, worker.ub - _EPS)
            worker.stats.nodes_pruned += stats.nodes_pruned - pruned_before
            for child in complete:
                if child.cost < worker.ub - _EPS:
                    worker.ub = child.cost
                    improved = True
                    if best is None or child.cost < best.cost - _EPS:
                        best = child
                    if child.cost < global_ub:
                        global_ub = child.cost
            for child in children:
                worker.pool.push(child.lower_bound, child)

            if improved and p > 1:
                broadcasts.append((done + cfg.ub_broadcast_latency, worker.ub))
                worker.stats.ub_broadcasts += 1
                messages += p - 1

            if (
                cfg.donate_when_global_empty
                and p > 1
                and len(gp) == 0
                and in_flight_to_gp == 0
                and len(worker.pool) > 1
            ):
                donated = worker.pool.pop_worst()
                if donated is not None:
                    worker.stats.donations += 1
                    messages += 1
                    in_flight_to_gp += 1
                    schedule(done + cfg.transfer_latency, "gp_arrival", 0, donated)

            schedule(done, "work", wid)

        # Final gather (Step 8): one message per worker.
        messages += p
        makespan += cfg.transfer_latency

        if best is None:
            tree = core.seed
            cost = global_ub
        else:
            tree = best.to_tree(core.labels)
            cost = best.cost

        return ParallelResult(
            tree=tree,
            cost=cost,
            makespan=makespan,
            setup_time=setup_time,
            total_nodes_expanded=stats.nodes_expanded,
            total_nodes_pruned=stats.nodes_pruned,
            messages=messages,
            workers=[w.stats for w in workers],
            initial_upper_bound=stats.initial_upper_bound,
            trace=trace,
        )
