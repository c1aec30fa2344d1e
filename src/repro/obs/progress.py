"""Live search-progress telemetry for the B&B inner loop.

A long exact solve is a black box between "submitted" and "done": spans
and counters only land after the search settles.  :class:`ProgressTracker`
turns the branch-and-bound loop into a telemetry *stream* -- periodic
snapshots of the incumbent/bound convergence, the shape production MIP
solvers log as the "gap" trace:

``{incumbent_cost, best_lower_bound, gap, nodes_expanded, nodes_created,
open_size, elapsed}``

Design constraints, mirroring the recorder's:

1. **Zero-cost when off.**  The solver guards every tick behind
   ``if tracker is not None``; with no tracker installed the hot loop
   allocates nothing and calls nothing.
2. **Throttled when on.**  ``tick()`` fires a report only when the
   reporting interval has elapsed *or* the incumbent improved by more
   than ``min_delta`` -- the expensive work (the open-list lower-bound
   scan, the event/gauge emission) happens only on firing reports.
3. **Deterministic when tested.**  The clock is injectable, so the
   gating behaviour is reproducible in tests.

Snapshots ride the existing schema-v1 trace stream as ``bnb.progress``
*counter* events (value 1, snapshot in ``attrs``) -- so they flow through
the :class:`~repro.obs.streaming.StreamingRecorder`, cross-process
``ingest``, and trace-id filtering with zero reader changes, and
``counter_totals["bnb.progress"]`` is simply the heartbeat count.  Firing
reports also update the ``bnb.gap`` / ``bnb.nodes_per_second`` gauges and
invoke an optional ``sink`` callback (how worker processes stream
snapshots to the parent mid-``call()``).

The tracker reaches the solver ambiently through
:func:`progress_context`, mirroring ``trace_context``, so
``construct_tree`` and the service scheduler need no signature churn.

A job that runs many solves (the compact-set pipeline solves one reduced
matrix per hierarchy node) stays one stream: it binds
:meth:`ProgressTracker.subsolves` around them, whose ``final`` folds a
sub-solve's counters into the job's totals instead of closing the
stream, and issues the job's single closing :meth:`ProgressTracker.final`
itself.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "ProgressTracker",
    "SubsolveProgress",
    "progress_context",
    "current_progress",
    "format_progress_line",
]

#: The ambient progress tracker.  A ``contextvars`` var so each scheduler
#: worker thread sees the tracker of the job it is executing, with zero
#: signature churn in ``construct_tree`` / the engines.
_PROGRESS: "contextvars.ContextVar[Optional[ProgressTracker]]" = (
    contextvars.ContextVar("repro_progress", default=None)
)


def current_progress() -> Optional["ProgressTracker"]:
    """The tracker of the enclosing :func:`progress_context`, or ``None``."""
    return _PROGRESS.get()


@contextmanager
def progress_context(
    tracker: Optional["ProgressTracker"],
) -> Iterator[Optional["ProgressTracker"]]:
    """Bind ``tracker`` as the ambient progress sink for the block.

    Every :class:`~repro.bnb.sequential.BranchAndBoundSolver` solve inside
    the block drives the tracker from its inner loop.  ``None`` is a
    no-op, so call sites can pass an optional tracker unconditionally.
    """
    if tracker is None:
        yield None
        return
    token = _PROGRESS.set(tracker)
    try:
        yield tracker
    finally:
        _PROGRESS.reset(token)


def format_progress_line(snapshot: Dict[str, object]) -> str:
    """One human-readable line for a snapshot (``--progress`` / ``watch``)."""
    incumbent = snapshot.get("incumbent_cost")
    lb = snapshot.get("best_lower_bound")
    gap = snapshot.get("gap")
    expanded = snapshot.get("nodes_expanded", 0)
    nps = snapshot.get("nodes_per_second")
    elapsed = snapshot.get("elapsed", 0.0)
    inc_text = "inf" if incumbent is None else f"{float(incumbent):.6g}"
    lb_text = "-inf" if lb is None else f"{float(lb):.6g}"
    gap_text = "?" if gap is None else f"{100.0 * float(gap):.2f}%"
    if nps is None:
        elapsed_f = float(elapsed or 0.0)
        nps = float(expanded) / elapsed_f if elapsed_f > 0 else 0.0
    return (
        f"[bnb] incumbent={inc_text} bound={lb_text} gap={gap_text} "
        f"expanded={int(expanded)} open={int(snapshot.get('open_size', 0))} "
        f"{float(nps):,.0f} nodes/s elapsed={float(elapsed):.2f}s"
    )


class ProgressTracker:
    """Throttled incumbent/bound snapshot stream for one B&B solve.

    The solver calls :meth:`tick` once per loop iteration (cheap: one
    clock read and two comparisons when gated closed) and :meth:`final`
    once when the search settles (always fires, so every tracked solve
    yields at least one snapshot).  A tracker is single-job state;
    create a fresh one per job.  A job of several solves drives it
    through :meth:`subsolves` and closes it with one :meth:`final`.

    Parameters
    ----------
    interval_seconds:
        Minimum seconds between interval-triggered reports.
    min_delta:
        An incumbent improvement larger than this fires a report
        immediately, regardless of the interval.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder`; firing reports
        emit ``bnb.progress`` counter events (value 1, snapshot attrs).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; firing
        reports set the ``bnb.gap`` and ``bnb.nodes_per_second`` gauges.
    sink:
        Optional callable receiving each snapshot dict (the worker
        process's bridge to the parent; the CLI's stderr printer).
    clock:
        Injectable time source (default ``time.perf_counter``).
    """

    __slots__ = (
        "interval_seconds",
        "min_delta",
        "recorder",
        "sink",
        "clock",
        "latest",
        "reports",
        "_gap_gauge",
        "_nps_gauge",
        "_t0",
        "_next_report",
        "_last_incumbent",
        "_best_lb",
    )

    def __init__(
        self,
        *,
        interval_seconds: float = 0.25,
        min_delta: float = 0.0,
        recorder=None,
        metrics=None,
        sink: Optional[Callable[[Dict[str, object]], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval_seconds < 0:
            raise ValueError("interval_seconds must be >= 0")
        self.interval_seconds = float(interval_seconds)
        self.min_delta = float(min_delta)
        self.recorder = recorder
        self.sink = sink
        self.clock = clock
        self.latest: Optional[Dict[str, object]] = None
        self.reports = 0
        if metrics is not None and getattr(metrics, "enabled", False):
            self._gap_gauge = metrics.gauge(
                "bnb.gap",
                "Relative incumbent/lower-bound gap of the current "
                "branch-and-bound search",
            )
            self._nps_gauge = metrics.gauge(
                "bnb.nodes_per_second",
                "Node-expansion rate of the current branch-and-bound search",
            )
        else:
            self._gap_gauge = None
            self._nps_gauge = None
        self._t0: Optional[float] = None
        self._next_report = -math.inf
        self._last_incumbent = math.inf
        self._best_lb = -math.inf

    # ------------------------------------------------------------------
    # driving (solver side)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Anchor the solve clock.  Idempotent; ``tick`` calls it lazily."""
        if self._t0 is None:
            self._t0 = self.clock()
            self._next_report = self._t0 + self.interval_seconds

    def tick(self, incumbent: float, stats, open_nodes) -> None:
        """One inner-loop heartbeat; reports only when a gate opens.

        ``stats`` is the solver's ``SearchStats`` (read for
        ``nodes_expanded`` / ``nodes_created``); ``open_nodes`` the live
        open list, scanned for the best lower bound *only* when a report
        actually fires.
        """
        if self._t0 is None:
            self.start()
        now = self.clock()
        # Gate closed while the interval hasn't elapsed and the incumbent
        # hasn't improved by more than min_delta (>=: an unchanged
        # incumbent never fires on the delta gate).
        if (
            now < self._next_report
            and incumbent >= self._last_incumbent - self.min_delta
        ):
            return
        self._report(incumbent, stats, open_nodes, now, final=False)

    def final(self, incumbent: float, stats, open_nodes=()) -> None:
        """Unconditional closing report; guarantees >= 1 snapshot.

        With an empty ``open_nodes`` (search exhausted or pruned dry) the
        lower bound closes onto the incumbent and the gap reads 0.
        """
        if self._t0 is None:
            self.start()
        self._report(incumbent, stats, open_nodes, self.clock(), final=True)

    def subsolves(self) -> "SubsolveProgress":
        """A view of this tracker for the solves inside one job."""
        return SubsolveProgress(self)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _report(
        self, incumbent: float, stats, open_nodes, now: float, *, final: bool
    ) -> None:
        self._next_report = now + self.interval_seconds
        self._last_incumbent = incumbent
        elapsed = now - self._t0
        # The global lower bound is the weakest open node's; scanned only
        # here (a firing report), never per tick.  Clamped monotone
        # non-decreasing and never above the incumbent.
        if open_nodes:
            lb = min(node.lower_bound for node in open_nodes)
        elif final:
            lb = incumbent
        else:
            lb = self._best_lb
        if lb > self._best_lb:
            self._best_lb = lb
        lb = min(self._best_lb, incumbent)
        if math.isinf(incumbent):
            gap = math.inf if math.isinf(lb) else 1.0
        elif math.isinf(lb):
            gap = 1.0
        else:
            denom = abs(incumbent)
            gap = max(0.0, incumbent - lb) / denom if denom > 0 else 0.0
        expanded = int(getattr(stats, "nodes_expanded", 0))
        nps = expanded / elapsed if elapsed > 0 else 0.0
        snapshot: Dict[str, object] = {
            "incumbent_cost": None if math.isinf(incumbent) else incumbent,
            "best_lower_bound": None if math.isinf(lb) else lb,
            "gap": None if math.isinf(gap) else gap,
            "nodes_expanded": expanded,
            "nodes_created": int(getattr(stats, "nodes_created", 0)),
            "open_size": len(open_nodes),
            "elapsed": elapsed,
            "nodes_per_second": nps,
            "final": final,
        }
        self.latest = snapshot
        self.reports += 1
        if self.recorder is not None and getattr(
            self.recorder, "enabled", False
        ):
            self.recorder.counter("bnb.progress", 1, **snapshot)
        if self._gap_gauge is not None and snapshot["gap"] is not None:
            self._gap_gauge.set(snapshot["gap"])
        if self._nps_gauge is not None:
            self._nps_gauge.set(nps)
        if self.sink is not None:
            self.sink(snapshot)


class _Counts:
    """The two counters a report reads, summed over sub-solves."""

    __slots__ = ("nodes_expanded", "nodes_created")

    def __init__(self, nodes_expanded: int = 0, nodes_created: int = 0):
        self.nodes_expanded = nodes_expanded
        self.nodes_created = nodes_created


class SubsolveProgress:
    """A job's tracker as each solve inside a multi-solve job drives it.

    Bind it (via :func:`progress_context`) around the solves; the solver
    drives it exactly like a :class:`ProgressTracker`:

    * :meth:`tick` reports only when the job tracker's interval gate is
      open.  The incumbent-delta gate is skipped: each sub-solve has its
      own matrix, so a cheaper incumbent than the last sub-solve's is no
      improvement.
    * Reports carry counters summed over the finished sub-solves plus the
      running one; incumbent and lower bound are the running sub-solve's.
    * :meth:`final` never closes the stream.  It adds the finished
      sub-solve's counters to the totals; the job's owner issues the one
      closing ``final`` on the tracker itself.

    Thread-safe for sub-solves that run concurrently.
    """

    __slots__ = ("tracker", "_done", "_lock")

    def __init__(self, tracker: ProgressTracker) -> None:
        self.tracker = tracker
        self._done = _Counts()
        self._lock = threading.Lock()

    def start(self) -> None:
        """Anchor the job clock; a new sub-solve's lower bound starts
        fresh (its matrix is not the last sub-solve's)."""
        self.tracker.start()
        self.tracker._best_lb = -math.inf

    def tick(self, incumbent: float, stats, open_nodes) -> None:
        tracker = self.tracker
        if tracker._t0 is None:
            tracker.start()
        now = tracker.clock()
        if now < tracker._next_report:
            return
        done = self._done
        totals = _Counts(
            done.nodes_expanded + stats.nodes_expanded,
            done.nodes_created + stats.nodes_created,
        )
        tracker._report(incumbent, totals, open_nodes, now, final=False)

    def final(self, incumbent: float, stats, open_nodes=()) -> None:
        """Fold a finished sub-solve into the totals; reports nothing."""
        with self._lock:
            self._done.nodes_expanded += stats.nodes_expanded
            self._done.nodes_created += stats.nodes_created
