"""The job scheduler: bounded queue + worker pool around ``construct_tree``.

Responsibilities, in the order a request meets them:

1. **Caching** -- admission reads the content-addressed
   :class:`~repro.service.cache.ResultCache` first, and a hit settles
   on the submitting thread before :meth:`Scheduler.submit` returns: no
   queue place, no worker, no process slot, so a repeated matrix is
   answered in microseconds however busy the workers are.  A queued
   job's worker reads the cache again before solving and stores the
   payload after.
2. **Admission control** -- the queue is bounded; a saturated scheduler
   raises the typed :class:`~repro.service.errors.QueueFull` immediately
   instead of blocking, so overload sheds work at the front door.
3. **Deduplication** -- a missed submission whose cache key matches a
   job that is already queued or running returns *that* job instead of
   enqueuing a copy; any number of callers share one execution and one
   result.
4. **Observability** -- every executed job runs inside a ``service.job``
   span on the shared :class:`repro.obs.Recorder`, with ``cache.hit`` /
   ``cache.miss`` / ``queue.rejected`` / ``queue.deduped`` counters in
   the same schema-v1 stream the engines already emit.
5. **Graceful shutdown** -- ``shutdown(drain=True)`` stops admissions,
   lets queued and running jobs finish, and joins every worker thread;
   ``drain=False`` cancels whatever has not started yet.

Execution is pluggable (``backend=``):

``"thread"``
    Jobs run on plain worker threads.  Cheapest per job; right for
    cache-heavy traffic and the numpy-release-the-GIL heuristics.
``"process"``
    Each worker thread owns a supervised worker *process*
    (:class:`repro.parallel.executor.WorkerSlot`) and ships the solve to
    it, so concurrent exact B&B solves -- pure-Python object
    manipulation that holds the GIL -- scale across cores.  The child
    re-materialises the matrix from plain floats (bit-exact transport),
    runs the same runner and returns the payload alone.  Its spans,
    metric operations and progress travel as ``telemetry`` messages
    (see :func:`_process_job_task`), the closing one sent even when the
    job fails; one parent function, ``_absorb_telemetry``, re-bases
    each onto the dispatch time, ingests the events, replays the metric
    operations and publishes the progress, so ``/metrics`` and JSONL
    traces are as complete as with threads, for failed jobs too.
    The payload's reported cost is re-verified against its Newick
    reconstruction to 1e-9 on receipt.  A worker process that dies
    mid-job settles the job as ``FAILED`` with a typed
    ``WorkerCrashed: ...`` message and the slot respawns; one that runs
    past the job's deadline is terminated (``TIMEOUT``) and respawned --
    never a silent hang, never a shrinking pool.  A ``multiprocess``
    job is the exception: a slot child is a daemonic process and may not
    start processes of its own, so that job's master runs on the worker
    thread, as on the thread backend, and starts its own supervised
    worker processes.

:func:`select_backend` picks ``"process"`` for exact methods (the GIL
is the bottleneck) and ``"thread"`` otherwise; the cache and recorder
stay parent-side in both backends, so N stateless replicas sharing one
on-disk cache directory behave identically.
"""

from __future__ import annotations

import functools
import queue as _queue
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.core.api import method_kind, starts_processes, ultrametric
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.metrics import (
    ForwardingMetricsRegistry,
    MetricsRegistry,
    as_metrics,
    metrics_context,
    replay_metric_ops,
)
from repro.obs.progress import ProgressTracker, progress_context
from repro.obs.recorder import (
    NullRecorder,
    Recorder,
    as_recorder,
    trace_context,
)
from repro.parallel.executor import (
    RemoteTaskError,
    WorkerCrashed,
    WorkerSlot,
    WorkerTimeout,
    emit_slot_telemetry,
)
from repro.service.cache import (
    ResultCache,
    cache_key,
    cached_solve,
    result_payload,
)
from repro.service.errors import QueueFull, SchedulerClosed
from repro.service.jobs import Job, JobState
from repro.tree.ultrametric import UltrametricTree

__all__ = [
    "BACKENDS",
    "Scheduler",
    "select_backend",
    "solve_payload",
]

#: Queue sentinel telling a worker thread to exit.
_STOP = object()

#: Execution backends the scheduler understands.
BACKENDS = ("thread", "process")

#: Tolerance for the on-receipt payload cost re-verification.
_RECEIPT_EPS = 1e-9

#: Terminal job state -> statistics bucket.
_STATE_STAT = {
    JobState.DONE: "completed",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
    JobState.TIMEOUT: "timed_out",
}


def select_backend(default_method: str) -> str:
    """The execution backend best suited to ``default_method``.

    Exact and bracket solvers are GIL-bound pure-Python search, so they
    get worker *processes*; heuristics are numpy-vectorised (release the
    GIL) and sub-millisecond, so thread dispatch wins on latency.
    """
    kind = method_kind(default_method)
    return "process" if kind in ("exact", "bracket") else "thread"


def solve_payload(
    matrix: DistanceMatrix,
    method: str = "compact",
    options: Optional[dict] = None,
    recorder: Optional[NullRecorder] = None,
) -> dict:
    """Run one construction and shape the JSON-serializable payload.

    This is the scheduler's default runner.  ``options`` are engine
    keyword arguments; the special key ``workers`` is lifted out into a
    :class:`ClusterConfig` for the parallel methods (``multiprocess``
    caps it at ``os.cpu_count()`` itself).
    """
    from repro.core.api import construct_tree
    from repro.parallel.config import ClusterConfig

    options = dict(options or {})
    workers = options.pop("workers", None)
    cluster = ClusterConfig(n_workers=int(workers)) if workers else None
    result = construct_tree(
        matrix, method, cluster=cluster, recorder=recorder, **options
    )
    return result_payload(result, matrix.n)


def _process_job_task(runner: Callable, task: tuple) -> dict:
    """Execute one job inside a worker process (the slot-side runner).

    ``task`` is the picklable tuple the parent ships: the matrix's
    frozen ``float64`` array and its labels (an array pickles as one
    buffer, bit-exactly, so the child's cache key and costs match the
    parent's), the method/options, the originating request's
    ``trace_id``, and whether to collect events.  Returns the payload.

    Telemetry goes to the parent as ``(events, metric_ops, progress)``
    bodies (:func:`~repro.parallel.executor.emit_slot_telemetry`), every
    timestamp relative to the task's start: the ``to_wire`` tuples of a
    fresh :class:`Recorder` (when collecting), the operations the job's
    ambient :class:`ForwardingMetricsRegistry` logged since the last
    body, and a ``time``-stamped progress snapshot or ``None``.
    Non-final progress reports go out as they fire, so the parent sees a
    long solve live; the events, the remaining operations and the final
    report travel in one closing body sent from a ``finally``, so it
    also arrives when the runner raises.
    """
    t0 = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - t0

    values, labels, method, options, trace_id, collect_events = task
    rec = Recorder(clock) if collect_events else None
    forward = ForwardingMetricsRegistry()
    final = [None]  # the tracker's closing report joins the closing body

    def sink(snapshot: dict) -> None:
        stamped = dict(snapshot, time=clock())
        if snapshot["final"]:
            final[0] = stamped
        else:
            emit_slot_telemetry(((), forward.drain_ops(), stamped))

    tracker = ProgressTracker(recorder=rec, sink=sink)
    try:
        with trace_context(trace_id), metrics_context(forward), progress_context(tracker):
            return runner(DistanceMatrix(values, labels), method, options, rec)
    finally:
        emit_slot_telemetry((
            [event.to_wire() for event in rec.events] if collect_events else (),
            forward.drain_ops(),
            final[0],
        ))


class Scheduler:
    """Bounded-queue worker pool executing tree-construction jobs.

    Parameters
    ----------
    workers:
        Worker-thread count.
    queue_size:
        Bound on *queued* (not yet running) jobs; beyond it
        :meth:`submit` raises :class:`QueueFull`.
    cache:
        A :class:`ResultCache`; a fresh in-memory cache of 256 entries
        is created when omitted.
    recorder:
        Shared :class:`repro.obs.Recorder` for spans and counters
        (defaults to the no-op recorder).
    metrics:
        :class:`repro.obs.metrics.MetricsRegistry` for the always-on
        aggregates -- ``service.job.seconds`` latency histogram,
        ``service.queue_wait.seconds`` histogram (submission to start),
        ``service.queue.depth`` / ``service.inflight`` gauges (computed
        at scrape time), cache and queue counters.  Defaults to the
        process-wide registry, so metrics are live even when tracing is
        off; pass :data:`repro.obs.metrics.NULL_METRICS` to disable.
    default_timeout:
        Deadline in seconds applied to jobs submitted without their own
        ``timeout``.  ``None`` means no deadline.
    runner:
        ``(matrix, method, options, recorder) -> payload`` callable; the
        default is :func:`solve_payload`.  Tests inject slow or failing
        runners here.  With ``backend="process"`` the runner executes in
        the worker *process*; under the ``spawn`` start method it must
        therefore be picklable (the default is).
    max_jobs_retained:
        Finished jobs kept for ``GET /jobs/<id>`` lookups; the oldest
        finished jobs are forgotten beyond this bound.
    backend:
        ``"thread"`` (default) or ``"process"`` -- see the module
        docstring.  :func:`select_backend` maps a serving method to the
        right one.
    start_method:
        Forces a :mod:`multiprocessing` start method for the process
        backend (``"fork"``/``"spawn"``/``"forkserver"``); the
        platform's cheapest is used when omitted.  Ignored by the
        thread backend.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        queue_size: int = 64,
        cache: Optional[ResultCache] = None,
        recorder: Optional[NullRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_timeout: Optional[float] = None,
        runner: Optional[Callable] = None,
        max_jobs_retained: int = 1024,
        backend: str = "thread",
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if queue_size < 1:
            raise ValueError(f"queue size must be >= 1, got {queue_size}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self.backend = backend
        self.cache = cache if cache is not None else ResultCache()
        self.recorder = as_recorder(recorder)
        self.metrics = as_metrics(metrics)
        self.default_timeout = default_timeout
        self.queue_size = queue_size
        self._runner = runner or solve_payload
        self._queue: "_queue.Queue" = _queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._inflight: Dict[str, Job] = {}
        self._max_jobs_retained = max_jobs_retained
        self._closed = False
        self._abandon = False
        self._next_job = 1
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "timed_out": 0,
            "rejected": 0,
            "deduped": 0,
        }
        m = self.metrics
        self._m_job_seconds = m.histogram(
            "service.job.seconds",
            "End-to-end job execution latency, per method and cache outcome.",
            labelnames=("method", "cache"),
        )
        self._m_queue_wait = m.histogram(
            "service.queue_wait.seconds",
            "Time a job waited between submission and a worker starting it.",
            labelnames=("method",),
        )
        self._m_rejected = m.counter(
            "queue.rejected", "Submissions shed by queue admission control."
        )
        self._m_deduped = m.counter(
            "queue.deduped", "Submissions merged into an in-flight job."
        )
        self._m_jobs = m.counter(
            "service.jobs", "Jobs settled, by terminal state.",
            labelnames=("state",),
        )
        self._m_worker_errors = m.counter(
            "service.worker.errors",
            "Jobs settled by the worker loop's last-resort isolation "
            "(an exception escaped normal job execution).",
        )
        self._m_crashes = m.counter(
            "service.workers.crashed",
            "Worker processes that died mid-job (slot respawned).",
        )
        # Progress gauges are set from forwarded worker snapshots (the
        # forwarding registry deliberately does not forward gauges) and,
        # on the thread backend, by the job's own ProgressTracker.
        self._m_bnb_gap = m.gauge(
            "bnb.gap",
            "Relative incumbent/lower-bound gap of the current "
            "branch-and-bound search",
        )
        self._m_bnb_nps = m.gauge(
            "bnb.nodes_per_second",
            "Node-expansion rate of the current branch-and-bound search",
        )
        # Scrape-time gauges can never go stale; the last-constructed
        # scheduler on a shared registry owns them, which matches the
        # one-scheduler-per-process serving reality.
        m.gauge(
            "service.queue.depth", "Jobs queued but not yet running."
        ).set_function(self._queue.qsize)
        m.gauge(
            "service.inflight", "Jobs queued or running (dedup map size)."
        ).set_function(lambda: len(self._inflight))
        # Only *live* workers count as capacity: a crashed worker must
        # show up as lost capacity, not padding in the workers gauge.
        m.gauge(
            "service.workers",
            "Live workers serving the job queue (dead ones excluded).",
        ).set_function(self._live_worker_count)
        m.gauge(
            "service.workers.dead",
            "Workers lost to crashes and not yet replaced (0 once the "
            "scheduler is deliberately shut down).",
        ).set_function(self._dead_worker_count)
        m.gauge(
            "service.workers.respawns",
            "Worker-process slots respawned after a crash or a "
            "deadline termination.",
        ).set_function(
            lambda: sum(slot.respawns for slot in self._slots.values())
        )
        self._slots: Dict[int, WorkerSlot] = {}
        if backend == "process":
            slot_runner = functools.partial(_process_job_task, self._runner)
            for i in range(workers):
                self._slots[i] = WorkerSlot(
                    i,
                    slot_runner,
                    start_method=start_method,
                ).start()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"repro-svc-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    def _live_worker_count(self) -> int:
        """Workers actually able to take jobs (dead threads excluded)."""
        return sum(1 for thread in self._workers if thread.is_alive())

    def _dead_worker_count(self) -> int:
        """Crash-induced capacity loss (0 after a deliberate shutdown)."""
        if self._closed:
            return 0
        return len(self._workers) - self._live_worker_count()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: DistanceMatrix,
        method: str = "compact",
        options: Optional[dict] = None,
        *,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
        verify: bool = False,
    ) -> Job:
        """Run or queue one construction; returns a :class:`Job` handle.

        Raises :class:`SchedulerClosed` after shutdown began.  A cached
        result is served here, on the calling thread: the job settles
        ``done`` with cache status ``hit`` before this returns, taking
        no queue place, worker or process slot, and with ``verify`` the
        oracles run on this thread too.  So a hit is never deduplicated
        and never refused for a full queue.

        A miss queues, and :class:`QueueFull` is raised when the bounded
        queue is saturated.  A missed submission identical (same cache
        key *and* same ``verify`` flag) to a queued or running job
        returns that job -- note the shared job keeps the *first*
        submission's deadline and the first submission's ``trace_id``
        (the events it causes can only carry one id).  ``verify`` does
        not change the cache key (the solved payload is identical either
        way); it only asks for the result oracles to run on whatever the
        cache or engine produced.

        Every accepted submission counts exactly one ``cache.hit``,
        ``cache.miss`` or ``queue.deduped``: the read here counts only a
        hit, and a queued job's worker reads the cache again (another
        job may have stored the result meanwhile) and counts that.
        """
        options = dict(options or {})
        key = cache_key(matrix, method, options)
        if timeout is None:
            timeout = self.default_timeout
        if self._closed:  # a hit needs no worker, but draining admits nothing
            raise SchedulerClosed()
        rec = self.recorder
        with trace_context(trace_id), rec.detached():
            cached, _ = cached_solve(
                self.cache, key, None, recorder=rec, metrics=self.metrics
            )
        with self._lock:
            if cached is None:
                if self._closed:
                    raise SchedulerClosed()
                existing = self._inflight.get((key, verify))
                if existing is not None and not existing.done:
                    self._stats["deduped"] += 1
                    rec.counter("queue.deduped", key=key[:12])
                    self._m_deduped.inc()
                    return existing
            job = Job(
                f"job-{self._next_job}", key, matrix, method, options,
                timeout, trace_id, verify,
            )
            self._next_job += 1
            if cached is None:
                try:
                    self._queue.put_nowait(job)
                except _queue.Full:
                    self._stats["rejected"] += 1
                    rec.counter("queue.rejected", key=key[:12])
                    self._m_rejected.inc()
                    raise QueueFull(self.queue_size) from None
                self._inflight[(key, verify)] = job
            self._stats["submitted"] += 1
            self._jobs[job.id] = job
        if cached is not None:
            with rec.detached():
                self._execute_isolated(job, cached=cached)
        return job

    def solve(
        self,
        matrix: DistanceMatrix,
        method: str = "compact",
        options: Optional[dict] = None,
        *,
        timeout: Optional[float] = None,
    ) -> dict:
        """Submit and block for the payload (convenience wrapper)."""
        return self.submit(matrix, method, options).result(timeout)

    def job(self, job_id: str) -> Optional[Job]:
        """Look up a job by id (``None`` when unknown or pruned)."""
        with self._lock:
            return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        slot = self._slots.get(index)
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            try:
                self._execute_isolated(item, slot)
            finally:
                self._queue.task_done()

    def _execute_isolated(
        self,
        job: Job,
        slot: Optional[WorkerSlot] = None,
        cached: Optional[dict] = None,
    ) -> None:
        """:meth:`_execute`, then last-resort isolation: nothing may
        escape past this point.  On a worker, an exception that killed
        the thread would silently shrink the pool (and with it the
        service's capacity) forever; on an admitting thread, it would
        leave a job that never settles.  Settle the job as FAILED and
        keep serving."""
        try:
            self._execute(job, slot, cached)
        except Exception as exc:  # noqa: BLE001 - last-resort isolation
            self._settle_crashed(job, exc)

    def _settle_crashed(self, job: Job, exc: BaseException) -> None:
        """Settle a job whose execution path itself blew up (e.g. a
        recorder raising inside span exit, *after* ``_execute``'s own
        error handling already passed)."""
        self._m_worker_errors.inc()
        try:
            job._finish(
                JobState.FAILED,
                error=(
                    "internal scheduler error: "
                    f"{type(exc).__name__}: {exc}"
                ),
            )
            self._settle(job, _STATE_STAT.get(job.state, "failed"))
        except Exception:  # noqa: BLE001 - never kill the worker thread
            pass

    def _execute(
        self,
        job: Job,
        slot: Optional[WorkerSlot] = None,
        cached: Optional[dict] = None,
    ) -> None:
        """Run ``job`` to a terminal state and settle it.

        ``cached`` is the payload :meth:`submit` already read (and
        counted) for a hit; the job then settles on it without a second
        read and without running an engine.  Otherwise the cache is read
        here and a miss solves -- in ``slot``'s worker process when
        there is one.
        """
        rec = self.recorder
        if self._abandon:
            job._finish(
                JobState.CANCELLED, error="scheduler shut down before start"
            )
            self._settle(job, "cancelled")
            return
        if job._expired():
            job._finish(
                JobState.TIMEOUT,
                error=f"deadline of {job.timeout:g}s passed while queued",
            )
            self._settle(job, "timed_out")
            return
        if not job._mark_running():
            # Cancelled, or self-expired via ``Job.expire_if_queued``,
            # while queued; reconcile statistics for whichever it was.
            self._settle(job, _STATE_STAT.get(job.state, "cancelled"))
            return
        self._m_queue_wait.observe(
            max(0.0, job.started_at - job.submitted_at), method=job.method
        )
        cache_status = "error"
        t0 = time.perf_counter()
        try:
            with trace_context(job.trace_id), rec.span(
                "service.job",
                job=job.id,
                method=job.method,
                n=job.matrix.n,
                key=job.key[:12],
                backend=self.backend,
            ):
                tree = None  # the payload's tree, once something parsed it

                def solve() -> dict:
                    nonlocal tree
                    if slot is not None and not starts_processes(job.method):
                        payload = self._run_in_slot(slot, job, rec)
                        tree = self._verify_receipt(job, payload)
                        return payload
                    tracker = ProgressTracker(
                        recorder=rec,
                        metrics=self.metrics,
                        sink=functools.partial(self._publish_progress, job),
                    )
                    with progress_context(tracker), metrics_context(self.metrics):
                        return self._runner(
                            job.matrix, job.method, job.options, rec
                        )

                if cached is not None:
                    payload, hit = cached, True
                else:
                    payload, hit = cached_solve(
                        self.cache, job.key, solve,
                        recorder=rec, metrics=self.metrics,
                    )
                cache_status = "hit" if hit else "miss"
                if job.verify:
                    job.verification = self._verify_payload(
                        job, payload, tree
                    )
        except WorkerTimeout as exc:
            rec.counter("job.timeout", job=job.id)
            self._observe_job(job, "error", t0)
            job._finish(
                JobState.TIMEOUT,
                error=(
                    f"deadline of {job.timeout:g}s passed while running; "
                    f"{exc}"
                ),
            )
            self._settle(job, "timed_out")
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            rec.counter("job.failed", job=job.id)
            self._observe_job(job, "error", t0)
            if isinstance(exc, RemoteTaskError):
                # The child already formatted its traceback; surface the
                # original exception type and message, not the wrapper's
                # multi-line transport representation.
                error = f"{exc.exc_type}: {exc.message}"
            else:
                error = f"{type(exc).__name__}: {exc}"
            job._finish(JobState.FAILED, error=error)
            self._settle(job, "failed")
            return
        self._observe_job(job, cache_status, t0)
        if job._expired():
            # The result is cached for future callers, but this caller's
            # deadline has passed; report the timeout honestly.
            job._finish(
                JobState.TIMEOUT,
                error=f"deadline of {job.timeout:g}s passed while running",
                cache_status=cache_status,
            )
            self._settle(job, "timed_out")
            return
        job._finish(JobState.DONE, payload=payload, cache_status=cache_status)
        self._settle(job, "completed")

    def _run_in_slot(
        self, slot: WorkerSlot, job: Job, rec: NullRecorder
    ) -> dict:
        """Ship one solve to the worker process and return its payload.

        Raises :class:`WorkerCrashed` / :class:`WorkerTimeout` /
        :class:`RemoteTaskError` (the caller maps them onto job states).
        The child's telemetry goes to :meth:`_absorb_telemetry` as it
        arrives, anchored at the dispatch time -- the earliest
        parent-side instant the child could have started.
        """
        task = (
            job.matrix.values,
            list(job.matrix.labels),
            job.method,
            dict(job.options),
            job.trace_id,
            rec.enabled,
        )
        absorb = functools.partial(self._absorb_telemetry, job, rec.clock())
        try:
            return slot.call(task, deadline=job.deadline, on_telemetry=absorb)
        except WorkerCrashed:
            rec.counter("worker.crashed", worker=slot.worker_id)
            self._m_crashes.inc()
            raise

    def _absorb_telemetry(self, job: Job, anchor: float, body: tuple) -> None:
        """Land one telemetry body from a slot child (see
        :func:`_process_job_task`), mid-solve or closing.

        The one place child timestamps are re-based: ``anchor`` (the
        dispatch time) is added to every event and to the progress
        ``time``.  Runs on the job's worker thread inside its
        ``service.job`` span, so ingested root events nest under it.
        The progress snapshot also sets the ``bnb.*`` gauges here -- the
        forwarding registry never forwards gauges.
        """
        events, metric_ops, progress = body
        self.recorder.ingest(events, offset=anchor)
        replay_metric_ops(self.metrics, metric_ops)
        if progress is None:
            return
        self._set_progress(job, progress, anchor + progress["time"])
        if progress["gap"] is not None:
            self._m_bnb_gap.set(progress["gap"])
        self._m_bnb_nps.set(progress["nodes_per_second"])

    def _publish_progress(self, job: Job, snapshot: dict) -> None:
        """Thread-backend progress sink: latest snapshot onto the job."""
        self._set_progress(job, snapshot, self.recorder.clock())

    @staticmethod
    def _set_progress(job: Job, snapshot: dict, at: float) -> None:
        """``job.progress`` is ``snapshot`` stamped with the parent-clock
        ``time`` and the job's trace id."""
        snap = dict(snapshot, time=at)
        if job.trace_id is not None:
            snap["trace_id"] = job.trace_id
        job.progress = snap

    def _verify_receipt(
        self, job: Job, payload: dict
    ) -> Optional[UltrametricTree]:
        """Prove a process-transported payload before accepting it.

        The reported cost must match the cost recomputed from the
        payload's own Newick string to 1e-9 -- a corrupted or truncated
        transport therefore fails the job instead of poisoning the
        cache.  Only meaningful for the default runner's payload shape
        (test runners ship arbitrary dicts) and skipped for ``nj``
        (additive trees have no ultrametric cost to recompute).
        Returns the parsed tree, so verification need not parse the
        same text again, or ``None`` when the check was skipped.
        """
        if self._runner is not solve_payload or not ultrametric(job.method):
            return None
        newick = payload.get("newick")
        cost = payload.get("cost")
        if newick is None or cost is None:
            return None
        from repro.tree.newick import parse_newick

        tree = parse_newick(newick)
        recomputed = tree.cost()
        if abs(recomputed - float(cost)) > _RECEIPT_EPS:
            raise RuntimeError(
                f"worker payload failed receipt verification: reported "
                f"cost {cost!r} but its newick reconstructs to "
                f"{recomputed!r} (|delta| > {_RECEIPT_EPS:g})"
            )
        return tree

    def _verify_payload(
        self,
        job: Job,
        payload: dict,
        tree: Optional[UltrametricTree] = None,
    ) -> dict:
        """Run the result oracles on a solved (or cached) payload.

        The tree is reconstructed from the payload's Newick string --
        deliberately: the oracles then cover exactly what a client
        receives, including cache corruption and serialization drift.
        ``tree`` is that reconstruction when the receipt check already
        parsed this payload's Newick; a cache hit always parses afresh.
        Each oracle runs inside a ``verify.oracle`` span on the shared
        recorder and every violation bumps the
        ``verify.violations{oracle}`` metric.  Verification never fails
        the job; the findings ride along in the job record.
        """
        from repro.tree.newick import parse_newick
        from repro.verify.oracles import ORACLE_NAMES, run_oracles

        if not ultrametric(job.method):
            return {
                "skipped": "nj trees are additive; the ultrametric "
                           "oracles do not apply",
            }
        if tree is None:
            tree = parse_newick(payload["newick"])
        violations = run_oracles(
            tree,
            job.matrix,
            reported_cost=payload.get("cost"),
            method=job.method,
            recorder=self.recorder,
            metrics=self.metrics,
        )
        return {
            "ok": not violations,
            "oracles": list(ORACLE_NAMES),
            "violations": [v.to_json() for v in violations],
        }

    def _observe_job(self, job: Job, cache_status: str, t0: float) -> None:
        self._m_job_seconds.observe(
            time.perf_counter() - t0, method=job.method, cache=cache_status
        )

    def _settle(self, job: Job, stat: str) -> None:
        """Post-terminal bookkeeping: statistics, dedup map, retention.

        Idempotent per job: a job can reach a terminal state through
        more than one path (e.g. ``Job.expire_if_queued`` at the
        deadline *and* the worker dequeuing it later), but it must be
        counted exactly once."""
        with self._lock:
            if job._settled:
                return
            job._settled = True
            self._stats[stat] += 1
            if self._inflight.get((job.key, job.verify)) is job:
                del self._inflight[(job.key, job.verify)]
            self._finished_order.append(job.id)
            while len(self._finished_order) > self._max_jobs_retained:
                stale = self._finished_order.pop(0)
                self._jobs.pop(stale, None)
        self._m_jobs.inc(state=stat)

    # ------------------------------------------------------------------
    # introspection and shutdown
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Snapshot for the ``/stats`` endpoint."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot.update(
                backend=self.backend,
                workers=len(self._workers),
                workers_live=self._live_worker_count(),
                workers_dead=self._dead_worker_count(),
                queue_size=self.queue_size,
                queue_depth=self._queue.qsize(),
                inflight=len(self._inflight),
                closed=self._closed,
            )
            if self._slots:
                snapshot["worker_pids"] = {
                    str(i): slot.pid
                    for i, slot in sorted(self._slots.items())
                }
                snapshot["worker_respawns"] = sum(
                    slot.respawns for slot in self._slots.values()
                )
        snapshot["cache"] = self.cache.stats()
        snapshot["metrics"] = self.metrics.snapshot()
        return snapshot

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop the scheduler; returns whether every worker exited.

        ``drain=True`` (the default) finishes all queued and running
        jobs first.  ``drain=False`` cancels jobs that have not started;
        the currently running ones still run to completion (threads
        cannot be killed safely).  ``timeout`` bounds the join of each
        worker thread.  Idempotent.
        """
        with self._lock:
            first_call = not self._closed
            self._closed = True
        if first_call:
            if not drain:
                self._abandon = True
                with self._lock:
                    pending = [
                        job for job in self._jobs.values()
                        if job.state == JobState.PENDING
                    ]
                for job in pending:
                    job.cancel()
            for _ in self._workers:
                self._queue.put(_STOP)
        clean = True
        for thread in self._workers:
            thread.join(timeout)
            clean = clean and not thread.is_alive()
        for slot in self._slots.values():
            clean = slot.stop() and clean
        return clean

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
