"""Reusable worker-process lifecycle and supervision primitives.

Two execution shapes in this repository put jobs into child processes,
and both need the same hard guarantees -- a dead or wedged process is
*detected*, reported with a typed error, and never hangs the parent:

* the **one-shot scatter/gather** of :func:`repro.parallel.multiprocess.
  multiprocess_mut` (spawn ``p`` workers, each solves one share of the
  frontier, collect one message per worker) -- served here by
  :func:`gather_one_per_worker`, extracted from that module's original
  ``_gather_results``;
* the **long-lived pool** of the serving layer's process backend (a
  fixed set of worker processes each executing a stream of jobs) --
  served by :class:`WorkerSlot`, a single supervised, respawnable
  worker process.

Failure taxonomy (all :class:`RuntimeError` subclasses, so existing
"supervision raises RuntimeError" contracts keep holding):

:class:`RemoteTaskError`
    The task itself raised in the child; the formatted traceback crossed
    the process boundary and is preserved.  The worker is healthy.
:class:`WorkerCrashed`
    The worker process died (signal, OOM kill, interpreter abort)
    without reporting.  A :class:`WorkerSlot` respawns itself before
    raising, so the slot is immediately usable again.
:class:`WorkerTimeout`
    The caller's deadline passed while the child was still computing.
    The child is *terminated* (its work is unwanted) and the slot
    respawned -- a wedged process cannot hold a slot hostage.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_lib
import time
import traceback
from typing import Callable, Dict, List, Optional

__all__ = [
    "RemoteTaskError",
    "WorkerCrashed",
    "WorkerTimeout",
    "WorkerSlot",
    "emit_slot_progress",
    "gather_one_per_worker",
]

#: Seconds between liveness checks while a parent waits on a child.
DEFAULT_POLL_TIMEOUT = 0.25
#: Seconds an idle slot child waits for a task before checking that
#: its parent is still alive.
ORPHAN_POLL_SECONDS = 0.5
#: Consecutive empty polls tolerated after a worker exited cleanly (exit
#: code 0) without its result arriving, before the parent gives up.
#: Covers the short window in which a finished worker's queue feeder
#: thread has written the payload but the pipe is not yet readable.
DEFAULT_LOST_RESULT_GRACE = 20


class RemoteTaskError(RuntimeError):
    """A task raised inside a worker process.

    ``exc_type`` is the original exception class name and ``message``
    its ``str()``; ``remote_traceback`` carries the formatted child-side
    traceback for logs.  ``str(err)`` keeps the historical
    ``"<what> <id> raised:\\n<traceback>"`` shape.
    """

    def __init__(
        self,
        worker_id: int,
        remote_traceback: str,
        *,
        exc_type: str = "Exception",
        message: str = "",
        what: str = "worker",
    ) -> None:
        super().__init__(f"{what} {worker_id} raised:\n{remote_traceback}")
        self.worker_id = worker_id
        self.exc_type = exc_type
        self.message = message
        self.remote_traceback = remote_traceback


class WorkerCrashed(RuntimeError):
    """A worker process died without reporting a result."""

    def __init__(
        self,
        worker_id: int,
        pid: Optional[int],
        exitcode: Optional[int],
        *,
        what: str = "worker",
        detail: str = "before reporting a result",
    ) -> None:
        code = exitcode if exitcode is not None else "unknown"
        super().__init__(
            f"{what} {worker_id} (pid {pid}) died with exit code {code} "
            f"{detail}"
        )
        self.worker_id = worker_id
        self.pid = pid
        self.exitcode = exitcode


class WorkerTimeout(RuntimeError):
    """A deadline passed while a worker process was still computing."""

    def __init__(
        self, worker_id: int, pid: Optional[int], overrun: float,
        *, what: str = "worker",
    ) -> None:
        super().__init__(
            f"{what} {worker_id} (pid {pid}) was terminated "
            f"{overrun:.3f}s past its job's deadline"
        )
        self.worker_id = worker_id
        self.pid = pid
        self.overrun = overrun


# ----------------------------------------------------------------------
# one-shot scatter/gather supervision (extracted from multiprocess.py)
# ----------------------------------------------------------------------
def gather_one_per_worker(
    processes: Dict[int, "multiprocessing.process.BaseProcess"],
    result_queue,
    *,
    arrivals: Optional[Dict[int, float]] = None,
    clock: Optional[Callable[[], float]] = None,
    poll_timeout: float = DEFAULT_POLL_TIMEOUT,
    lost_result_grace: int = DEFAULT_LOST_RESULT_GRACE,
    what: str = "worker",
    on_progress: Optional[Callable] = None,
) -> List[tuple]:
    """Collect one message per worker, supervising worker liveness.

    Messages are ``(kind, worker_id, *rest)`` tuples; ``kind ==
    "error"`` means the worker shipped a formatted traceback (raised as
    :class:`RemoteTaskError`).  ``kind == "progress"`` messages are
    out-of-band telemetry: fed to ``on_progress(worker_id, payload)``
    when supplied (exceptions swallowed), dropped otherwise, and never
    counted against a worker's one expected result.  Raises
    :class:`WorkerCrashed` naming the worker when one dies without
    reporting (non-zero exit code or a lost result).  When
    ``arrivals``/``clock`` are supplied, each worker's result-arrival
    timestamp is recorded so the caller can emit per-worker spans.
    """
    pending = dict(processes)
    results: List[tuple] = []
    clean_exit_polls = 0
    while pending:
        try:
            message = result_queue.get(timeout=poll_timeout)
        except queue_lib.Empty:
            dead_clean = []
            for worker_id, proc in sorted(pending.items()):
                if proc.is_alive():
                    continue
                code = proc.exitcode
                if code not in (0, None):
                    raise WorkerCrashed(
                        worker_id, proc.pid, code, what=what
                    )
                dead_clean.append(worker_id)
            if dead_clean and len(dead_clean) == len(pending):
                clean_exit_polls += 1
                if clean_exit_polls >= lost_result_grace:
                    raise WorkerCrashed(
                        dead_clean[0],
                        pending[dead_clean[0]].pid,
                        0,
                        what=what,
                        detail=(
                            f"(workers {dead_clean} exited cleanly but "
                            f"their results never arrived)"
                        ),
                    )
            continue
        kind, worker_id = message[0], message[1]
        if kind == "progress":
            if on_progress is not None:
                try:
                    on_progress(worker_id, message[2])
                except Exception:  # noqa: BLE001 - telemetry only
                    pass
            continue
        if kind == "error":
            raise RemoteTaskError(worker_id, message[2], what=what)
        pending.pop(worker_id, None)
        if arrivals is not None and clock is not None:
            arrivals[worker_id] = clock()
        results.append(message)
    return results


# ----------------------------------------------------------------------
# long-lived supervised worker slot
# ----------------------------------------------------------------------
#: Sentinel telling a slot's child process to exit its task loop.
_STOP = None

#: Child-process side of the live progress channel: the result queue of
#: the task currently executing in this process, or ``None`` outside a
#: task.  Module-level (not threaded through runner signatures) because
#: the runner is an arbitrary picklable callable the slot must not
#: constrain.
_SLOT_PROGRESS_QUEUE = None


def emit_slot_progress(payload) -> bool:
    """Ship an out-of-band progress message to the parent's ``call()``.

    Valid only inside a :class:`WorkerSlot` task (the child's task loop
    installs the channel around each ``runner(task)``); anywhere else it
    is a no-op returning ``False``.  ``payload`` must be picklable.  The
    parent surfaces these through ``call(..., on_progress=...)``
    *during* the call -- this is how a worker-process solver streams
    incumbent/gap snapshots before its final payload exists.
    """
    q = _SLOT_PROGRESS_QUEUE
    if q is None:
        return False
    q.put(("progress", payload))
    return True


def _slot_main(runner: Callable, task_queue, result_queue) -> None:
    """Child-process task loop: run tasks serially until told to stop.

    Ships ``("ok", result)`` per task, or ``("error", exc_type, message,
    traceback)`` when the task raises -- the worker itself survives task
    exceptions and keeps serving.  While a task runs, the result queue
    doubles as a live progress channel (see :func:`emit_slot_progress`):
    ``("progress", payload)`` messages may precede the final
    ``("ok", ...)`` / ``("error", ...)`` message.

    An idle child wakes every :data:`ORPHAN_POLL_SECONDS` and exits once
    its parent is gone (``os.getppid()`` changed: the child was
    re-parented).  A parent killed by SIGKILL never sends the stop
    sentinel, and a child blocked in ``get()`` would otherwise live on.
    """
    global _SLOT_PROGRESS_QUEUE
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=ORPHAN_POLL_SECONDS)
        except queue_lib.Empty:
            if os.getppid() != parent:
                # Nobody will read a late result; do not block exit on it.
                result_queue.cancel_join_thread()
                return
            continue
        if task is _STOP:
            return
        _SLOT_PROGRESS_QUEUE = result_queue
        try:
            result = runner(task)
        except BaseException as exc:  # noqa: BLE001 - process boundary
            result_queue.put(
                (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
            )
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
        else:
            result_queue.put(("ok", result))
        finally:
            _SLOT_PROGRESS_QUEUE = None


class WorkerSlot:
    """One supervised worker process executing submitted tasks serially.

    The slot owns a child process plus a private task/result queue pair
    (fresh queues per process generation, so a crash mid-write can never
    poison the next incarnation).  :meth:`call` blocks for the task's
    result while polling child liveness; a crash respawns the slot and
    raises :class:`WorkerCrashed`, a passed deadline terminates the
    child, respawns, and raises :class:`WorkerTimeout` -- the slot is
    always usable after an exception.

    ``runner`` is a callable ``task -> result`` executed in the child.
    Under the ``fork`` start method anything callable works; under
    ``spawn`` it must be picklable (module-level function or partial of
    one).
    """

    def __init__(
        self,
        worker_id: int,
        runner: Callable,
        *,
        start_method: Optional[str] = None,
        poll_timeout: float = DEFAULT_POLL_TIMEOUT,
        lost_result_grace: int = DEFAULT_LOST_RESULT_GRACE,
        name_prefix: str = "repro-slot",
        what: str = "worker process",
    ) -> None:
        from repro.parallel.multiprocess import select_start_method

        self.worker_id = worker_id
        self.runner = runner
        self.start_method = select_start_method(start_method)
        self.poll_timeout = poll_timeout
        self.lost_result_grace = lost_result_grace
        self.name_prefix = name_prefix
        self.what = what
        #: Times this slot replaced a dead/wedged process with a new one.
        self.respawns = 0
        self._ctx = multiprocessing.get_context(self.start_method)
        self._proc: Optional["multiprocessing.process.BaseProcess"] = None
        self._task_q = None
        self._result_q = None

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def start(self) -> "WorkerSlot":
        """Spawn the child process (idempotent while it is alive)."""
        if not self.alive:
            self._spawn()
        return self

    def _spawn(self) -> None:
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._proc = self._ctx.Process(
            target=_slot_main,
            args=(self.runner, self._task_q, self._result_q),
            name=f"{self.name_prefix}-{self.worker_id}",
            daemon=True,
        )
        self._proc.start()

    def _discard(self, proc) -> None:
        """Drop a dead/unwanted process and its (possibly torn) queues."""
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        for q in (self._task_q, self._result_q):
            if q is not None:
                q.close()
        self._proc = None
        self._task_q = self._result_q = None

    def _respawn(self, proc) -> None:
        self._discard(proc)
        self.respawns += 1
        self._spawn()

    # ------------------------------------------------------------------
    def call(
        self,
        task,
        *,
        deadline: Optional[float] = None,
        on_progress: Optional[Callable] = None,
    ):
        """Run ``task`` in the child and return its result.

        ``deadline`` is an absolute ``time.time()`` deadline; once it
        passes, the child is terminated and :class:`WorkerTimeout`
        raised.  :class:`WorkerCrashed` / :class:`WorkerTimeout` leave
        the slot respawned; :class:`RemoteTaskError` leaves the original
        (healthy) child in place.

        ``on_progress`` receives the payload of every ``("progress",
        payload)`` message the child emits via :func:`emit_slot_progress`
        *while the call is still blocking* -- live mid-task telemetry,
        delivered in emission order, always before the final result.  A
        raising callback never kills the call (the exception is
        swallowed; telemetry must not take down the job).  Without the
        callback, progress messages are drained and dropped.
        """
        self.start()
        proc = self._proc
        result_q = self._result_q
        self._task_q.put(task)
        clean_exit_polls = 0
        while True:
            try:
                message = result_q.get(timeout=self.poll_timeout)
            except queue_lib.Empty:
                if not proc.is_alive():
                    code = proc.exitcode
                    if code == 0:
                        # A clean exit without a result can race the
                        # queue feeder; give the pipe a bounded grace.
                        clean_exit_polls += 1
                        if clean_exit_polls < self.lost_result_grace:
                            continue
                    pid = proc.pid
                    self._respawn(proc)
                    raise WorkerCrashed(
                        self.worker_id, pid, code, what=self.what,
                        detail="while executing a job",
                    )
                if deadline is not None and time.time() > deadline:
                    pid = proc.pid
                    overrun = max(0.0, time.time() - deadline)
                    self._respawn(proc)
                    raise WorkerTimeout(
                        self.worker_id, pid, overrun, what=self.what,
                    )
                continue
            kind = message[0]
            if kind == "progress":
                if on_progress is not None:
                    try:
                        on_progress(message[1])
                    except Exception:  # noqa: BLE001 - telemetry only
                        pass
                continue
            if kind == "ok":
                return message[1]
            if kind == "error":
                _, exc_type, text, remote_tb = message
                raise RemoteTaskError(
                    self.worker_id, remote_tb,
                    exc_type=exc_type, message=text, what=self.what,
                )
            raise RuntimeError(
                f"{self.what} {self.worker_id} sent an unknown message "
                f"kind {kind!r}"
            )

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> bool:
        """Stop the child (sentinel first, terminate if it lingers).

        Returns whether the child exited within ``timeout``.  Idempotent.
        """
        proc = self._proc
        if proc is None:
            return True
        if proc.is_alive():
            try:
                self._task_q.put(_STOP)
            except (OSError, ValueError):  # queue already torn down
                pass
            proc.join(timeout=timeout)
        clean = not proc.is_alive()
        self._discard(proc)
        return clean

    def __enter__(self) -> "WorkerSlot":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
