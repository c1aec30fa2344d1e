"""Worker-process lifecycle and supervision: one wait loop, two callers.

Two execution shapes in this repository put work into child processes,
and both need the same hard guarantees -- a dead or wedged process is
*detected*, reported with a typed error, and never hangs the parent:

* the **one-shot scatter/gather** of :func:`repro.parallel.multiprocess.
  multiprocess_mut` (start ``p`` workers, each solves one share of the
  frontier and reports once, through one shared result queue);
* the **long-lived slot** of the serving layer's process backend --
  :class:`WorkerSlot`, a single supervised, respawnable worker process
  executing a stream of jobs.

Both run their children's work through :func:`run_task`, which ships
every outcome as one ``(kind, worker_id, body)`` message -- ``result``
with the return value, ``error`` with ``(exc_type, message,
traceback)``, or ``progress`` with an out-of-band payload -- and both
wait through :func:`supervise`, the one loop that polls a result queue
and turns exit codes and deadlines into typed errors.  :func:`discard`
is the one teardown, and :func:`select_start_method` the one choice of
start method.

Failure taxonomy (all :class:`RuntimeError` subclasses, so existing
"supervision raises RuntimeError" contracts keep holding):

:class:`RemoteTaskError`
    The task itself raised in the child; the exception's type, message
    and formatted traceback crossed the process boundary.  The worker
    is healthy.
:class:`WorkerCrashed`
    The worker process died (signal, OOM kill, interpreter abort), or
    exited cleanly without its result arriving.  A :class:`WorkerSlot`
    respawns itself before raising, so the slot is immediately usable
    again.
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
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "RemoteTaskError",
    "WorkerCrashed",
    "WorkerTimeout",
    "WorkerSlot",
    "discard",
    "emit_slot_progress",
    "run_task",
    "select_start_method",
    "supervise",
]

#: Seconds between liveness checks while a parent waits on a child.
POLL_TIMEOUT = 0.25
#: Seconds an idle slot child waits for a task before checking that
#: its parent is still alive.
ORPHAN_POLL_SECONDS = 0.5
#: Consecutive empty polls tolerated after every pending worker exited
#: cleanly (exit code 0) without its result arriving, before the parent
#: gives up.  Covers the short window in which a finished worker's queue
#: feeder thread has written the payload but the pipe is not yet readable.
LOST_RESULT_GRACE = 20


def select_start_method(preferred: Optional[str] = None) -> str:
    """Pick a :mod:`multiprocessing` start method that exists here.

    ``fork`` is preferred where the platform offers it (cheapest, shares
    the parent's pages); otherwise ``spawn``.  Passing ``preferred``
    forces that method, raising :class:`ValueError` if the platform does
    not support it (e.g. ``fork`` on Windows).
    """
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} is not available on this "
                f"platform; choose from {available}"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


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
# the child side: every outcome is one (kind, worker_id, body) message
# ----------------------------------------------------------------------
#: ``(worker_id, result_queue)`` of the task :func:`run_task` is running
#: in this process, or ``None`` outside a task.  Module-level (not
#: threaded through task signatures) because the task is an arbitrary
#: picklable callable the executor must not constrain.
_PROGRESS_CHANNEL = None


def emit_slot_progress(payload) -> bool:
    """Ship an out-of-band progress message to the waiting parent.

    Valid only inside a task run by :func:`run_task` (every
    :class:`WorkerSlot` task is); anywhere else it is a no-op returning
    ``False``.  ``payload`` must be picklable.  The parent surfaces
    these through ``on_progress`` *while it waits* -- this is how a
    worker-process solver streams incumbent/gap snapshots before its
    final payload exists.
    """
    channel = _PROGRESS_CHANNEL
    if channel is None:
        return False
    worker_id, result_queue = channel
    result_queue.put(("progress", worker_id, payload))
    return True


def run_task(worker_id: int, result_queue, fn: Callable, *args) -> bool:
    """Run ``fn(*args)`` in this child and report the outcome as one message.

    Puts ``("result", worker_id, value)``, or ``("error", worker_id,
    (exc_type, message, traceback))`` when ``fn`` raises; while ``fn``
    runs, :func:`emit_slot_progress` may put ``("progress", worker_id,
    payload)`` messages ahead of it.  Returns ``False`` when ``fn``
    raised :class:`KeyboardInterrupt` or :class:`SystemExit`, after
    which the child should exit.  Usable directly as a one-shot
    process's ``target``.
    """
    global _PROGRESS_CHANNEL
    _PROGRESS_CHANNEL = (worker_id, result_queue)
    try:
        result_queue.put(("result", worker_id, fn(*args)))
    except BaseException as exc:  # noqa: BLE001 - process boundary
        result_queue.put((
            "error",
            worker_id,
            (type(exc).__name__, str(exc), traceback.format_exc()),
        ))
        return not isinstance(exc, (KeyboardInterrupt, SystemExit))
    finally:
        _PROGRESS_CHANNEL = None
    return True


# ----------------------------------------------------------------------
# the parent side: one wait loop, one teardown
# ----------------------------------------------------------------------
def supervise(
    processes: Dict[int, "multiprocessing.process.BaseProcess"],
    result_queue,
    *,
    what: str,
    detail: str = "before reporting a result",
    deadline: Optional[float] = None,
    on_progress: Optional[Callable] = None,
) -> Iterator[Tuple[int, object]]:
    """Yield ``(worker_id, value)`` as each worker's result arrives.

    The one loop that waits on child processes.  It polls
    ``result_queue`` every :data:`POLL_TIMEOUT` seconds until every
    worker in ``processes`` has reported once, and between polls turns
    what it observes into typed errors naming the worker (``what`` is
    the noun in their messages):

    * a worker exited with a non-zero code: :class:`WorkerCrashed`,
      whose message ends with ``detail``;
    * every pending worker exited cleanly and :data:`LOST_RESULT_GRACE`
      polls brought nothing: :class:`WorkerCrashed` ("... never
      arrived");
    * ``deadline`` (absolute ``time.time()``) passed while a worker was
      still computing: :class:`WorkerTimeout`;
    * an ``error`` message: :class:`RemoteTaskError` with the child's
      exception type, message and traceback.

    ``progress`` messages go to ``on_progress(payload)`` in arrival
    order -- always before their worker's result -- and never count as
    a result; without the callback they are dropped, and a raising
    callback is swallowed (telemetry must not take down the wait).  The
    caller owns the processes and tears them down (:func:`discard`).
    """
    pending = dict(processes)
    clean_exit_polls = 0
    while pending:
        try:
            kind, worker_id, body = result_queue.get(timeout=POLL_TIMEOUT)
        except queue_lib.Empty:
            exited = []
            for worker_id, proc in sorted(pending.items()):
                if proc.is_alive():
                    continue
                if proc.exitcode != 0:
                    raise WorkerCrashed(
                        worker_id, proc.pid, proc.exitcode,
                        what=what, detail=detail,
                    )
                exited.append(worker_id)
            if len(exited) == len(pending):
                clean_exit_polls += 1
                if clean_exit_polls >= LOST_RESULT_GRACE:
                    raise WorkerCrashed(
                        exited[0],
                        pending[exited[0]].pid,
                        0,
                        what=what,
                        detail=(
                            f"(workers {exited} exited cleanly but "
                            f"their results never arrived)"
                        ),
                    )
            elif deadline is not None and time.time() > deadline:
                worker_id = min(pending.keys() - set(exited))
                raise WorkerTimeout(
                    worker_id,
                    pending[worker_id].pid,
                    max(0.0, time.time() - deadline),
                    what=what,
                )
            continue
        if kind == "progress":
            if on_progress is not None:
                try:
                    on_progress(body)
                except Exception:  # noqa: BLE001 - telemetry only
                    pass
            continue
        if kind == "error":
            exc_type, message, remote_tb = body
            raise RemoteTaskError(
                worker_id, remote_tb,
                exc_type=exc_type, message=message, what=what,
            )
        pending.pop(worker_id, None)
        yield worker_id, body


def discard(processes: Iterable, *queues) -> None:
    """Tear down child processes and the queues they used.

    Terminates every process still running, joins each (bounded), then
    closes the queues: the one teardown for finished, crashed and
    unwanted workers alike.
    """
    processes = list(processes)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=5.0)
    for q in queues:
        q.close()


# ----------------------------------------------------------------------
# long-lived supervised worker slot
# ----------------------------------------------------------------------
#: Sentinel telling a slot's child process to exit its task loop.
_STOP = None


def _slot_main(worker_id: int, runner: Callable, task_queue, result_queue) -> None:
    """Child-process task loop: run tasks serially until told to stop.

    Each task goes through :func:`run_task`, so it reports one
    ``result`` or ``error`` message, possibly preceded by ``progress``
    messages; the worker survives task exceptions and keeps serving.

    An idle child wakes every :data:`ORPHAN_POLL_SECONDS` and exits once
    its parent is gone (``os.getppid()`` changed: the child was
    re-parented).  A parent killed by SIGKILL never sends the stop
    sentinel, and a child blocked in ``get()`` would otherwise live on.
    """
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
        if task is _STOP or not run_task(worker_id, result_queue, runner, task):
            return


class WorkerSlot:
    """One supervised worker process executing submitted tasks serially.

    The slot owns a child process plus a private task/result queue pair
    (fresh queues per process generation, so a crash mid-write can never
    poison the next incarnation).  :meth:`call` blocks for the task's
    result in :func:`supervise`; a crash respawns the slot and raises
    :class:`WorkerCrashed`, a passed deadline terminates the child,
    respawns, and raises :class:`WorkerTimeout` -- the slot is always
    usable after an exception.

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
    ) -> None:
        self.worker_id = worker_id
        self.runner = runner
        self.start_method = select_start_method(start_method)
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
            args=(self.worker_id, self.runner, self._task_q, self._result_q),
            name=f"repro-svc-proc-{self.worker_id}",
            daemon=True,
        )
        self._proc.start()

    def _discard(self, proc) -> None:
        """Drop a dead/unwanted process and its (possibly torn) queues."""
        discard([proc], self._task_q, self._result_q)
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

        ``on_progress`` receives the payload of every progress message
        the child emits via :func:`emit_slot_progress` *while the call
        is still blocking* -- live mid-task telemetry, delivered in
        emission order, always before the final result (see
        :func:`supervise`).
        """
        self.start()
        proc = self._proc
        self._task_q.put(task)
        try:
            _, result = next(supervise(
                {self.worker_id: proc},
                self._result_q,
                what="worker process",
                detail="while executing a job",
                deadline=deadline,
                on_progress=on_progress,
            ))
        except (WorkerCrashed, WorkerTimeout):
            self._respawn(proc)
            raise
        return result

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
