"""The shared supervision loop, driven through both of its callers.

``WorkerSlot.call`` (the service's long-lived slots) and the multiprocess
engine's one-shot workers (:func:`run_task` as the process target, waited
on with :func:`supervise`) share one wait loop and one message format, so
every typed failure must look the same from either side.
"""

import multiprocessing
import os

import pytest

import repro.parallel.executor as executor
from repro.parallel.executor import (
    RemoteTaskError,
    WorkerCrashed,
    WorkerSlot,
    discard,
    emit_slot_telemetry,
    run_task,
    select_start_method,
    supervise,
)


def exit_task(code):
    """Die before reporting anything."""
    os._exit(int(code))


def raising_task(task):
    raise ValueError(f"bad task {task!r}")


def progressing_task(task):
    for i in range(int(task)):
        assert emit_slot_telemetry({"seq": i})
    return ("final", int(task))


def call_slot(task, arg, on_telemetry=None):
    with WorkerSlot(7, task) as slot:
        return slot.call(arg, on_telemetry=on_telemetry)


def call_one_shot(task, arg, on_telemetry=None):
    """Run ``task(arg)`` the way ``multiprocess_mut`` runs a worker."""
    ctx = multiprocessing.get_context(select_start_method())
    result_queue = ctx.Queue()
    proc = ctx.Process(
        target=run_task, args=(7, result_queue, task, arg), daemon=True
    )
    proc.start()
    try:
        [(worker_id, value)] = supervise(
            {7: proc},
            result_queue,
            what="branch-and-bound worker",
            on_telemetry=on_telemetry,
        )
        assert worker_id == 7
        return value
    finally:
        discard([proc], result_queue)


@pytest.fixture(params=[call_slot, call_one_shot], ids=["slot", "one-shot"])
def call(request):
    return request.param


class TestSupervision:
    def test_dead_worker_raises_named_error(self, call):
        with pytest.raises(
            WorkerCrashed, match=r"worker( process)? 7 \(pid \d+\) died with exit code 3 "
        ) as err:
            call(exit_task, 3)
        assert (err.value.worker_id, err.value.exitcode) == (7, 3)

    def test_lost_result_detected(self, call, monkeypatch):
        """A clean exit without a result must not hang the parent."""
        monkeypatch.setattr(executor, "LOST_RESULT_GRACE", 2)
        with pytest.raises(WorkerCrashed, match="never arrived") as err:
            call(exit_task, 0)
        assert (err.value.worker_id, err.value.exitcode) == (7, 0)

    def test_worker_exception_travels_back(self, call):
        with pytest.raises(RemoteTaskError, match=r"worker( process)? 7 raised:") as err:
            call(raising_task, "t1")
        assert err.value.exc_type == "ValueError"
        assert err.value.message == "bad task 't1'"
        assert "ValueError: bad task" in err.value.remote_traceback

    def test_progress_arrives_in_order_before_the_result(self, call):
        seen = []
        # The call returns only once the result landed, so every progress
        # message was delivered, in order, before it.
        assert call(progressing_task, 5, on_telemetry=seen.append) == (
            "final", 5
        )
        assert seen == [{"seq": i} for i in range(5)]

    def test_progress_callback_exceptions_are_swallowed(self, call):
        def bad_callback(_payload):
            raise RuntimeError("observer down")

        assert call(progressing_task, 4, on_telemetry=bad_callback) == (
            "final", 4
        )
