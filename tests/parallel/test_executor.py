"""WorkerSlot supervision: crash detection, respawn, deadline kill."""

import os
import signal
import time

import pytest

import repro.parallel.executor as executor
from repro.parallel.executor import (
    RemoteTaskError,
    WorkerCrashed,
    WorkerSlot,
    WorkerTimeout,
    emit_slot_progress,
)


def echo_task(task):
    return ("echo", task)


def progressing_task(task):
    """Emit ``task`` progress payloads, then return a final value."""
    for i in range(int(task)):
        assert emit_slot_progress({"seq": i})
    return ("final", int(task))


def raising_task(task):
    raise ValueError(f"bad task {task!r}")


def sleepy_task(task):
    time.sleep(float(task))
    return "woke"


def self_killing_task(task):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def slot():
    s = WorkerSlot(3, echo_task)
    yield s
    s.stop()


class TestRoundtrip:
    def test_call_returns_result(self, slot):
        assert slot.call({"x": 1}) == ("echo", {"x": 1})

    def test_slot_serves_many_tasks_on_one_process(self, slot):
        slot.start()
        pid = slot.pid
        for i in range(5):
            assert slot.call(i) == ("echo", i)
        assert slot.pid == pid
        assert slot.respawns == 0

    def test_start_is_idempotent(self, slot):
        slot.start()
        pid = slot.pid
        slot.start()
        assert slot.pid == pid

    def test_context_manager(self):
        with WorkerSlot(0, echo_task) as s:
            assert s.alive
            assert s.call("hi") == ("echo", "hi")
        assert not s.alive


class TestTaskErrors:
    def test_task_exception_is_typed_and_worker_survives(self):
        with WorkerSlot(7, raising_task) as s:
            pid = s.pid
            with pytest.raises(RemoteTaskError, match=r"worker process 7"):
                s.call("t1")
            try:
                s.call("t2")
            except RemoteTaskError as err:
                assert err.exc_type == "ValueError"
                assert "bad task 't2'" in err.message
                assert "ValueError" in err.remote_traceback
            # Same process: a task exception must not cost the worker.
            assert s.pid == pid
            assert s.respawns == 0

    def test_remote_error_is_runtimeerror(self):
        with WorkerSlot(1, raising_task) as s:
            with pytest.raises(RuntimeError):
                s.call(None)


class TestCrashSupervision:
    def test_killed_worker_is_detected_and_respawned(self):
        with WorkerSlot(5, self_killing_task) as s:
            first_pid = s.pid
            with pytest.raises(
                WorkerCrashed, match=r"worker process 5 .*died with exit code"
            ):
                s.call("boom")
            # The slot respawned itself before raising: immediately usable.
            assert s.alive
            assert s.respawns == 1
            assert s.pid != first_pid

    def test_sigkill_from_outside_mid_task(self):
        with WorkerSlot(2, sleepy_task) as s:
            s.start()
            victim = s.pid
            import threading

            threading.Timer(0.3, os.kill, (victim, signal.SIGKILL)).start()
            with pytest.raises(WorkerCrashed) as excinfo:
                s.call(30.0)
            assert excinfo.value.pid == victim
            # Replacement serves the next task.
            assert s.call(0.0) == "woke"


class TestDeadline:
    @pytest.fixture(autouse=True)
    def fast_polls(self, monkeypatch):
        monkeypatch.setattr(executor, "POLL_TIMEOUT", 0.05)

    def test_deadline_terminates_wedged_worker(self):
        with WorkerSlot(4, sleepy_task) as s:
            t0 = time.monotonic()
            with pytest.raises(
                WorkerTimeout, match=r"past its job's deadline"
            ):
                s.call(30.0, deadline=time.time() + 0.3)
            # Detection is prompt (poll-bound), not wait-for-the-task.
            assert time.monotonic() - t0 < 5.0
            assert s.respawns == 1
            assert s.call(0.0) == "woke"

    def test_no_deadline_waits_for_result(self):
        with WorkerSlot(6, sleepy_task) as s:
            assert s.call(0.6) == "woke"
            assert s.respawns == 0


class TestProgressChannel:
    """The mid-``call()`` child -> parent progress side channel."""

    def test_progress_arrives_in_order_before_the_result(self):
        seen = []
        with WorkerSlot(11, progressing_task) as s:
            result = s.call(5, on_progress=seen.append)
        # call() only returns once the final payload lands, so every
        # progress message was delivered (ordered) before the result.
        assert result == ("final", 5)
        assert seen == [{"seq": i} for i in range(5)]

    def test_progress_ignored_without_callback(self):
        with WorkerSlot(12, progressing_task) as s:
            assert s.call(3) == ("final", 3)

    def test_progress_callback_exceptions_are_swallowed(self):
        def bad_callback(_payload):
            raise RuntimeError("observer down")

        with WorkerSlot(13, progressing_task) as s:
            assert s.call(4, on_progress=bad_callback) == ("final", 4)
            # The slot survived for the next task, callback and all.
            assert s.call(1, on_progress=bad_callback) == ("final", 1)

    def test_emit_outside_a_worker_is_a_noop(self):
        assert emit_slot_progress({"seq": 0}) is False

    def test_progress_does_not_leak_across_tasks(self):
        first, second = [], []
        with WorkerSlot(14, progressing_task) as s:
            s.call(3, on_progress=first.append)
            s.call(2, on_progress=second.append)
        assert [p["seq"] for p in first] == [0, 1, 2]
        assert [p["seq"] for p in second] == [0, 1]


class TestStop:
    def test_stop_is_idempotent(self):
        s = WorkerSlot(8, echo_task)
        s.start()
        assert s.stop()
        assert s.stop()

    def test_stop_without_start(self):
        assert WorkerSlot(9, echo_task).stop()
