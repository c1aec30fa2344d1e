"""Scheduler behaviour: admission control, dedup, timeout, drain."""

import threading
import time

import pytest

from repro.matrix.generators import clustered_matrix
from repro.obs import Recorder
from repro.service.cache import ResultCache
from repro.service.errors import QueueFull, SchedulerClosed, ServiceError
from repro.service.jobs import JobState
from repro.service.scheduler import Scheduler


@pytest.fixture
def matrix():
    return clustered_matrix([3, 3], seed=1)


def blocking_runner(gate: threading.Event, started: threading.Event = None):
    """A runner that parks until ``gate`` is set (for queue-shape tests)."""

    def run(matrix, method, options, recorder):
        if started is not None:
            started.set()
        if not gate.wait(10.0):
            raise RuntimeError("test gate never opened")
        return {"method": method, "n_species": matrix.n, "cost": 0.0,
                "newick": "(gated);"}

    return run


class TestBasicExecution:
    def test_solve_roundtrip(self, matrix):
        with Scheduler(workers=2) as sched:
            payload = sched.solve(matrix, "upgmm", timeout=30.0)
            assert payload["newick"].endswith(";")
            assert payload["n_species"] == 6
            assert payload["method"] == "upgmm"

    def test_job_record_fields(self, matrix):
        with Scheduler(workers=1) as sched:
            job = sched.submit(matrix, "upgmm")
            job.result(30.0)
            record = job.to_json()
            assert record["state"] == "done"
            assert record["cache"] == "miss"
            assert record["result"]["newick"].endswith(";")
            assert sched.job(job.id) is job

    def test_repeat_hits_cache(self, matrix):
        rec = Recorder()
        with Scheduler(workers=2, recorder=rec) as sched:
            first = sched.submit(matrix, "upgmm")
            first.result(30.0)
            second = sched.submit(matrix, "upgmm")
            second.result(30.0)
            assert first.payload == second.payload
            assert second.cache_status == "hit"
        assert rec.counter_total("cache.miss") == 1
        assert rec.counter_total("cache.hit") == 1
        assert len(rec.spans("service.job")) == 2

    def test_different_options_do_not_collide(self, matrix):
        with Scheduler(workers=2) as sched:
            a = sched.submit(matrix, "compact", {"reduction": "maximum"})
            b = sched.submit(matrix, "compact", {"reduction": "minimum"})
            a.result(30.0)
            b.result(30.0)
            assert a.key != b.key

    def test_failed_job_raises_typed_error(self, matrix):
        def explode(matrix, method, options, recorder):
            raise ValueError("boom")

        with Scheduler(workers=1, runner=explode) as sched:
            job = sched.submit(matrix, "upgmm")
            job.wait(10.0)
            assert job.state == JobState.FAILED
            assert "boom" in job.error
            with pytest.raises(ServiceError, match="boom"):
                job.result(1.0)
            assert sched.stats()["failed"] == 1


class TestAdmissionControl:
    def test_queue_full_typed_rejection(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(
            workers=1, queue_size=1, runner=blocking_runner(gate, started)
        )
        try:
            running = sched.submit(matrix, "upgmm", {"tag": 0})
            assert started.wait(10.0)  # occupies the single worker
            queued = sched.submit(matrix, "upgmm", {"tag": 1})
            with pytest.raises(QueueFull):
                sched.submit(matrix, "upgmm", {"tag": 2})
            assert sched.stats()["rejected"] == 1
            gate.set()
            assert running.result(10.0)["newick"] == "(gated);"
            assert queued.result(10.0)
        finally:
            gate.set()
            sched.shutdown()

    def test_rejection_emits_counter(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        rec = Recorder()
        sched = Scheduler(
            workers=1, queue_size=1, recorder=rec,
            runner=blocking_runner(gate, started),
        )
        try:
            sched.submit(matrix, "upgmm", {"tag": 0})
            assert started.wait(10.0)
            sched.submit(matrix, "upgmm", {"tag": 1})
            with pytest.raises(QueueFull):
                sched.submit(matrix, "upgmm", {"tag": 2})
            assert rec.counter_total("queue.rejected") == 1
        finally:
            gate.set()
            sched.shutdown()


class TestQueueWaitMetric:
    def test_wait_behind_a_running_job_is_observed(self, matrix):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(
            workers=1, metrics=registry, runner=blocking_runner(gate, started)
        )
        try:
            running = sched.submit(matrix, "upgmm", {"tag": 0})
            assert started.wait(10.0)
            queued = sched.submit(matrix, "upgmm", {"tag": 1})
            time.sleep(0.2)
            gate.set()
            running.result(10.0)
            queued.result(10.0)
        finally:
            gate.set()
            sched.shutdown()
        (series,) = registry.snapshot()["service.queue_wait.seconds"]["series"]
        assert series["labels"] == {"method": "upgmm"}
        assert series["count"] == 2
        # The second job waited for the whole gated run of the first.
        waited = queued.started_at - queued.submitted_at
        assert waited >= 0.15
        assert series["sum"] >= waited


class TestDeduplication:
    def test_identical_inflight_submissions_share_a_job(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        rec = Recorder()
        sched = Scheduler(
            workers=1, recorder=rec, runner=blocking_runner(gate, started)
        )
        try:
            first = sched.submit(matrix, "upgmm")
            assert started.wait(10.0)
            second = sched.submit(matrix, "upgmm")
            assert second is first
            assert sched.stats()["deduped"] == 1
            assert rec.counter_total("queue.deduped") == 1
            gate.set()
            assert first.result(10.0) == second.result(10.0)
        finally:
            gate.set()
            sched.shutdown()

    def test_finished_job_is_not_dedup_target(self, matrix):
        with Scheduler(workers=1) as sched:
            first = sched.submit(matrix, "upgmm")
            first.result(30.0)
            second = sched.submit(matrix, "upgmm")
            assert second is not first
            second.result(30.0)
            assert second.cache_status == "hit"


class TestCancellationAndTimeout:
    def test_cancel_pending_job(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(
            workers=1, runner=blocking_runner(gate, started)
        )
        try:
            sched.submit(matrix, "upgmm", {"tag": 0})
            assert started.wait(10.0)
            queued = sched.submit(matrix, "upgmm", {"tag": 1})
            assert queued.cancel()
            assert queued.state == JobState.CANCELLED
            gate.set()
        finally:
            gate.set()
            sched.shutdown()
        assert sched.stats()["cancelled"] == 1

    def test_cancel_finished_job_is_noop(self, matrix):
        with Scheduler(workers=1) as sched:
            job = sched.submit(matrix, "upgmm")
            job.result(30.0)
            assert not job.cancel()
            assert job.state == JobState.DONE

    def test_deadline_expires_while_queued(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(
            workers=1, runner=blocking_runner(gate, started)
        )
        try:
            sched.submit(matrix, "upgmm", {"tag": 0})
            assert started.wait(10.0)
            doomed = sched.submit(matrix, "upgmm", {"tag": 1}, timeout=0.01)
            time.sleep(0.05)
            gate.set()
            doomed.wait(10.0)
            assert doomed.state == JobState.TIMEOUT
            assert "deadline" in doomed.error
        finally:
            gate.set()
            sched.shutdown()
        assert sched.stats()["timed_out"] == 1

    def test_result_wait_timeout_raises(self, matrix):
        from repro.service.errors import JobTimeout

        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(workers=1, runner=blocking_runner(gate, started))
        try:
            job = sched.submit(matrix, "upgmm")
            with pytest.raises(JobTimeout):
                job.result(0.05)
        finally:
            gate.set()
            sched.shutdown()


class TestShutdown:
    def test_drain_finishes_queued_jobs(self, matrix):
        sched = Scheduler(workers=2)
        jobs = [
            sched.submit(matrix, "upgmm", {"tag": i}) for i in range(6)
        ]
        assert sched.shutdown(drain=True, timeout=30.0)
        for job in jobs:
            assert job.state == JobState.DONE
        # No orphaned worker threads.
        assert not any(t.is_alive() for t in sched._workers)

    def test_submit_after_shutdown_raises(self, matrix):
        sched = Scheduler(workers=1)
        sched.shutdown()
        with pytest.raises(SchedulerClosed):
            sched.submit(matrix, "upgmm")

    def test_shutdown_without_drain_cancels_pending(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(workers=1, runner=blocking_runner(gate, started))
        running = sched.submit(matrix, "upgmm", {"tag": 0})
        assert started.wait(10.0)
        queued = sched.submit(matrix, "upgmm", {"tag": 1})
        gate.set()
        assert sched.shutdown(drain=False, timeout=30.0)
        assert queued.state == JobState.CANCELLED
        assert running.state == JobState.DONE  # running jobs complete

    def test_shutdown_is_idempotent(self, matrix):
        sched = Scheduler(workers=1)
        assert sched.shutdown()
        assert sched.shutdown()


class TestDiskBackedScheduler:
    def test_restart_warms_from_disk(self, matrix, tmp_path):
        rec = Recorder()
        with Scheduler(
            workers=1, cache=ResultCache(directory=tmp_path)
        ) as sched:
            first = sched.submit(matrix, "upgmm").result(30.0)
        # "Restarted" scheduler: new cache instance, same directory.
        with Scheduler(
            workers=1, cache=ResultCache(directory=tmp_path), recorder=rec
        ) as sched:
            job = sched.submit(matrix, "upgmm")
            assert job.result(30.0) == first
            assert job.cache_status == "hit"
        assert rec.counter_total("cache.hit") == 1
        assert rec.counter_total("cache.miss") == 0


class _VindictiveRecorder(Recorder):
    """Raises from ``counter`` on a chosen name -- simulating a broken
    observability sink blowing up *inside the worker loop's error path*,
    which historically killed the worker thread and silently shrank the
    pool."""

    def __init__(self, poison: str):
        super().__init__()
        self.poison = poison

    def counter(self, name, value=1, **attrs):
        if name == self.poison:
            raise RuntimeError("recorder exploded")
        return super().counter(name, value, **attrs)


class TestWorkerCrashIsolation:
    def test_escaping_exception_settles_job_and_worker_survives(
        self, matrix
    ):
        from repro.obs import MetricsRegistry

        def explode(matrix, method, options, recorder):
            raise ValueError("boom")

        rec = _VindictiveRecorder("job.failed")
        metrics = MetricsRegistry()
        sched = Scheduler(
            workers=1, recorder=rec, runner=explode, metrics=metrics
        )
        try:
            job = sched.submit(matrix, "upgmm", {"tag": 1})
            assert job.wait(10.0)
            assert job.state == JobState.FAILED
            assert "internal scheduler error" in job.error
            assert "recorder exploded" in job.error
            # The worker thread survived the escaping exception...
            assert sched._live_worker_count() == 1
            # ...and keeps serving (this job fails too, but *settles*).
            second = sched.submit(matrix, "upgmm", {"tag": 2})
            assert second.wait(10.0)
            snap = metrics.snapshot()["service.worker.errors"]
            assert snap["series"][0]["value"] == 2
        finally:
            sched.shutdown()

    def test_stats_count_each_job_exactly_once(self, matrix):
        rec = _VindictiveRecorder("job.failed")

        def explode(matrix, method, options, recorder):
            raise ValueError("boom")

        sched = Scheduler(workers=1, recorder=rec, runner=explode)
        try:
            for tag in range(3):
                sched.submit(matrix, "upgmm", {"tag": tag}).wait(10.0)
            stats = sched.stats()
            assert stats["failed"] == 3
            assert stats["submitted"] == 3
        finally:
            sched.shutdown()


class TestWorkerGauges:
    def test_workers_gauge_reports_only_live_workers(self, matrix):
        from repro.obs import MetricsRegistry
        from repro.service.scheduler import _STOP

        metrics = MetricsRegistry()
        sched = Scheduler(workers=2, metrics=metrics)

        def gauge(name):
            return metrics.snapshot()[name]["series"][0]["value"]

        try:
            assert gauge("service.workers") == 2
            assert gauge("service.workers.dead") == 0
            # Kill one worker thread (the old gauge kept reporting 2).
            sched._queue.put(_STOP)
            deadline = time.time() + 10.0
            while sched._live_worker_count() > 1 and time.time() < deadline:
                time.sleep(0.01)
            assert gauge("service.workers") == 1
            assert gauge("service.workers.dead") == 1
            stats = sched.stats()
            assert stats["workers_live"] == 1
            assert stats["workers_dead"] == 1
            # The survivor still serves jobs.
            assert sched.submit(matrix, "upgmm").result(30.0)
        finally:
            sched.shutdown()
        # Deliberate shutdown is not a crash: dead gauge reads 0.
        assert sched._dead_worker_count() == 0


class TestQueuedTimeoutPromptness:
    def test_result_raises_at_deadline_while_still_queued(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(workers=1, runner=blocking_runner(gate, started))
        try:
            sched.submit(matrix, "upgmm", {"tag": 0})
            assert started.wait(10.0)  # blocker occupies the only worker
            doomed = sched.submit(matrix, "upgmm", {"tag": 1}, timeout=0.2)
            t0 = time.monotonic()
            with pytest.raises(ServiceError, match="while queued"):
                doomed.result(10.0)
            # The timeout surfaced at ~the deadline, not when the worker
            # eventually dequeued the job (the blocker is still running).
            assert time.monotonic() - t0 < 2.0
            assert doomed.state == JobState.TIMEOUT
            assert not gate.is_set()
        finally:
            gate.set()
            sched.shutdown()
        # Reconciled exactly once even though the worker also saw it.
        assert sched.stats()["timed_out"] == 1

    def test_expire_if_queued_noop_for_running_jobs(self, matrix):
        gate = threading.Event()
        started = threading.Event()
        sched = Scheduler(workers=1, runner=blocking_runner(gate, started))
        try:
            running = sched.submit(matrix, "upgmm", timeout=30.0)
            assert started.wait(10.0)
            assert not running.expire_if_queued()
            gate.set()
            assert running.result(10.0)
        finally:
            gate.set()
            sched.shutdown()


class TestMethodLookups:
    """Every scheduler lookup of a job's method accepts any request value;
    only ``construct_tree`` rejects an unknown one, with its own text."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_any_method_value_fails_with_the_unknown_method_text(
        self, matrix, backend
    ):
        from repro.core.api import METHODS

        values = ["astrology", [1], {"a": 1}, None, 5]
        with Scheduler(workers=1, backend=backend) as sched:
            jobs = [sched.submit(matrix, value) for value in values]
            for job in jobs:
                job.wait(60.0)
        for value, job in zip(values, jobs):
            assert job.state == JobState.FAILED
            assert job.error == (
                f"ValueError: unknown method {value!r}; "
                f"choose from {METHODS}"
            )


class TestMultiprocessWorkerCap:
    def test_workers_capped_at_the_core_count(self, matrix):
        from unittest import mock

        from repro.core.api import construct_tree
        from repro.service.cache import cache_key

        recorder = Recorder()
        with mock.patch("os.cpu_count", return_value=1), Scheduler(
            workers=1, recorder=recorder
        ) as sched:
            job = sched.submit(matrix, "multiprocess", {"workers": 6})
            payload = job.result(60.0)
        assert job.state == JobState.DONE
        assert payload["cost"] == construct_tree(matrix, "bnb").cost
        (solve,) = recorder.spans("mp.solve")
        assert solve.attrs["workers"] == 1
        # The cache key is what the client sent, not the capped value.
        assert job.key == cache_key(matrix, "multiprocess", {"workers": 6})
