"""Cache hits are served at admission, on the submitting thread.

A submission whose result is cached settles ``done``/``hit`` inside
:meth:`Scheduler.submit`: no queue place, no worker, no process slot and
no dedup entry, so a hit never waits behind a cold solve and is never
refused by a full queue.  A miss queues as before, and every accepted
submission counts exactly one ``cache.hit``, ``cache.miss`` or
``queue.deduped``.  Each behaviour is checked on both backends.

The runner here is module-level and gated by a file, so it works in a
worker process as well as on a worker thread.
"""

import json
import os
import threading
import time
from contextlib import contextmanager

import pytest

from repro.matrix.generators import clustered_matrix
from repro.obs import MetricsRegistry, Recorder
from repro.service.cache import ResultCache
from repro.service.errors import QueueFull, SchedulerClosed
from repro.service.jobs import JobState
from repro.service.scheduler import Scheduler
from repro.service.server import ServiceServer


@pytest.fixture(params=["thread", "process"])
def backend(request):
    return request.param


@pytest.fixture
def matrix():
    return clustered_matrix([3, 3], seed=1)


@pytest.fixture
def hold(tmp_path):
    """A gate file: :func:`gated_runner` blocks while it exists."""
    path = tmp_path / "hold"
    path.touch()
    yield path
    path.unlink(missing_ok=True)


def gated_runner(matrix, method, options, recorder):
    """Blocks while ``options["hold"]`` exists; reports where it ran."""
    hold = options.get("hold")
    if hold is not None:
        started = options.get("started")
        if started is not None:
            open(started, "w").close()
        limit = time.monotonic() + 20.0
        while os.path.exists(hold):
            if time.monotonic() > limit:
                raise RuntimeError("test gate never opened")
            time.sleep(0.005)
    return {
        "method": method,
        "n_species": matrix.n,
        "cost": 0.0,
        "newick": "(gated);",
        "pid": os.getpid(),
        "thread": threading.get_ident(),
    }


def _wait_for(path, seconds=20.0):
    limit = time.monotonic() + seconds
    while not os.path.exists(path):
        assert time.monotonic() < limit, f"{path} never appeared"
        time.sleep(0.005)


def _scheduler(backend, **kwargs):
    kwargs.setdefault("runner", gated_runner)
    return Scheduler(backend=backend, **kwargs)


def _ran_off_the_calling_thread(payload):
    """The engine ran on a worker thread or in a worker process."""
    return (
        payload["pid"] != os.getpid()
        or payload["thread"] != threading.get_ident()
    )


class TestHitSettlesAtAdmission:
    def test_hit_is_served_while_the_only_worker_is_held_and_queue_full(
        self, backend, matrix, hold, tmp_path
    ):
        started = tmp_path / "started"
        sched = _scheduler(backend, workers=1, queue_size=1)
        try:
            cached = sched.submit(matrix, "upgmm", {"tag": "cached"})
            assert cached.result(30.0)["newick"] == "(gated);"
            running = sched.submit(
                matrix, "upgmm",
                {"hold": str(hold), "started": str(started)},
            )
            _wait_for(started)  # holds the only worker
            queued = sched.submit(matrix, "upgmm", {"tag": "queued"})
            with pytest.raises(QueueFull):
                sched.submit(matrix, "upgmm", {"tag": "refused"})
            depth = sched.stats()["queue_depth"]

            hit = sched.submit(matrix, "upgmm", {"tag": "cached"})
            assert hit.done  # settled before submit returned
            assert hit.state == JobState.DONE
            assert hit.cache_status == "hit"
            assert hit.payload == cached.payload
            stats = sched.stats()
            assert stats["queue_depth"] == depth == 1
            assert stats["inflight"] == 2  # the held and the queued job
            assert stats["rejected"] == 1
            assert sched.job(hit.id) is hit

            hold.unlink()
            assert running.result(30.0)
            assert queued.result(30.0)
        finally:
            hold.unlink(missing_ok=True)
            sched.shutdown()

    def test_verify_runs_on_the_submitting_thread(self, backend, matrix):
        rec = Recorder()
        with Scheduler(
            workers=1, backend=backend, recorder=rec,
            metrics=MetricsRegistry(),
        ) as sched:
            sched.submit(matrix, "upgmm").result(30.0)
            before = len(rec.spans("verify.oracle"))
            hit = sched.submit(matrix, "upgmm", verify=True)
            assert hit.done and hit.cache_status == "hit"
            assert hit.verification["ok"] is True
            oracles = rec.spans("verify.oracle")[before:]
            assert oracles
            (job_span,) = [
                s for s in rec.spans("service.job")
                if s.attrs["job"] == hit.id
            ]
            assert all(s.parent == job_span.id for s in oracles)

    def test_hit_inside_an_open_span_is_traced_as_roots(
        self, backend, matrix
    ):
        # ``POST /ingest`` submits inside its ``ingest.stage`` span.
        rec = Recorder()
        with Scheduler(workers=1, backend=backend, recorder=rec) as sched:
            sched.submit(matrix, "upgmm").result(30.0)
            with rec.span("ingest.stage"):
                hit = sched.submit(matrix, "upgmm", trace_id="req-7")
        assert hit.cache_status == "hit"
        (job_span,) = [
            s for s in rec.spans("service.job") if s.attrs["job"] == hit.id
        ]
        assert job_span.parent is None
        assert job_span.attrs["trace_id"] == "req-7"
        (counter,) = rec.counters("cache.hit")
        assert counter.span is None
        assert counter.attrs["trace_id"] == "req-7"

    def test_hit_after_shutdown_is_refused(self, backend, matrix):
        sched = _scheduler(backend, workers=1)
        sched.submit(matrix, "upgmm").result(30.0)
        sched.shutdown()
        with pytest.raises(SchedulerClosed):
            sched.submit(matrix, "upgmm")


class _HoldFirstJobSpan(Recorder):
    """Holds the next ``service.job`` span open until released."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    @contextmanager
    def span(self, name, **attrs):
        with super().span(name, **attrs) as handle:
            if name == "service.job" and self.armed:
                self.armed = False
                self.entered.set()
                assert self.release.wait(20.0)
            yield handle


class TestHitIsNeverADedupTarget:
    def test_identical_submission_during_a_hit_is_a_hit_too(
        self, backend, matrix
    ):
        rec = _HoldFirstJobSpan()
        sched = _scheduler(backend, workers=1, recorder=rec)
        try:
            sched.submit(matrix, "upgmm").result(30.0)
            rec.armed = True
            first = []
            thread = threading.Thread(
                target=lambda: first.append(sched.submit(matrix, "upgmm"))
            )
            thread.start()
            assert rec.entered.wait(20.0)  # the first hit is mid-serve
            stats = sched.stats()
            assert (stats["inflight"], stats["queue_depth"]) == (0, 0)
            second = sched.submit(matrix, "upgmm")
            assert second.done and second.cache_status == "hit"
            rec.release.set()
            thread.join(20.0)
            assert not thread.is_alive()
            assert first[0] is not second
            assert first[0].cache_status == "hit"
        finally:
            rec.release.set()
            sched.shutdown()
        assert rec.counter_total("queue.deduped") == 0
        assert rec.counter_total("cache.hit") == 2


class TestEveryCallCountsOnce:
    def test_hits_misses_and_dedups_sum_to_the_submissions(
        self, backend, matrix, hold
    ):
        rec = Recorder()
        metrics = MetricsRegistry()
        sched = _scheduler(
            backend, workers=1, recorder=rec, metrics=metrics
        )
        submissions = hits = misses = deduped = 0
        try:
            for i in range(4):
                hold.touch()
                options = {"hold": str(hold), "tag": i}
                first = sched.submit(matrix, "upgmm", options)
                again = sched.submit(matrix, "upgmm", options)
                assert again is first  # still held: merged, not queued
                submissions += 2
                misses += 1
                deduped += 1
                hold.unlink()
                first.result(30.0)
                for tag in range(i + 1):  # this input and every earlier one
                    repeat = sched.submit(
                        matrix, "upgmm", {"hold": str(hold), "tag": tag}
                    )
                    assert repeat.done and repeat.cache_status == "hit"
                    submissions += 1
                    hits += 1
        finally:
            hold.unlink(missing_ok=True)
            sched.shutdown()  # joins the workers: every job has settled
        stats = sched.stats()
        assert rec.counter_total("cache.hit") == hits
        assert rec.counter_total("cache.miss") == misses
        assert rec.counter_total("queue.deduped") == deduped
        assert hits + misses + deduped == submissions
        snapshot = metrics.snapshot()
        for name, want in (
            ("cache.hit", hits), ("cache.miss", misses),
            ("queue.deduped", deduped),
        ):
            assert snapshot[name]["series"][0]["value"] == want
        assert stats["submitted"] == hits + misses
        assert stats["completed"] == hits + misses
        assert stats["deduped"] == deduped
        assert stats["rejected"] == 0
        assert stats["inflight"] == 0
        assert stats["cache"]["hits"] == hits
        assert stats["cache"]["misses"] == misses


class _EvictAroundRead(ResultCache):
    """Evicts the next admission read's key just before (``before``) or
    just after (``after``) that read -- a concurrent put's LRU eviction
    landing inside :meth:`Scheduler.submit`."""

    def __init__(self, when):
        super().__init__()
        self.when = when
        self.armed = False

    def _evict(self, key):
        with self._lock:
            self._entries.pop(key, None)

    def get(self, key, *, count=True, count_miss=True):
        if not (self.armed and not count_miss):
            return super().get(key, count=count, count_miss=count_miss)
        self.armed = False
        if self.when == "before":
            self._evict(key)
        payload = super().get(key, count=count, count_miss=count_miss)
        if self.when == "after":
            self._evict(key)
        return payload


class TestEvictionAtAdmission:
    def test_entry_evicted_before_the_read_queues_as_one_miss(
        self, backend, matrix
    ):
        rec = Recorder()
        cache = _EvictAroundRead("before")
        sched = _scheduler(backend, workers=1, recorder=rec, cache=cache)
        try:
            sched.submit(matrix, "upgmm").result(30.0)
            cache.armed = True
            job = sched.submit(matrix, "upgmm")
            payload = job.result(30.0)
            assert job.cache_status == "miss"
            assert _ran_off_the_calling_thread(payload)
        finally:
            sched.shutdown()
        assert rec.counter_total("cache.miss") == 2
        assert rec.counter_total("cache.hit") == 0
        assert cache.stats()["misses"] == 2

    def test_entry_evicted_after_the_read_is_served_from_it(
        self, backend, matrix
    ):
        rec = Recorder()
        cache = _EvictAroundRead("after")
        sched = _scheduler(backend, workers=1, recorder=rec, cache=cache)
        try:
            first = sched.submit(matrix, "upgmm")
            first.result(30.0)
            cache.armed = True
            job = sched.submit(matrix, "upgmm")
            assert job.done and job.cache_status == "hit"
            assert job.payload == first.payload  # no engine ran again
            assert len(cache) == 0
        finally:
            sched.shutdown()
        assert rec.counter_total("cache.miss") == 1
        assert rec.counter_total("cache.hit") == 1


class TestAsyncHitOverHttp:
    def test_wait_false_on_a_cached_input_answers_200_done(
        self, backend, matrix
    ):
        import http.client

        body = json.dumps({
            "matrix": [list(map(float, row)) for row in matrix.values],
            "method": "upgmm",
        })
        async_body = json.dumps(dict(json.loads(body), wait=False))
        sched = Scheduler(workers=1, backend=backend)
        with ServiceServer(sched, port=0) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=30.0)
            try:
                replies = []
                for payload in (body, async_body):
                    conn.request("POST", "/solve", body=payload)
                    response = conn.getresponse()
                    replies.append((response.status, json.loads(response.read())))
            finally:
                conn.close()
        (status, first), (async_status, record) = replies
        assert status == 200 and first["cache"] == "miss"
        assert async_status == 200
        assert record["state"] == "done"
        assert record["cache"] == "hit"
        assert record["result"] == first["result"]


class TestConcurrentAdmission:
    def test_counts_hold_under_concurrent_hits_and_misses(self, matrix):
        """Six submitting threads (more than the host's cores) race hits
        served on their own threads against misses on the workers, with
        a short switch interval: a lost update to a counter, the stats
        or the dedup map breaks one of the sums."""
        import sys

        rec = Recorder()
        metrics = MetricsRegistry()
        sched = Scheduler(workers=2, recorder=rec, metrics=metrics,
                          runner=gated_runner, queue_size=1024)
        sched.submit(matrix, "upgmm", {"tag": "warm"}).result(30.0)
        jobs, errors = [], []

        def client(index):
            try:
                for i in range(40):
                    tag = "warm" if i % 2 else f"{index % 3}-{i}"
                    jobs.append(sched.submit(matrix, "upgmm", {"tag": tag}))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            sched.shutdown()
        assert not errors
        assert all(job.wait(0) and job.state == JobState.DONE for job in jobs)
        submissions = 1 + len(jobs)
        hits = rec.counter_total("cache.hit")
        misses = rec.counter_total("cache.miss")
        deduped = rec.counter_total("queue.deduped")
        assert hits + misses + deduped == submissions
        stats = sched.stats()
        assert stats["deduped"] == deduped
        assert stats["submitted"] == stats["completed"] == hits + misses
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (
            hits, misses
        )
        assert stats["inflight"] == 0
        assert metrics.snapshot()["cache.hit"]["series"][0]["value"] == hits
