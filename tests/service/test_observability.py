"""Service observability: /metrics, /stats metrics, trace-id propagation."""

import json
import urllib.request

import pytest

from repro.matrix.generators import clustered_matrix, random_metric_matrix
from repro.obs import Recorder, StreamingRecorder
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.scheduler import Scheduler
from repro.service.server import ServiceServer, resolve_trace_id


@pytest.fixture
def matrix():
    return clustered_matrix([3, 3], seed=1)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def recorder():
    return Recorder()


@pytest.fixture
def server(registry, recorder):
    scheduler = Scheduler(workers=2, metrics=registry, recorder=recorder)
    with ServiceServer(scheduler, port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=60.0)


class TestMetricsEndpoint:
    def test_exposition_after_requests(self, client, matrix):
        client.solve(matrix, method="upgmm")   # miss
        client.solve(matrix, method="upgmm")   # hit
        text = client.metrics()
        assert 'service_job_seconds_bucket{method="upgmm",cache="miss"' in text
        assert 'service_job_seconds_bucket{method="upgmm",cache="hit"' in text
        assert "cache_miss_total 1" in text
        assert "cache_hit_total 1" in text
        assert 'service_jobs_total{state="completed"} 2' in text
        assert "service_queue_depth 0" in text
        assert "service_inflight 0" in text
        assert "service_workers 2" in text

    def test_content_type_is_prometheus(self, server, client, matrix):
        client.solve(matrix, method="upgmm")
        with urllib.request.urlopen(server.url + "/metrics") as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            body = resp.read().decode("utf-8")
        # Exposition lines parse: "name{labels} value" or comments.
        for line in body.strip().splitlines():
            assert line.startswith("#") or " " in line

    def test_histogram_sum_and_count_rendered(self, client, matrix):
        client.solve(matrix, method="upgmm")
        text = client.metrics()
        assert 'service_job_seconds_count{method="upgmm",cache="miss"} 1' in text
        assert 'service_job_seconds_sum{method="upgmm",cache="miss"}' in text

    def test_queue_wait_histogram_rendered(self, client, matrix):
        client.solve(matrix, method="upgmm")   # miss
        client.solve(matrix, method="upgmm")   # a hit still queues
        text = client.metrics()
        assert "# TYPE service_queue_wait_seconds histogram" in text
        assert 'service_queue_wait_seconds_count{method="upgmm"} 2' in text
        assert 'service_queue_wait_seconds_bucket{method="upgmm",le="+Inf"} 2' in text

    def test_metrics_always_on_without_trace_out(self, client, matrix):
        """No --trace-out, no explicit wiring: metrics still record."""
        client.solve(matrix, method="upgmm")
        stats = client.stats()
        assert "metrics" in stats
        jobs = stats["metrics"]["service.jobs"]
        assert jobs["type"] == "counter"
        assert jobs["series"] == [
            {"labels": {"state": "completed"}, "value": 1.0},
        ]
        lat = stats["metrics"]["service.job.seconds"]
        assert lat["series"][0]["count"] == 1
        assert lat["series"][0]["labels"] == {
            "method": "upgmm", "cache": "miss",
        }


class TestTraceIdResolution:
    def test_inbound_header_honoured(self):
        assert resolve_trace_id("req-abc.123") == "req-abc.123"

    def test_bad_headers_replaced(self):
        for bad in (None, "", "has space", "x" * 129, "newline\nid"):
            minted = resolve_trace_id(bad)
            assert minted != bad
            assert len(minted) == 16
            assert all(c in "0123456789abcdef" for c in minted)


class TestTraceIdRoundTrip:
    def _post_solve(self, server, matrix, *, headers=None, method="upgmm"):
        body = json.dumps({
            "matrix": {
                "values": [list(map(float, row)) for row in matrix.values],
                "labels": matrix.labels,
            },
            "method": method,
        }).encode()
        request = urllib.request.Request(
            server.url + "/solve",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(request, timeout=60.0) as resp:
            return resp.headers, json.loads(resp.read())

    def test_response_echoes_inbound_id(self, server, matrix):
        headers, record = self._post_solve(
            server, matrix, headers={"X-Trace-Id": "my-trace-1"}
        )
        assert headers["X-Trace-Id"] == "my-trace-1"
        assert record["trace_id"] == "my-trace-1"

    def test_id_minted_when_absent(self, server, matrix):
        headers, record = self._post_solve(server, matrix)
        assert record["trace_id"]
        assert headers["X-Trace-Id"] == record["trace_id"]

    def test_job_endpoint_carries_trace_id(self, server, client, matrix):
        record = client.solve(matrix, method="upgmm", trace_id="poll-me")
        polled = client.job(record["id"])
        assert polled["trace_id"] == "poll-me"

    def test_trace_id_reaches_scheduler_and_engine_spans(
        self, server, client, recorder, matrix
    ):
        client.solve(matrix, method="compact", trace_id="deep-1")
        jobs = recorder.spans("service.job")
        assert jobs and all(
            s.attrs["trace_id"] == "deep-1" for s in jobs
        )
        builds = recorder.spans("pipeline.build")
        assert builds and all(
            s.attrs["trace_id"] == "deep-1" for s in builds
        )
        hits = recorder.counters("cache.miss")
        assert hits and all(
            c.attrs["trace_id"] == "deep-1" for c in hits
        )

    def test_trace_id_crosses_the_process_boundary(
        self, server, client, recorder
    ):
        """Acceptance: every mp.worker span carries the HTTP request's id."""
        matrix = random_metric_matrix(8, seed=3)
        record = client.solve(
            matrix,
            method="multiprocess",
            options={"workers": 2},
            trace_id="xproc-7",
            wait_seconds=120.0,
        )
        assert record["state"] == "done"
        workers = recorder.spans("mp.worker")
        assert len(workers) == 2
        for span in workers:
            assert span.attrs["trace_id"] == "xproc-7"
        solves = recorder.spans("mp.solve")
        assert solves and all(
            s.attrs["trace_id"] == "xproc-7" for s in solves
        )


class TestBoundedMemoryUnderLoad:
    @pytest.mark.slow
    def test_thousand_requests_hold_ring_and_metrics_bounded(self, tmp_path):
        """Acceptance: 1000 sequential solves, O(ring) recorder memory."""
        sink = tmp_path / "trace.jsonl"
        recorder = StreamingRecorder(sink, max_events=128)
        registry = MetricsRegistry()
        matrix = clustered_matrix([3, 3], seed=2)
        with Scheduler(
            workers=2, metrics=registry, recorder=recorder
        ) as scheduler:
            for _ in range(1000):
                scheduler.solve(matrix, method="upgmm", timeout=60.0)
        recorder.close()
        # Memory: the ring holds at most max_events, regardless of load.
        assert len(recorder._events) <= 128
        assert recorder.events_streamed >= 2000  # span + counter per job
        # Metrics: series count is label-bounded, not request-bounded.
        snap = registry.snapshot()
        assert sum(len(m["series"]) for m in snap.values()) < 20
        jobs = snap["service.jobs"]["series"]
        assert jobs == [{"labels": {"state": "completed"}, "value": 1000.0}]
        hist = registry.histogram(
            "service.job.seconds", labelnames=("method", "cache")
        )
        assert hist.count(method="upgmm", cache="hit") == 999
        assert hist.count(method="upgmm", cache="miss") == 1
        # The file kept every event the ring dropped.
        from repro.obs import read_jsonl

        assert len(read_jsonl(sink)) == recorder.events_streamed
