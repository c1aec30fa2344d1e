"""In-process HTTP API tests: ServiceServer + ServiceClient."""

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.matrix.generators import clustered_matrix
from repro.matrix.io import write_phylip
from repro.service.client import ServiceClient
from repro.service.errors import (
    BadRequest,
    JobNotFound,
    QueueFull,
    ServiceError,
)
from repro.service.scheduler import Scheduler
from repro.service import server as server_mod
from repro.service.server import ServiceServer


@pytest.fixture
def matrix():
    return clustered_matrix([3, 3], seed=1)


@pytest.fixture
def server():
    with ServiceServer(Scheduler(workers=2), port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestSolve:
    def test_solve_matrix_payload(self, client, matrix):
        record = client.solve(matrix, method="upgmm")
        assert record["state"] == "done"
        assert record["cache"] == "miss"
        assert record["result"]["newick"].endswith(";")
        assert record["result"]["n_species"] == 6

    def test_solve_phylip_payload(self, client, matrix, tmp_path):
        import io

        buffer = io.StringIO()
        write_phylip(matrix, buffer)
        record = client.solve(phylip=buffer.getvalue(), method="upgmm")
        assert record["state"] == "done"

    def test_phylip_and_matrix_agree(self, client, matrix):
        import io

        buffer = io.StringIO()
        write_phylip(matrix, buffer)
        a = client.solve(matrix, method="upgmm")
        b = client.solve(phylip=buffer.getvalue(), method="upgmm")
        assert a["result"]["newick"] == b["result"]["newick"]
        assert b["cache"] == "hit"  # identical content, identical key

    def test_default_method_applies(self, client, matrix):
        record = client.solve(matrix)
        assert record["result"]["method"] == "compact"

    def test_async_submit_and_poll(self, client, matrix):
        record = client.solve(matrix, method="upgmm", wait=False)
        assert record["state"] in ("pending", "running", "done")
        job_id = record["id"]
        for _ in range(200):
            polled = client.job(job_id)
            if polled["state"] == "done":
                break
            import time

            time.sleep(0.01)
        assert polled["state"] == "done"
        assert polled["result"]["newick"].endswith(";")

    def test_nj_method_served(self, client, matrix):
        record = client.solve(matrix, method="nj")
        assert record["state"] == "done"
        assert record["result"]["newick"].endswith(";")


class TestErrors:
    def test_unknown_job_404(self, client):
        with pytest.raises(JobNotFound):
            client.job("job-999999")

    def test_bad_option_is_failed_job(self, client, matrix):
        record = client.solve(matrix, method="bnb", options={"bogus": 1})
        assert record["state"] == "failed"
        assert "bogus" in record["error"]

    def test_malformed_body_400(self, client):
        with pytest.raises(BadRequest):
            client._request("POST", "/solve", {"method": "upgmm"})

    def test_both_matrix_and_phylip_400(self, client, matrix):
        with pytest.raises(BadRequest):
            client._request(
                "POST", "/solve",
                {"matrix": [[0, 1], [1, 0]], "phylip": "2\na 0 1\nb 1 0"},
            )

    def test_invalid_matrix_400(self, client):
        with pytest.raises(BadRequest):
            client._request(
                "POST", "/solve", {"matrix": [[0, 1], [2, 0]]}
            )

    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")

    def test_queue_full_maps_to_429(self, matrix):
        gate = threading.Event()
        started = threading.Event()

        def gated(matrix, method, options, recorder):
            started.set()
            gate.wait(10.0)
            return {"method": method, "n_species": matrix.n,
                    "cost": 0.0, "newick": "(x);"}

        sched = Scheduler(workers=1, queue_size=1, runner=gated)
        try:
            with ServiceServer(sched, port=0) as srv:
                client = ServiceClient(srv.url, timeout=30.0)
                client.solve(matrix, options={"tag": 0}, wait=False)
                assert started.wait(10.0)
                client.solve(matrix, options={"tag": 1}, wait=False)
                with pytest.raises(QueueFull):
                    client.solve(matrix, options={"tag": 2}, wait=False)
                gate.set()
        finally:
            gate.set()


class TestIntrospection:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"]
        assert health["uptime_seconds"] >= 0

    def test_stats_counts_requests(self, client, matrix):
        client.solve(matrix, method="upgmm")
        client.solve(matrix, method="upgmm")
        stats = client.stats()
        assert stats["submitted"] == 2
        assert stats["completed"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["version"]

    def test_healthz_reports_draining_after_close(self, matrix):
        srv = ServiceServer(Scheduler(workers=1), port=0).start()
        client = ServiceClient(srv.url, timeout=30.0)
        assert client.healthz()["status"] == "ok"
        srv.scheduler.shutdown()
        health = client.healthz()
        assert health["status"] == "draining"
        srv.close()


class TestQueuedDeadlineOverHTTP:
    def test_poll_reports_timeout_at_deadline_while_queued(self, matrix):
        import time

        gate = threading.Event()
        started = threading.Event()

        def gated(matrix, method, options, recorder):
            started.set()
            gate.wait(10.0)
            return {"method": method, "n_species": matrix.n,
                    "cost": 0.0, "newick": "(gated);"}

        sched = Scheduler(workers=1, runner=gated)
        try:
            with ServiceServer(sched, port=0) as srv:
                client = ServiceClient(srv.url, timeout=30.0)
                client.solve(
                    matrix, method="upgmm", options={"tag": 0}, wait=False
                )
                assert started.wait(10.0)  # blocker holds the only worker
                doomed = client.solve(
                    matrix, method="upgmm", options={"tag": 1},
                    wait=False, timeout=0.2,
                )
                time.sleep(0.4)
                # The blocker is still running, yet the poll reports the
                # queued job's timeout immediately (HTTP 504 job record).
                polled = client.job(doomed["id"])
                assert polled["state"] == "timeout"
                assert "while queued" in polled["error"]
                gate.set()
        finally:
            gate.set()


def _exchange(conn, method, path, body=None, headers=None):
    """One request on ``conn``: ``(response, body bytes, seconds)``."""
    start = time.perf_counter()
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    return response, data, time.perf_counter() - start


def _solve_body(matrix, method="upgmm"):
    return json.dumps({
        "matrix": {
            "values": [list(map(float, row)) for row in matrix.values],
            "labels": matrix.labels,
        },
        "method": method,
    })


@pytest.fixture
def conn(server):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    yield connection
    connection.close()


def _assert_next_request_answered(conn):
    response, data, _ = _exchange(conn, "GET", "/healthz")
    assert response.status == 200
    assert json.loads(data)["status"] == "ok"


class TestNumericFields:
    @pytest.mark.parametrize("field", ["timeout", "wait_seconds"])
    def test_non_numeric_field_is_400_and_submits_nothing(
        self, server, conn, matrix, field
    ):
        # float() on these fields used to raise past the error handler:
        # no response at all, and for wait_seconds a job already queued.
        body = json.loads(_solve_body(matrix))
        body[field] = "soon"
        response, data, _ = _exchange(conn, "POST", "/solve", json.dumps(body))
        assert response.status == 400
        error = json.loads(data)
        assert error["error"] == "bad_request"
        assert field in error["detail"]
        assert server.scheduler.stats()["submitted"] == 0
        _assert_next_request_answered(conn)

    def test_null_fields_take_the_defaults(self, conn, matrix):
        body = json.loads(_solve_body(matrix))
        body.update(timeout=None, wait_seconds=None)
        response, data, _ = _exchange(conn, "POST", "/solve", json.dumps(body))
        assert response.status == 200
        assert json.loads(data)["state"] == "done"


class TestKeepAliveLatency:
    def test_persistent_connection_answers_without_delayed_ack_stall(
        self, conn, matrix
    ):
        # Headers and body leave as two writes; with Nagle on, each
        # reply after the first waited ~40 ms for the client's delayed
        # ACK, so every median below sat at 40+ ms.
        body = _solve_body(matrix)
        response, _, _ = _exchange(conn, "POST", "/solve", body)
        assert response.status == 200
        sock = conn.sock
        seconds = {"hit": [], "4xx": [], "healthz": [], "metrics": []}
        for _ in range(20):
            response, data, took = _exchange(conn, "POST", "/solve", body)
            assert response.status == 200
            assert json.loads(data)["cache"] == "hit"
            seconds["hit"].append(took)
        for _ in range(5):
            response, _, took = _exchange(conn, "POST", "/solve", "{}")
            assert response.status == 400
            seconds["4xx"].append(took)
            response, _, took = _exchange(conn, "GET", "/healthz")
            assert response.status == 200
            seconds["healthz"].append(took)
            response, _, took = _exchange(conn, "GET", "/metrics")
            assert response.status == 200
            seconds["metrics"].append(took)
        assert conn.sock is sock, "every request must reuse one connection"
        medians_ms = {
            kind: 1000 * statistics.median(times)
            for kind, times in seconds.items()
        }
        overall_ms = 1000 * statistics.median(
            t for times in seconds.values() for t in times
        )
        assert overall_ms < 10.0, medians_ms
        assert max(medians_ms.values()) < 10.0, medians_ms


class TestKeepAliveFraming:
    """A reply to a POST whose body was not read must close the
    connection; leftover body bytes are never parsed as a request."""

    def test_unknown_post_path_closes(self, conn, matrix):
        response, data, _ = _exchange(
            conn, "POST", "/nope", _solve_body(matrix)
        )
        assert response.status == 404
        assert json.loads(data)["error"] == "job_not_found"
        assert response.getheader("Connection") == "close"
        _assert_next_request_answered(conn)

    def test_oversized_solve_is_drained_and_keeps_connection(
        self, conn, matrix, monkeypatch
    ):
        body = _solve_body(matrix)
        monkeypatch.setattr(server_mod, "MAX_BODY_BYTES", len(body) // 2)
        _exchange(conn, "GET", "/healthz")
        sock = conn.sock
        response, data, _ = _exchange(conn, "POST", "/solve", body)
        assert response.status == 413
        assert json.loads(data)["error"] == "payload_too_large"
        assert response.getheader("Connection") is None
        _assert_next_request_answered(conn)
        assert conn.sock is sock

    def test_abusive_ingest_length_closes(self, conn, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_INGEST_BYTES", 64)
        body = json.dumps({"fasta": ">a\n" + "ACGT" * 128 + "\n"})
        assert len(body) > 4 * 64
        response, data, _ = _exchange(conn, "POST", "/ingest", body)
        assert response.status == 413
        assert json.loads(data)["error"] == "payload_too_large"
        assert response.getheader("Connection") == "close"
        _assert_next_request_answered(conn)

    @pytest.mark.parametrize("path", ["/solve", "/ingest"])
    def test_non_numeric_content_length_is_typed_400(
        self, conn, matrix, path
    ):
        response, data, _ = _exchange(
            conn, "POST", path, _solve_body(matrix),
            headers={"Content-Length": "abc"},
        )
        assert response.status == 400
        assert json.loads(data)["error"] == "bad_request"
        assert "Content-Length" in json.loads(data)["detail"]
        assert response.getheader("Connection") == "close"
        _assert_next_request_answered(conn)
