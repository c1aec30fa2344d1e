"""In-process HTTP API tests: ServiceServer + ServiceClient."""

import http.client
import json
import socket
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


class TestDeeplyNestedBodies:
    """JSON nested past the stdlib decoder's recursion limit is a typed
    400; the ``RecursionError`` used to escape the handler and drop the
    connection without a response."""

    NESTED = "[" * 5000 + "]" * 5000

    def _assert_recursion_400(self, conn, response, data):
        assert response.status == 400
        error = json.loads(data)
        assert error["error"] == "bad_request"
        assert "recursion depth" in error["detail"]
        _assert_next_request_answered(conn)

    @pytest.mark.parametrize("path", ["/solve", "/ingest"])
    def test_nested_json_body(self, server, conn, decoder, path):
        response, data, _ = _exchange(
            conn, "POST", path, self.NESTED,
            headers={"Content-Type": "application/json"},
        )
        self._assert_recursion_400(conn, response, data)
        assert server.scheduler.stats()["submitted"] == 0

    @pytest.mark.parametrize("field", ["options", "qc"])
    def test_nested_multipart_field(self, server, conn, decoder, field):
        parts = [("fasta", ">a\nACGT\n>b\nACGA\n>c\nAGGA\n"),
                 (field, self.NESTED)]
        body = "".join(
            f"--cut\r\nContent-Disposition: form-data; name=\"{name}\""
            f"\r\n\r\n{value}\r\n"
            for name, value in parts
        ) + "--cut--\r\n"
        response, data, _ = _exchange(
            conn, "POST", "/ingest", body,
            headers={"Content-Type": "multipart/form-data; boundary=cut"},
        )
        self._assert_recursion_400(conn, response, data)
        assert f"'{field}'" in json.loads(data)["detail"]
        assert server.scheduler.stats()["submitted"] == 0


class TestKeepAliveLatency:
    def test_persistent_connection_answers_without_delayed_ack_stall(
        self, conn, matrix
    ):
        # A reply that leaves as two writes (headers, then a body too
        # large for the write buffer) with Nagle on waits ~40 ms for the
        # client's delayed ACK; when every reply was split that way,
        # every median below sat at 40+ ms.
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


class _RecordingSocket(socket.socket):
    """The server end of a loopback TCP connection; every ``send``/``sendall`` call
    (one system-call-level write each) is recorded."""

    def __init__(self, peer_of: socket.socket):
        super().__init__(
            peer_of.family, peer_of.type, peer_of.proto,
            fileno=peer_of.detach(),
        )
        self.writes = []

    def send(self, data, *args):
        sent = super().send(data, *args)
        self.writes.append(bytes(data[:sent]))
        return sent

    def sendall(self, data, *args):
        super().sendall(data, *args)
        self.writes.append(bytes(data))


def _handle_on_pair(server, request: bytes, *, client_steps=None):
    """Run one ``_Handler`` on a recording loopback socket; returns
    ``(writes, status, headers, body)`` as the client saw them."""
    import http.client

    with socket.create_server(("127.0.0.1", 0)) as listener:
        theirs = socket.create_connection(listener.getsockname())
        ours, _ = listener.accept()
    recording = _RecordingSocket(ours)
    handler = threading.Thread(
        target=server_mod._Handler,
        args=(recording, ("127.0.0.1", 0), server._httpd),
        daemon=True,
    )
    handler.start()
    theirs.settimeout(10.0)
    try:
        if client_steps is None:
            theirs.sendall(request)
        else:
            client_steps(theirs)
        response = http.client.HTTPResponse(theirs)
        response.begin()
        body = response.read()
        handler.join(10.0)
        assert not handler.is_alive()
        return recording.writes, response.status, response, body
    finally:
        theirs.close()
        recording.close()


def _post(path: str, body: bytes, **headers) -> bytes:
    lines = [
        f"POST {path} HTTP/1.1",
        "Host: test",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ] + [f"{name.replace('_', '-')}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class TestOneWriteResponses:
    """Status line, headers and a small body leave in one write; larger
    bodies still arrive whole."""

    def test_solve_sized_response_is_one_sendall(self, server):
        matrix = clustered_matrix([13] * 4, seed=7)
        body = _solve_body(matrix).encode()
        _handle_on_pair(server, _post("/solve", body))  # warm the cache
        writes, status, response, data = _handle_on_pair(
            server, _post("/solve", body)
        )
        assert status == 200
        record = json.loads(data)
        assert record["cache"] == "hit"
        assert 2000 < len(data) < 8000
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 200 ")
        assert writes[0].endswith(data)

    def test_ingest_sized_response_arrives_intact(self, server):
        import io

        import numpy as np

        from repro.sequences.fasta import write_fasta
        from repro.sequences.hmdna import generate_hmdna_dataset

        rng = np.random.default_rng(5)
        while True:
            dataset = generate_hmdna_dataset(24, rng, sequence_length=600)
            if len(set(dataset.sequences.values())) == 24:
                break
        text = io.StringIO()
        write_fasta(dataset.sequences, text)
        body = json.dumps({"fasta": text.getvalue(), "verify": True}).encode()
        writes, status, response, data = _handle_on_pair(
            server, _post("/ingest", body)
        )
        assert status == 200
        assert len(data) > 40_000
        assert int(response.getheader("Content-Length")) == len(data)
        record = json.loads(data)
        assert record["state"] == "done"
        assert record["manifest"]["status"] != "failed"
        assert b"".join(writes).endswith(data)

    def test_100_continue_is_sent_before_the_body_is(self, server, matrix):
        body = _solve_body(matrix).encode()
        request = _post("/solve", body, Expect="100-continue")
        head, payload = request.split(b"\r\n\r\n", 1)

        def client_steps(sock):
            sock.sendall(head + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)  # times out if the 100 never comes
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(payload)

        _, status, _, data = _handle_on_pair(
            server, request, client_steps=client_steps
        )
        assert status == 200
        assert json.loads(data)["state"] == "done"
