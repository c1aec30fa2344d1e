"""Stdlib HTTP front end: the ``repro-mut serve`` JSON API.

Built on :class:`http.server.ThreadingHTTPServer` -- no third-party web
framework, per the repository's no-new-required-dependencies rule.
Request bodies decode with ``orjson`` when the optional ``fast`` extra
is installed (:func:`decode_json`).  Endpoints::

    POST /solve               submit a matrix; waits for the result by default
    POST /ingest              upload FASTA; QC -> distance -> repair -> job
    GET  /jobs/<id>           poll a job submitted with {"wait": false}
    GET  /jobs/<id>/progress  latest live solver snapshot for the job
    GET  /healthz             liveness + version (503 once draining)
    GET  /stats               scheduler, queue, cache and metrics statistics
    GET  /metrics             Prometheus text exposition of the live registry

``POST /solve`` accepts a JSON body with either ``"phylip"`` (the PHYLIP
square text) or ``"matrix"`` (a list of rows, or ``{"values": ...,
"labels": ...}``), plus optional ``"method"``, ``"options"``,
``"timeout"`` (job deadline, seconds), ``"wait"`` (default true),
``"wait_seconds"`` (response-wait budget) and ``"verify"`` (default
false: run the result oracles on the payload and attach their findings
as ``"verification"`` in the job record -- see ``docs/verification.md``).
Errors come back as
``{"error": <code>, "detail": <message>}`` with the status of the typed
:class:`~repro.service.errors.ServiceError` they correspond to.

``POST /ingest`` accepts either a JSON body (``{"fasta": <text>, ...}``)
or ``multipart/form-data`` with a ``fasta`` part, runs the staged
ingestion pipeline (:mod:`repro.ingest`) inline -- parse, QC, distance,
metric repair -- and schedules the repaired matrix as an ordinary job,
returning the job record with the full ingestion ``manifest`` attached.
Optional fields: ``distance`` (p / jc / edit), ``mode``
(strict / lenient), ``qc`` (gate overrides), plus the same ``method`` /
``options`` / ``timeout`` / ``wait`` / ``wait_seconds`` / ``verify``
fields ``/solve`` takes.  Oversized uploads are rejected with ``413
payload_too_large``; uploads that fail the pipeline come back as ``422
unprocessable_input`` with the structured rejection records and the
failure manifest in the body (see ``docs/ingestion.md``).

Trace correlation: every request gets a ``trace_id`` -- the inbound
``X-Trace-Id`` header when it looks sane, a fresh id otherwise -- which
is returned in the ``X-Trace-Id`` response header and the job record,
and stamped on every span/counter the job causes (down to ``mp.worker``
spans in worker processes; see ``docs/observability.md``).
"""

from __future__ import annotations

import io
import json
import re
import signal
import sys
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.matrix.distance_matrix import DistanceMatrix, MatrixValidationError
from repro.matrix.io import read_phylip
from repro.service.errors import (
    BadRequest,
    JobNotFound,
    PayloadTooLarge,
    ServiceError,
    UnprocessableInput,
)
from repro.service.jobs import JobState
from repro.service.scheduler import Scheduler, select_backend

try:  # the optional ``fast`` extra
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on the environment
    _orjson = None

__all__ = ["ServiceServer", "serve"]

#: Inbound ``X-Trace-Id`` values must match this to be honoured;
#: anything else (empty, huge, control characters) gets a fresh id.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def new_trace_id() -> str:
    """A fresh 16-hex-char request correlation id."""
    return uuid.uuid4().hex[:16]


def resolve_trace_id(header_value: Optional[str]) -> str:
    """Honour a sane inbound ``X-Trace-Id``; otherwise mint one."""
    if header_value and _TRACE_ID_RE.match(header_value):
        return header_value
    return new_trace_id()

#: Default budget a synchronous ``POST /solve`` waits for its job.
DEFAULT_WAIT_SECONDS = 30.0
#: Cap on request body size: a 10k-species float matrix is ~1.6 GB of
#: JSON; nothing legitimate is near this.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Cap on ``POST /ingest`` uploads; a full mitochondrial alignment of a
#: few hundred taxa is ~5 MB of FASTA, so 8 MB is generous.
MAX_INGEST_BYTES = 8 * 1024 * 1024

#: Job states whose HTTP representation is not 200.
_STATE_STATUS = {
    JobState.FAILED: 500,
    JobState.TIMEOUT: 504,
    JobState.CANCELLED: 409,
}


def _version() -> str:
    from repro import __version__

    return __version__


def _matrix_from_request(body: dict) -> DistanceMatrix:
    """Build the input matrix from a ``POST /solve`` body."""
    phylip = body.get("phylip")
    raw = body.get("matrix")
    if (phylip is None) == (raw is None):
        raise BadRequest("provide exactly one of 'phylip' or 'matrix'")
    try:
        if phylip is not None:
            if not isinstance(phylip, str):
                raise BadRequest("'phylip' must be a string")
            return read_phylip(io.StringIO(phylip))
        labels = None
        if isinstance(raw, dict):
            labels = raw.get("labels")
            raw = raw.get("values")
        return DistanceMatrix(raw, labels)
    except MatrixValidationError as exc:
        raise BadRequest(f"invalid matrix: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"malformed matrix payload: {exc}") from exc


#: ``raw.translate`` table for :func:`decode_json`'s guard: every digit
#: becomes ``0`` and ``{`` becomes ``[``.
_GUARD_TABLE = bytes.maketrans(b"123456789{", b"000000000[")
#: A body with this many JSON arrays and objects or more skips orjson.
#: It cannot nest deeper than its container count, and 512 levels is
#: well inside the stdlib's limit: the stdlib recurses once per level
#: and raises ``RecursionError`` near the interpreter's recursion limit,
#: about 1,000 levels.  orjson 3.8.3 has no depth limit: it returns
#: 10,000 levels, and 200,000 levels crash the process.
_ORJSON_MAX_CONTAINERS = 512


def decode_json(raw):
    """``json.loads(raw)``, computed by ``orjson`` when it gives the same answer.

    The result or the exception is always the one ``json.loads(raw)``
    gives.  ``orjson`` decodes a float-heavy matrix body about seven
    times faster, with bit-identical floats and the same key order.  The
    stdlib decodes the body instead where the two can differ:

    - a run of 19 or more digits anywhere: ``orjson`` returns integers
      outside ``[-2**63, 2**64)`` as floats;
    - 512 or more arrays and objects, which might nest deeper than the
      stdlib allows (see :data:`_ORJSON_MAX_CONTAINERS`);
    - every body ``orjson`` rejects, so that the stdlib either accepts it
      or raises its own error.  ``orjson`` rejects NaN and Infinity, a
      UTF-8 BOM, UTF-16 and UTF-32, lone surrogates and numbers that
      overflow to inf, all of which the stdlib accepts.

    ``str`` input (multipart form fields, a few bytes each) always goes
    to the stdlib.
    """
    if _orjson is not None and isinstance(raw, bytes):
        shape = raw.translate(_GUARD_TABLE)
        if (b"0" * 19 not in shape
                and shape.count(b"[") < _ORJSON_MAX_CONTAINERS):
            try:
                return _orjson.loads(raw)
            except _orjson.JSONDecodeError:
                pass
    return json.loads(raw)


def _json_object(raw: bytes) -> dict:
    """Decode a request body that must be one JSON object."""
    try:
        body = decode_json(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadRequest(f"body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise BadRequest("body must be a JSON object")
    return body


def _optional_number(value, name: str, default=None) -> Optional[float]:
    """A numeric request field; ``None`` or a blank form field is ``default``."""
    if value in (None, ""):
        return default
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"'{name}' must be a number: {exc}") from exc


def _parse_multipart(raw: bytes, content_type: str) -> dict:
    """Minimal ``multipart/form-data`` parser for ``POST /ingest``.

    Hand-rolled because the stdlib's ``cgi`` module is removed in 3.13
    and ``email`` round-trips are heavyweight for one upload.  Returns
    ``{field-name: text}``; file parts decode as UTF-8 with replacement
    (the FASTA parser rejects garbage downstream).
    """
    match = re.search(r'boundary="?([^";,\s]+)"?', content_type)
    if not match:
        raise BadRequest("multipart body without a boundary parameter")
    boundary = b"--" + match.group(1).encode("utf-8")
    fields: dict = {}
    for part in raw.split(boundary):
        part = part.strip(b"\r\n")
        if not part or part == b"--":
            continue
        for separator in (b"\r\n\r\n", b"\n\n"):
            if separator in part:
                header_blob, value = part.split(separator, 1)
                break
        else:
            continue
        name = None
        for line in header_blob.decode("utf-8", "replace").splitlines():
            if line.lower().startswith("content-disposition"):
                found = re.search(r'name="([^"]+)"', line)
                if found:
                    name = found.group(1)
        if name:
            fields[name] = value.decode("utf-8", "replace")
    if not fields:
        raise BadRequest("multipart body contained no form fields")
    return fields


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the server instance hangs off ``self.server``."""

    protocol_version = "HTTP/1.1"
    # A buffered wfile: status line, headers and a body that fit its
    # 8 KiB go out in one write when ``handle_one_request`` flushes after
    # the request.  TCP_NODELAY: a response split over writes (a larger
    # body) must not wait behind Nagle for a keep-alive client's ~40 ms
    # delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    _body_unread = False  # set by do_POST until _read_body consumes it
    server: "_HTTPServer"

    # ------------------------------------------------------------------
    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now, not with the final response: the
        client holds the body back until it arrives."""
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.service.verbose:
            sys.stderr.write(
                f"[{self.address_string()}] {format % args}\n"
            )

    def _send_json(
        self, status: int, payload: dict, trace_id: Optional[str] = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json", trace_id)

    def _send(
        self, status: int, body: bytes, content_type: str,
        trace_id: Optional[str] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if trace_id:
            self.send_header("X-Trace-Id", trace_id)
        if self._body_unread:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_job(self, job) -> None:
        """A job record: its state's status once done, ``202`` before.

        A deduplicated submission shares the first caller's job -- and
        therefore the first caller's trace id; echo the job's.
        """
        record = job.to_json()
        status = _STATE_STATUS.get(job.state, 200) if job.done else 202
        self._send_json(status, record, trace_id=job.trace_id)

    def _send_error_json(self, exc: ServiceError) -> None:
        payload = {"error": exc.code, "detail": str(exc)}
        extra = getattr(exc, "extra", None)
        if extra:
            payload.update(extra)
        self._send_json(exc.http_status, payload)

    def _read_body(self, cap: int) -> bytes:
        """Read the body, enforcing ``Content-Length`` and ``cap``.

        A missing, zero or non-numeric length is a 400.  Over ``cap`` is
        a 413, drained first up to ``4 * cap`` so a still-sending client
        can read it.  While the body is unread the reply carries
        ``Connection: close``, so leftover bytes never parse as the next
        request on a persistent connection.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not re.fullmatch(r"[0-9]+", declared):
            raise BadRequest(
                f"Content-Length {declared[:32]!r} is not a byte count"
            )
        length = int(declared)
        if length == 0:
            raise BadRequest("request body required")
        if length > cap:
            if length <= 4 * cap:
                left = length
                while left and (chunk := self.rfile.read(min(left, 65536))):
                    left -= len(chunk)
                self._body_unread = left > 0
            raise PayloadTooLarge(cap, length)
        raw = self.rfile.read(length)
        self._body_unread = False
        return raw

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._body_unread = True
        try:
            path = self.path.rstrip("/")
            if path == "/solve":
                self._solve()
            elif path == "/ingest":
                self._ingest()
            else:
                raise JobNotFound(self.path)
        except ServiceError as exc:
            self._send_error_json(exc)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        try:
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                from repro.version import engine_fingerprint

                closed = service.scheduler.closed
                self._send_json(
                    503 if closed else 200,
                    {
                        "status": "draining" if closed else "ok",
                        "version": _version(),
                        "engine": engine_fingerprint(),
                        "uptime_seconds": time.time() - service.started_at,
                    },
                )
            elif path == "/stats":
                stats = service.scheduler.stats()
                stats["version"] = _version()
                stats["uptime_seconds"] = time.time() - service.started_at
                self._send_json(200, stats)
            elif path == "/metrics":
                self._send(
                    200,
                    service.scheduler.metrics.render_prometheus().encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                want_progress = job_id.endswith("/progress")
                if want_progress:
                    job_id = job_id[: -len("/progress")]
                job = service.scheduler.job(job_id)
                if job is None:
                    raise JobNotFound(job_id)
                # A queued job whose deadline passed is timed out *now*,
                # not whenever a worker gets around to dequeuing it.
                job.expire_if_queued()
                if want_progress:
                    # Always 200: progress is a telemetry read, and the
                    # record carries the authoritative ``state`` either
                    # way (a failed job's watcher sees "failed", not an
                    # error page).
                    self._send_json(
                        200, job.progress_json(), trace_id=job.trace_id
                    )
                    return
                self._send_json(
                    _STATE_STATUS.get(job.state, 200), job.to_json(),
                    trace_id=job.trace_id,
                )
            else:
                raise JobNotFound(path)
        except ServiceError as exc:
            self._send_error_json(exc)

    # ------------------------------------------------------------------
    def _solve(self) -> None:
        service = self.server.service
        trace_id = resolve_trace_id(self.headers.get("X-Trace-Id"))
        body = _json_object(self._read_body(MAX_BODY_BYTES))
        matrix = _matrix_from_request(body)
        method = body.get("method", service.default_method)
        options = body.get("options") or {}
        if not isinstance(options, dict):
            raise BadRequest("'options' must be a JSON object")
        timeout = _optional_number(body.get("timeout"), "timeout")
        wait_seconds = _optional_number(
            body.get("wait_seconds"), "wait_seconds", service.wait_seconds
        )
        verify = body.get("verify", False)
        if not isinstance(verify, bool):
            raise BadRequest("'verify' must be a boolean")
        job = service.scheduler.submit(
            matrix, method, options,
            timeout=timeout,
            trace_id=trace_id,
            verify=verify,
        )
        if body.get("wait", True):
            job.wait(wait_seconds)
        self._send_job(job)

    # ------------------------------------------------------------------
    def _ingest(self) -> None:
        """``POST /ingest``: FASTA upload -> pipeline -> scheduled job.

        The pipeline's parse/QC/distance/repair stages run inline on the
        request thread inside the request's trace context, so
        ``ingest.stage`` spans carry the caller's ``X-Trace-Id``; only
        the solve itself goes through the scheduler's queue and workers.
        The stages are milliseconds at upload sizes: about 2 ms of CPU
        for 24 taxa x 600 bp on a 2-core host.
        """
        from repro.ingest import QCConfig, run_pipeline
        from repro.obs.recorder import trace_context

        service = self.server.service
        trace_id = resolve_trace_id(self.headers.get("X-Trace-Id"))
        raw = self._read_body(MAX_INGEST_BYTES)
        content_type = self.headers.get("Content-Type") or ""
        if content_type.startswith("multipart/form-data"):
            fields = _parse_multipart(raw, content_type)
        else:
            fields = _json_object(raw)

        fasta = fields.get("fasta")
        if not isinstance(fasta, str) or not fasta.strip():
            raise BadRequest(
                "provide the FASTA text in the 'fasta' field "
                "(JSON string or multipart part)"
            )
        mode = str(fields.get("mode", "strict"))
        if mode not in ("strict", "lenient"):
            raise BadRequest("'mode' must be 'strict' or 'lenient'")
        method = str(fields.get("method", service.default_method))

        # Multipart form fields arrive as strings; coerce the typed ones.
        def as_bool(value, name: str) -> bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                return value.lower() in ("1", "true", "yes")
            raise BadRequest(f"'{name}' must be a boolean")

        def as_object(value, name: str) -> dict:
            if value in (None, ""):
                return {}
            if isinstance(value, str):
                try:
                    value = decode_json(value)
                except json.JSONDecodeError as exc:
                    raise BadRequest(
                        f"'{name}' is not valid JSON: {exc.msg}"
                    ) from exc
                except RecursionError as exc:
                    raise BadRequest(
                        f"'{name}' is not valid JSON: {exc}"
                    ) from exc
            if not isinstance(value, dict):
                raise BadRequest(f"'{name}' must be a JSON object")
            return value

        verify = as_bool(fields.get("verify", False), "verify")
        options = as_object(fields.get("options"), "options")
        qc_fields = as_object(fields.get("qc"), "qc")
        try:
            max_length = qc_fields.get("max_length")
            qc = QCConfig(
                min_length=int(qc_fields.get("min_length", 1)),
                max_length=None if max_length is None else int(max_length),
                max_ambiguity=float(qc_fields.get("max_ambiguity", 0.1)),
            )
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid 'qc' config: {exc}") from exc
        timeout = _optional_number(fields.get("timeout"), "timeout")
        wait_seconds = _optional_number(
            fields.get("wait_seconds"), "wait_seconds", service.wait_seconds
        )

        holder: dict = {}

        def submit(matrix) -> dict:
            job = service.scheduler.submit(
                matrix, method, options,
                timeout=timeout,
                trace_id=trace_id,
                verify=verify,
            )
            holder["job"] = job
            return {
                "scheduled": True,
                "job_id": job.id,
                "method": method,
                "n_species": matrix.n,
            }

        try:
            with trace_context(trace_id):
                outcome = run_pipeline(
                    fasta,
                    text=True,
                    distance=str(fields.get("distance", "p")),
                    tree_method=method,
                    mode=mode,
                    qc=qc,
                    recorder=service.scheduler.recorder,
                    metrics=service.scheduler.metrics,
                    submit=submit,
                )
        except ValueError as exc:  # e.g. unknown distance method
            raise BadRequest(str(exc)) from exc
        manifest = outcome.manifest
        if manifest.status == "failed" or "job" not in holder:
            first = manifest.rejections[0] if manifest.rejections else None
            raise UnprocessableInput(
                first.detail if first else "ingestion pipeline failed",
                extra={
                    "rejections": [
                        r.to_json() for r in manifest.rejections
                    ],
                    "manifest": manifest.to_json(),
                },
            )
        job = holder["job"]
        job.manifest = manifest.to_json()
        if as_bool(fields.get("wait", True), "wait"):
            job.wait(wait_seconds)
        self._send_job(job)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default listen backlog of 5 resets connections under
    # concurrent bursts; the serving layer is built for exactly those.
    request_queue_size = 128
    service: "ServiceServer"


class ServiceServer:
    """Owns the HTTP listener and its :class:`Scheduler`.

    ``start()`` serves from a background thread (tests drive it this
    way); :func:`serve` runs the blocking signal-aware loop the CLI
    uses.  ``close(drain=True)`` stops admissions, drains the scheduler
    and releases the socket.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_method: str = "compact",
        wait_seconds: float = DEFAULT_WAIT_SECONDS,
        verbose: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.default_method = default_method
        self.wait_seconds = wait_seconds
        self.verbose = verbose
        self.started_at = time.time()
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.service = self
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` -- the real port even when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Serve from a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-svc-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, *, drain: bool = True) -> bool:
        """Stop the listener, drain (or cancel) jobs, release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        clean = self.scheduler.shutdown(drain=drain)
        if self._thread is not None:
            self._thread.join(5.0)
        return clean

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8533,
    workers: int = 4,
    queue_size: int = 64,
    cache_capacity: int = 256,
    cache_dir: Optional[str] = None,
    default_method: str = "compact",
    default_timeout: Optional[float] = None,
    backend: Optional[str] = None,
    start_method: Optional[str] = None,
    trace_out: Optional[str] = None,
    trace_max_mb: Optional[float] = None,
    trace_ring: int = 4096,
    verbose: bool = False,
    ready_line: bool = True,
) -> int:
    """Blocking server loop with SIGTERM/SIGINT graceful drain.

    ``backend`` selects the execution backend (``"thread"`` or
    ``"process"``); when omitted, :func:`select_backend` picks by the
    default method -- worker processes for the GIL-bound exact solvers,
    threads otherwise.  ``start_method`` forces a multiprocessing start
    method for the process backend.

    Metrics are always on: the scheduler records into the process-wide
    registry, served at ``GET /metrics`` (Prometheus text) and inside
    ``GET /stats`` (JSON) whether or not tracing is enabled.

    Tracing (``--trace-out``) streams: every closed span/counter is
    appended to the JSONL file as it happens (so a crash loses at most
    one torn final line), memory holds only the most recent
    ``trace_ring`` events, and ``--trace-max-mb`` rotates the file in
    place (previous generation kept as ``<name>.1``) -- the server can
    trace indefinitely in bounded memory and bounded disk.

    On the first signal the server stops accepting, drains queued and
    running jobs, closes the trace sink, and exits 0.  The "listening
    on ..." line goes to stdout so wrappers (tests, CI smoke) can scrape
    the bound port.
    """
    from repro.obs.streaming import StreamingRecorder
    from repro.service.cache import ResultCache

    recorder = None
    if trace_out:
        recorder = StreamingRecorder(
            trace_out,
            max_events=trace_ring,
            max_bytes=(
                int(trace_max_mb * 1024 * 1024) if trace_max_mb else None
            ),
        )
    if backend is None:
        backend = select_backend(default_method)
    scheduler = Scheduler(
        workers=workers,
        queue_size=queue_size,
        cache=ResultCache(capacity=cache_capacity, directory=cache_dir),
        recorder=recorder,
        default_timeout=default_timeout,
        backend=backend,
        start_method=start_method,
    )
    server = ServiceServer(
        scheduler,
        host=host,
        port=port,
        default_method=default_method,
        verbose=verbose,
    )
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        print(
            f"received {signal.Signals(signum).name}; draining...",
            file=sys.stderr,
            flush=True,
        )
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.start()
        if ready_line:
            print(f"repro-mut serve listening on {server.url}", flush=True)
        print(
            f"backend={backend} workers={workers} "
            f"default_method={default_method}",
            file=sys.stderr,
            flush=True,
        )
        stop.wait()
        clean = server.close(drain=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if recorder is not None:
        recorder.close()
        rotated = (
            f" ({recorder.rotations} rotation(s))" if recorder.rotations
            else ""
        )
        print(
            f"streamed {recorder.events_streamed} trace event(s) to "
            f"{trace_out}{rotated}",
            file=sys.stderr,
        )
    print("drained; bye", file=sys.stderr, flush=True)
    return 0 if clean else 1
