"""A small stdlib client for the ``repro-mut serve`` JSON API.

Used by the tests, the throughput benchmark and the CI smoke step; kept
dependency-free (``urllib``) so it works anywhere the package does::

    client = ServiceClient("http://127.0.0.1:8533")
    record = client.solve(matrix)           # blocks for the result
    print(record["result"]["newick"])

Server-side typed errors are raised back as their client-side classes:
a saturated queue raises :class:`~repro.service.errors.QueueFull`, an
unknown job :class:`~repro.service.errors.JobNotFound`, and so on.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Optional

from repro.matrix.distance_matrix import DistanceMatrix
from repro.service.errors import (
    BadRequest,
    JobNotFound,
    PayloadTooLarge,
    QueueFull,
    SchedulerClosed,
    ServiceError,
    UnprocessableInput,
)

__all__ = ["ServiceClient"]

def _raise_for_payload(status: int, payload: dict) -> None:
    code = payload.get("error")
    detail = str(payload.get("detail", f"HTTP {status}"))
    if code == QueueFull.code:
        raise QueueFull()
    if code == SchedulerClosed.code:
        raise SchedulerClosed()
    if code == JobNotFound.code:
        raise JobNotFound(detail)
    if code == BadRequest.code:
        raise BadRequest(detail)
    if code == PayloadTooLarge.code:
        error = PayloadTooLarge(0)
        error.args = (detail,)
        raise error
    if code == UnprocessableInput.code:
        extra = {
            k: v for k, v in payload.items()
            if k not in ("error", "detail")
        }
        raise UnprocessableInput(detail, extra=extra)
    error = ServiceError(f"{code or 'error'}: {detail}")
    error.http_status = status
    raise error


class ServiceClient:
    """Thin JSON-over-HTTP wrapper around one server's endpoints."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> dict:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except (json.JSONDecodeError, OSError):
                payload = {}
            # Job records (failed/timed-out jobs) and the draining
            # healthz body come back with non-200 statuses; those are
            # results, not errors.
            if isinstance(payload, dict) and (
                "state" in payload or "status" in payload
            ):
                return payload
            _raise_for_payload(exc.code, payload if isinstance(payload, dict) else {})
            raise  # pragma: no cover - _raise_for_payload always raises

    # ------------------------------------------------------------------
    def solve(
        self,
        matrix: Optional[DistanceMatrix] = None,
        *,
        phylip: Optional[str] = None,
        method: Optional[str] = None,
        options: Optional[dict] = None,
        wait: bool = True,
        wait_seconds: Optional[float] = None,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
        verify: bool = False,
    ) -> dict:
        """``POST /solve``; returns the job record (see ``Job.to_json``).

        Pass either a :class:`DistanceMatrix` or ``phylip=`` text.  With
        ``wait=False`` the record comes back immediately, ``pending``
        unless the input was cached (then ``done``); poll it with
        :meth:`job`.  ``trace_id`` is sent as the
        ``X-Trace-Id`` header; the server honours it (when sane) and
        stamps it on every event the request causes.  ``verify=True``
        asks the server to run the result oracles on the payload; their
        findings come back under ``record["verification"]``.
        """
        if (matrix is None) == (phylip is None):
            raise ValueError("provide exactly one of matrix or phylip")
        body: dict = {"wait": wait}
        if matrix is not None:
            body["matrix"] = {
                "values": [list(map(float, row)) for row in matrix.values],
                "labels": matrix.labels,
            }
        else:
            body["phylip"] = phylip
        if method is not None:
            body["method"] = method
        if options:
            body["options"] = options
        if wait_seconds is not None:
            body["wait_seconds"] = wait_seconds
        if timeout is not None:
            body["timeout"] = timeout
        if verify:
            body["verify"] = True
        headers = {"X-Trace-Id": trace_id} if trace_id else None
        return self._request("POST", "/solve", body, headers)

    def ingest(
        self,
        fasta: str,
        *,
        distance: str = "p",
        mode: str = "strict",
        method: Optional[str] = None,
        qc: Optional[dict] = None,
        options: Optional[dict] = None,
        wait: bool = True,
        wait_seconds: Optional[float] = None,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
        verify: bool = False,
        multipart: bool = False,
    ) -> dict:
        """``POST /ingest``; returns the job record with its manifest.

        ``fasta`` is the raw FASTA text.  A QC-rejected upload raises
        :class:`~repro.service.errors.UnprocessableInput` whose
        ``extra`` dict carries the structured rejection records and the
        failure manifest; an oversized one raises
        :class:`~repro.service.errors.PayloadTooLarge`.  With
        ``multipart=True`` the upload is sent as
        ``multipart/form-data`` (exercising the file-upload path)
        instead of JSON.
        """
        body: dict = {"fasta": fasta, "distance": distance, "mode": mode,
                      "wait": wait}
        if method is not None:
            body["method"] = method
        if qc:
            body["qc"] = qc
        if options:
            body["options"] = options
        if wait_seconds is not None:
            body["wait_seconds"] = wait_seconds
        if timeout is not None:
            body["timeout"] = timeout
        if verify:
            body["verify"] = True
        headers = {"X-Trace-Id": trace_id} if trace_id else {}
        if not multipart:
            return self._request("POST", "/ingest", body, headers)

        boundary = "reproingest"
        parts = []
        for name, value in body.items():
            if isinstance(value, dict):
                value = json.dumps(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            filename = '; filename="upload.fasta"' if name == "fasta" else ""
            parts.append(
                f"--{boundary}\r\n"
                f'Content-Disposition: form-data; name="{name}"{filename}'
                f"\r\n\r\n{value}\r\n"
            )
        parts.append(f"--{boundary}--\r\n")
        data = "".join(parts).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + "/ingest",
            data=data,
            method="POST",
            headers={
                "Content-Type": (
                    f"multipart/form-data; boundary={boundary}"
                ),
                **headers,
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except (json.JSONDecodeError, OSError):
                payload = {}
            if isinstance(payload, dict) and "state" in payload:
                return payload
            _raise_for_payload(
                exc.code, payload if isinstance(payload, dict) else {}
            )
            raise  # pragma: no cover - _raise_for_payload always raises

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``."""
        return self._request("GET", f"/jobs/{job_id}")

    def job_progress(self, job_id: str) -> dict:
        """``GET /jobs/<id>/progress`` -- the latest live solver snapshot.

        Returns ``{"id", "state", "trace_id", "progress"}`` where
        ``progress`` is ``None`` until the solver's first heartbeat.
        Cheap to poll at a high rate (no result payload in the body).
        """
        return self._request("GET", f"/jobs/{job_id}/progress")

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """``GET /metrics`` -- the Prometheus text exposition, verbatim."""
        request = urllib.request.Request(
            self.base_url + "/metrics", method="GET"
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return resp.read().decode("utf-8")
