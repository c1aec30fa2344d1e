"""Process plumbing for the service benchmark.

Launches ``repro-mut serve`` as its own process, reads what the host
and the program expose from outside (``/proc``, ``/healthz``,
``/stats``) and drives the server from a closed-loop load generator
over real HTTP.  Nothing here imports the ``repro`` package: the
server is measured only through what it exposes to a user or operator.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Budget for one HTTP exchange; the slowest request of any workload
#: takes well under a second, so anything near this is a hang.
REQUEST_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def _read_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may contain spaces.
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, found by parent pid."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _read_stat(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        tree.extend(children)
        frontier.extend(children)
    return tree


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU of ``pids`` (live processes only)."""
    total = 0
    for pid in pids:
        fields = _read_stat(pid)
        if fields is not None:
            # utime and stime are fields 14 and 15 of the full line.
            total += int(fields[11]) + int(fields[12])
    return total / CLK_TCK


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_counters() -> Tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate ``/proc/stat`` line."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user, so it is left out.
    return fields[7], sum(fields[:8])


#: What :func:`host_probe_ms` reads on the host the benchmark was tuned
#: on, in a fast phase.  CPU-bound timings are reported as they would
#: read on a host of that speed (see ``ledger.host_scale``).
REFERENCE_PROBE_MS = 8.0


def _probe_loop_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def host_probe_ms() -> float:
    """Host speed now: wall time of a fixed pure-Python loop.

    The loop runs pinned to each CPU this process may use in turn, best
    of three per CPU, and the CPUs' readings are averaged: the host's
    slow phases often hit one core and not the other, and the server
    uses both.  The caller's CPU affinity is restored before returning.
    """
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(min(_probe_loop_ms() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(readings) / len(readings)


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


class Server:
    """One ``repro-mut serve`` process, started from a source checkout."""

    def __init__(
        self,
        root: Path,
        workers: int,
        workdir: Path,
        *,
        trace_out: Optional[Path] = None,
    ) -> None:
        self.root = root
        self.workers = workers
        self.trace_out = trace_out
        self._stderr_path = workdir / f"serve-{os.getpid()}-{id(self)}.err"
        self._stderr = None
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.pids: List[int] = []

    def start(self, timeout: float = 60.0) -> "Server":
        """Launch and block until ``/healthz`` is OK and every worker
        process is up."""
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", str(self.workers),
        ]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._stderr = open(self._stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise ServerError(f"serve never came up: {self.stderr_tail()}")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    continue
                line += chunk
        url = line.decode().strip().split()[-1]
        host_port = url.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        while True:
            status, _ = self.get("/healthz")
            stats = self.get_json("/stats")
            pids = stats.get("worker_pids") or {}
            if status == 200 and len(pids) == self.workers and all(
                Path(f"/proc/{pid}").exists() for pid in pids.values()
            ):
                break
            if time.monotonic() > deadline:
                raise ServerError(f"workers never came up: {stats}")
            time.sleep(0.01)
        self.pids = process_tree(self.proc.pid)
        return self

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, data = self.get(path)
        if status != 200:
            raise ServerError(f"GET {path} answered {status}")
        return json.loads(data)

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return self._stderr_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM-drain the server and make sure its workers are gone."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(10)
        finally:
            # Workers are the server's children and end with its drain;
            # anything left over is killed, and waited for, here.
            leftovers = [p for p in self.pids[1:] if _read_stat(p) is not None]
            for pid in leftovers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and any(
                (_read_stat(p) or ["Z"])[0] != "Z" for p in leftovers
            ):
                time.sleep(0.01)
            self.proc.stdout.close()
            if self._stderr is not None:
                self._stderr.close()
            try:
                self._stderr_path.unlink()
            except OSError:
                pass
            self.proc = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# the closed-loop load generator
# ----------------------------------------------------------------------
@dataclass
class Exchange:
    """One request as the client saw it."""

    index: int
    latency_s: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None


@dataclass
class LoadResult:
    """A measured closed loop: every exchange, its wall time, and the
    load generator's own CPU over that time."""

    exchanges: List[Exchange]
    wall_s: float
    client_cpu_s: float


def closed_loop(
    server: Server,
    path: str,
    bodies: Sequence[bytes],
    *,
    clients: int,
    keep_alive: bool,
    trace_prefix: str,
    first: int = 0,
) -> LoadResult:
    """Send every body once from ``clients`` closed-loop clients.

    Each client sends its next request only after the previous reply
    arrived in full.  With ``keep_alive`` each client holds one
    persistent HTTP/1.1 connection; otherwise it opens a connection per
    request and asks the server to close it, as ``ServiceClient`` does.
    Body ``i`` is request ``first + i`` and carries
    ``X-Trace-Id: <trace_prefix>-<first + i>`` so the server's job
    records and spans can be matched to it.
    """
    exchanges = [Exchange(first + i) for i in range(len(bodies))]
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client() -> None:
        conn = None
        barrier.wait()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            ex = exchanges[index]
            headers = {
                "Content-Type": "application/json",
                "X-Trace-Id": f"{trace_prefix}-{ex.index}",
            }
            if not keep_alive:
                headers["Connection"] = "close"
            t0 = time.perf_counter()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=REQUEST_TIMEOUT_S
                    )
                conn.request("POST", path, body=bodies[index], headers=headers)
                response = conn.getresponse()
                ex.body = response.read()
                ex.status = response.status
            except (OSError, http.client.HTTPException) as exc:
                ex.error = f"{type(exc).__name__}: {exc}"
                if conn is not None:
                    conn.close()
                conn = None
            ex.latency_s = time.perf_counter() - t0
            if not keep_alive and conn is not None:
                conn.close()
                conn = None
        if conn is not None:
            conn.close()

    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    return LoadResult(exchanges, wall, time.process_time() - cpu0)
