"""Acceptance test against a live ``repro-mut serve`` subprocess.

Covers the PR's acceptance criterion end to end:

* >= 32 concurrent ``POST /solve`` requests all succeed or are cleanly
  rejected with the typed queue-full error;
* warm-cache repeats answer from the scheduler in well under 10 ms,
  with ``cache.hit`` counters visible in the exported trace;
* SIGTERM drains in-flight jobs before exit (exit code 0, no orphaned
  worker threads keeping the process alive).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.matrix.generators import clustered_matrix
from repro.matrix.io import write_phylip
from repro.obs import CounterEvent, read_jsonl
from repro.service.client import ServiceClient
from repro.service.errors import QueueFull

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
N_CONCURRENT = 32

# Every test here boots a real subprocess server; deselect with -m "not slow".
pytestmark = pytest.mark.slow


@pytest.fixture
def live_server(tmp_path):
    """A ``repro-mut serve`` subprocess; yields (process, client, trace)."""
    trace_path = tmp_path / "service_trace.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--workers", "4",
            "--queue-size", str(N_CONCURRENT * 2),
            "--trace-out", str(trace_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        assert "listening on" in ready, f"server never came up: {ready!r}"
        url = ready.strip().split()[-1]
        yield proc, ServiceClient(url, timeout=60.0), trace_path
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


def test_live_concurrent_load_warm_cache_and_sigterm_drain(live_server):
    proc, client, trace_path = live_server
    matrix = clustered_matrix([4, 3], seed=3)

    assert client.healthz()["status"] == "ok"

    # --- >= 32 concurrent POST /solve: all succeed or typed-reject ----
    outcomes = [None] * N_CONCURRENT
    barrier = threading.Barrier(N_CONCURRENT)

    def fire(slot: int) -> None:
        barrier.wait(30.0)
        try:
            outcomes[slot] = client.solve(matrix, method="compact",
                                          wait_seconds=60.0)
        except QueueFull as exc:
            outcomes[slot] = exc

    threads = [
        threading.Thread(target=fire, args=(i,)) for i in range(N_CONCURRENT)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)

    completed = [o for o in outcomes if isinstance(o, dict)]
    rejected = [o for o in outcomes if isinstance(o, QueueFull)]
    assert len(completed) + len(rejected) == N_CONCURRENT
    assert completed, "every request was rejected"
    newicks = {o["result"]["newick"] for o in completed}
    assert len(newicks) == 1, "concurrent solves disagreed"

    # --- warm-cache repeats: scheduler answers in < 10 ms -------------
    durations = []
    for _ in range(20):
        t0 = time.perf_counter()
        record = client.solve(matrix, method="compact")
        durations.append(time.perf_counter() - t0)
        assert record["cache"] == "hit"
    durations.sort()
    median = durations[len(durations) // 2]
    assert median < 0.010, f"warm-cache median {median * 1e3:.2f} ms >= 10 ms"

    stats = client.stats()
    assert stats["cache"]["hits"] >= 20

    # --- SIGTERM drains and exits cleanly -----------------------------
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    stderr = proc.stderr.read()
    assert "draining" in stderr
    assert "drained; bye" in stderr

    # --- cache.hit counters landed in the exported schema-v1 trace ----
    events = read_jsonl(trace_path)
    counters = [e for e in events if isinstance(e, CounterEvent)]
    hits = sum(e.value for e in counters if e.name == "cache.hit")
    misses = sum(e.value for e in counters if e.name == "cache.miss")
    assert hits >= 20
    assert misses >= 1


def test_live_metrics_under_concurrent_load_and_trace_ids(live_server):
    proc, client, trace_path = live_server
    n_solvers = 8

    # Distinct matrices so nothing dedupes: one job (and one trace id)
    # per request.
    matrices = [clustered_matrix([3, 3], seed=100 + i) for i in range(n_solvers)]
    outcomes = [None] * n_solvers
    scrapes = []
    stop_scraping = threading.Event()
    barrier = threading.Barrier(n_solvers + 2)

    def solve(slot: int) -> None:
        barrier.wait(30.0)
        outcomes[slot] = client.solve(
            matrices[slot],
            method="compact",
            wait_seconds=60.0,
            trace_id=f"live-{slot}",
        )

    def scrape() -> None:
        barrier.wait(30.0)
        while not stop_scraping.is_set():
            scrapes.append(client.metrics())

    solvers = [
        threading.Thread(target=solve, args=(i,)) for i in range(n_solvers)
    ]
    scrapers = [threading.Thread(target=scrape) for _ in range(2)]
    for t in solvers + scrapers:
        t.start()
    for t in solvers:
        t.join(120.0)
    stop_scraping.set()
    for t in scrapers:
        t.join(30.0)

    # Every request completed and echoed its trace id.
    for slot, record in enumerate(outcomes):
        assert record["state"] == "done"
        assert record["trace_id"] == f"live-{slot}"

    # Scraping raced the solves without ever breaking the exposition.
    assert scrapes
    for text in scrapes:
        for line in text.strip().splitlines():
            assert line.startswith("#") or " " in line.strip()
    final = client.metrics()
    assert "service_job_seconds_bucket" in final
    assert "cache_miss_total" in final
    assert "service_queue_depth" in final

    # The exported trace carries every request's id end to end.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    stderr = proc.stderr.read()
    assert "streamed" in stderr and "trace event(s)" in stderr
    events = read_jsonl(trace_path)
    job_spans = [
        e for e in events
        if not isinstance(e, CounterEvent) and e.name == "service.job"
    ]
    seen_ids = {s.attrs.get("trace_id") for s in job_spans}
    assert {f"live-{i}" for i in range(n_solvers)} <= seen_ids


@pytest.fixture
def live_process_server(tmp_path):
    """A ``repro-mut serve --backend process`` subprocess (worker
    processes, so job progress crosses a process boundary)."""
    trace_path = tmp_path / "service_trace.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--workers", "2",
            "--backend", "process",
            "--trace-out", str(trace_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        assert "listening on" in ready, f"server never came up: {ready!r}"
        url = ready.strip().split()[-1]
        yield proc, ServiceClient(url, timeout=60.0), trace_path
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


def test_live_job_progress_stream_and_watch(live_process_server):
    """A slow capped exact solve publishes live snapshots with monotone
    bounds at ``GET /jobs/<id>/progress``, ``repro-mut watch`` renders
    them, and the heartbeats land in the streamed schema-v1 trace."""
    proc, client, trace_path = live_process_server
    matrix = clustered_matrix([13, 13], seed=5)

    record = client.solve(
        matrix,
        method="bnb",
        options={"node_limit": 30000},
        wait=False,
        trace_id="progress-live",
    )
    job_id = record["id"]
    assert record["state"] in ("pending", "running")

    snapshots = []
    state = None
    deadline = time.time() + 120.0
    while time.time() < deadline:
        body = client.job_progress(job_id)
        state = body["state"]
        assert body["id"] == job_id
        snap = body.get("progress")
        if snap is not None and (
            not snapshots or snap["time"] != snapshots[-1]["time"]
        ):
            assert snap["trace_id"] == "progress-live"
            snapshots.append(snap)
        if state not in ("pending", "running"):
            break
        time.sleep(0.05)
    assert state == "done", state
    assert len(snapshots) >= 2, snapshots

    # Convergence invariants across the live stream: the incumbent only
    # improves, the lower bound only tightens, effort only grows.
    incumbents = [
        s["incumbent_cost"] for s in snapshots
        if s["incumbent_cost"] is not None
    ]
    assert incumbents == sorted(incumbents, reverse=True)
    bounds = [
        s["best_lower_bound"] for s in snapshots
        if s["best_lower_bound"] is not None
    ]
    assert bounds == sorted(bounds)
    expanded = [s["nodes_expanded"] for s in snapshots]
    assert expanded == sorted(expanded)
    assert snapshots[-1]["final"] is True

    # The settled job still serves its last snapshot, and `watch` on it
    # renders the line and exits 0.
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "watch", job_id,
            "--url", client.base_url, "--interval", "0.1",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "[bnb]" in out.stdout
    assert f"job {job_id}: done" in out.stdout

    # The heartbeats crossed the process boundary into the streamed
    # schema-v1 trace, stamped with the request's trace id.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    events = read_jsonl(trace_path)
    progress_events = [
        e for e in events
        if isinstance(e, CounterEvent) and e.name == "bnb.progress"
    ]
    assert progress_events
    assert any(
        e.attrs.get("trace_id") == "progress-live" for e in progress_events
    )


def test_live_phylip_solve_and_version(live_server):
    proc, client, _ = live_server
    import io

    matrix = clustered_matrix([3, 3], seed=5)
    buffer = io.StringIO()
    write_phylip(matrix, buffer)
    record = client.solve(phylip=buffer.getvalue(), method="upgmm")
    assert record["state"] == "done"

    health = client.healthz()
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--version"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert out.returncode == 0
    assert health["version"] in out.stdout


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_sigkilled_server_leaves_no_worker_processes(live_process_server):
    """A SIGKILLed server never sends its workers the stop sentinel;
    they notice the lost parent and exit on their own."""
    proc, client, _ = live_process_server
    pids = [int(pid) for pid in client.stats()["worker_pids"].values()]
    assert len(pids) == 2
    assert all(_running(pid) for pid in pids)
    proc.kill()
    proc.wait(timeout=10)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(_running(p) for p in pids):
        time.sleep(0.1)
    assert not [pid for pid in pids if _running(pid)]
