"""Serving-layer throughput benchmark: cold vs warm-cache requests/sec.

Measures the full HTTP path (client -> ``http.server`` -> scheduler ->
solver/cache -> client) of an in-process :class:`ServiceServer`:

* **cold** -- every request carries a distinct matrix, so each one
  misses the cache and runs the solver;
* **warm** -- every request repeats one matrix, so all but the first
  are content-addressed cache hits.

Writes machine-readable ``BENCH_service.json`` next to
``BENCH_upgmm.json`` so later scaling PRs have a trajectory to beat.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke  # CI
                           # smoke: subprocess serve + one POST + SIGTERM drain
                           # (--backend process adds a multiprocess solve)
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --metrics-smoke
                           # subprocess serve + one POST + GET /metrics +
                           # live /jobs/<id>/progress snapshots during a
                           # capped exact solve
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --db run.sqlite
                           # also upsert summaries into a campaign DB
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --scaling
                           # thread vs process backend cold-solve scaling

The acceptance gate: warm-cache requests answer in under 10 ms median.
The report also measures the always-on metrics registry against a no-op
registry (``metrics_overhead``); the target is under 3 % on the
warm-cache scheduler path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_service.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.matrix.generators import (  # noqa: E402
    clustered_matrix,
    random_metric_matrix,
)
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.scheduler import Scheduler  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402


def _run_requests(client: ServiceClient, matrices, method: str):
    """Fire one request per matrix; returns per-request seconds."""
    durations = []
    for matrix in matrices:
        t0 = time.perf_counter()
        record = client.solve(matrix, method=method, wait_seconds=120.0)
        durations.append(time.perf_counter() - t0)
        assert record["state"] == "done", record
    return durations


def run(*, n_requests: int, species: int, method: str, workers: int) -> dict:
    with ServiceServer(Scheduler(workers=workers), port=0) as server:
        client = ServiceClient(server.url, timeout=120.0)
        cold_matrices = [
            clustered_matrix([species // 2, species - species // 2], seed=s)
            for s in range(n_requests)
        ]
        cold = _run_requests(client, cold_matrices, method)
        warm_matrix = cold_matrices[0]
        warm = _run_requests(client, [warm_matrix] * n_requests, method)
        stats = client.stats()

    def summarise(durations):
        return {
            "requests": len(durations),
            "total_seconds": sum(durations),
            "requests_per_second": len(durations) / sum(durations),
            "median_ms": statistics.median(durations) * 1e3,
            "p95_ms": sorted(durations)[int(0.95 * (len(durations) - 1))] * 1e3,
        }

    report = {
        "benchmark": "service-throughput",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "method": method,
        "species": species,
        "workers": workers,
        "cold": summarise(cold),
        "warm": summarise(warm),
        "cache": stats["cache"],
        "acceptance": {
            "warm_median_ms": statistics.median(warm) * 1e3,
            "required_max_ms": 10.0,
            "passed": statistics.median(warm) < 0.010,
        },
    }
    for phase in ("cold", "warm"):
        row = report[phase]
        print(
            f"{phase:5s}  {row['requests']:4d} req  "
            f"{row['requests_per_second']:8.1f} req/s  "
            f"median {row['median_ms']:8.3f} ms  p95 {row['p95_ms']:8.3f} ms"
        )
    return report


def measure_metrics_overhead(
    *, n_requests: int, species: int, method: str
) -> dict:
    """Median warm-cache request latency: no-op vs live registry.

    Runs the full HTTP path twice -- once with the scheduler wired to
    :data:`NULL_METRICS`, once with a live registry -- over identical
    warm-cache requests, so the only difference between runs is whether
    counters/histograms/gauges record.
    """
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry

    # Warm cache hits are ~1 ms, so oversample: medians over a handful of
    # HTTP round-trips jitter far more than the effect being measured.
    n_requests = max(n_requests * 5, 100)
    matrix = clustered_matrix([species // 2, species - species // 2], seed=0)

    def timed(metrics):
        with ServiceServer(
            Scheduler(workers=1, metrics=metrics), port=0
        ) as server:
            client = ServiceClient(server.url, timeout=120.0)
            client.solve(matrix, method=method, wait_seconds=120.0)  # prime
            durations = _run_requests(client, [matrix] * n_requests, method)
        return statistics.median(durations)

    # One discarded run absorbs first-server warm-up (imports, thread
    # spin-up); then alternate which configuration goes first on each
    # repeat so drift (turbo, background load) hits both sides equally.
    timed(NULL_METRICS)
    off_medians, on_medians = [], []
    for repeat in range(4):
        pair = [(NULL_METRICS, off_medians), (MetricsRegistry(), on_medians)]
        if repeat % 2:
            pair.reverse()
        for metrics, sink in pair:
            sink.append(timed(metrics))
    off = min(off_medians)
    on = min(on_medians)
    overhead = (on - off) / off * 100.0 if off > 0 else 0.0
    report = {
        "requests_per_run": n_requests,
        "off_median_ms": off * 1e3,
        "on_median_ms": on * 1e3,
        "overhead_percent": overhead,
        "target_max_percent": 3.0,
        "within_target": overhead < 3.0,
    }
    print(
        f"metrics overhead: off {report['off_median_ms']:.3f} ms  "
        f"on {report['on_median_ms']:.3f} ms  "
        f"overhead {overhead:+.2f}% (target < 3%)"
    )
    if not report["within_target"]:
        print(
            "WARNING: metrics overhead above 3% target (advisory only; "
            "micro-timings are noisy on shared runners)",
            file=sys.stderr,
        )
    return report


def measure_process_scaling(
    *,
    species: int,
    jobs_per_worker: int = 2,
    worker_counts=(1, 2, 4),
    method: str = "bnb",
) -> dict:
    """Cold exact-solve throughput: thread vs process backend.

    Submits ``jobs_per_worker * workers`` distinct matrices directly to
    a fresh scheduler (no HTTP, no cache reuse between runs) and times
    first-submit to last-result.  The workload is pure branch-and-bound
    on random *metric* (not ultrametric-like) matrices -- hundreds of
    milliseconds of GIL-holding search per job, so solve time dominates
    the per-job process transport and the comparison measures execution,
    not dispatch.  The thread backend cannot exceed one core on this
    workload; the process backend's speedup is bounded by ``cpu_cores``,
    which the report records -- a 1-core runner *cannot* show scaling,
    and says so instead of faking it.  Also asserts the process backend
    forwarded the child processes' spans and metrics into the parent's
    recorder/registry.
    """
    from repro.matrix.generators import random_metric_matrix
    from repro.obs import MetricsRegistry, Recorder

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1

    def one_run(backend: str, workers: int) -> dict:
        n = jobs_per_worker * workers
        matrices = [
            random_metric_matrix(species, seed=7000 + i) for i in range(n)
        ]
        recorder = Recorder()
        metrics = MetricsRegistry()
        scheduler = Scheduler(
            workers=workers,
            backend=backend,
            recorder=recorder,
            metrics=metrics,
            queue_size=max(64, n),
        )
        try:
            t0 = time.perf_counter()
            handles = [scheduler.submit(m, method) for m in matrices]
            for handle in handles:
                handle.result(600.0)
            elapsed = time.perf_counter() - t0
        finally:
            scheduler.shutdown()
        solver_spans = sum(
            1 for e in recorder.events
            if getattr(e, "name", "").startswith(("bnb.", "pipeline."))
        )
        snapshot = metrics.snapshot()
        solve_metrics = any("solve.seconds" in k for k in snapshot)
        if backend == "process":
            assert solver_spans > 0, (
                "process backend forwarded no child spans to the parent"
            )
            assert solve_metrics, (
                "process backend forwarded no child metrics to the parent"
            )
        return {
            "requests": n,
            "seconds": elapsed,
            "requests_per_second": n / elapsed,
            "solver_spans_in_parent_trace": solver_spans,
            "solve_metrics_in_parent_registry": solve_metrics,
        }

    rows = []
    for workers in worker_counts:
        thread = one_run("thread", workers)
        process = one_run("process", workers)
        speedup = (
            process["requests_per_second"] / thread["requests_per_second"]
        )
        rows.append({
            "workers": workers,
            "thread": thread,
            "process": process,
            "process_vs_thread_speedup": speedup,
        })
        print(
            f"workers {workers}:  thread "
            f"{thread['requests_per_second']:7.2f} req/s   process "
            f"{process['requests_per_second']:7.2f} req/s   speedup "
            f"{speedup:5.2f}x"
        )
    top = rows[-1]
    evaluable = cores >= top["workers"]
    report = {
        "method": method,
        "species": species,
        "jobs_per_worker": jobs_per_worker,
        "cpu_cores": cores,
        "rows": rows,
        "acceptance": {
            "required_speedup": 3.0,
            "at_workers": top["workers"],
            "measured_speedup": top["process_vs_thread_speedup"],
            "evaluable": evaluable,
            "passed": (
                top["process_vs_thread_speedup"] >= 3.0 if evaluable
                else None
            ),
            "note": (
                "speedup is bounded above by available cores; this host "
                f"exposes {cores} core(s)"
            ),
        },
    }
    if not evaluable:
        print(
            f"NOTE: host exposes {cores} core(s) < {top['workers']} "
            "workers; the 3x scaling target is not evaluable here "
            "(recorded honestly, not faked)",
            file=sys.stderr,
        )
    return report


def metrics_smoke() -> int:
    """CI smoke: serve subprocess, one solve, /metrics content, and the
    live-progress path: a node-capped n=26 exact solve through the
    process backend must publish >= 2 distinct ``/jobs/<id>/progress``
    snapshots while running, and ``bnb_gap`` must reach ``/metrics``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--backend", "process"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    try:
        ready = proc.stdout.readline().strip()
        print(ready)
        assert "listening on" in ready, f"server never came up: {ready!r}"
        client = ServiceClient(ready.split()[-1], timeout=60.0)
        record = client.solve(clustered_matrix([3, 3], seed=1))
        assert record["state"] == "done", record
        text = client.metrics()
        for needle in ("service_job_seconds_bucket", "cache_miss_total"):
            assert needle in text, f"/metrics is missing {needle!r}:\n{text}"
        stats = client.stats()
        assert "metrics" in stats, sorted(stats)

        # Live progress: capped exact solve, polled while it runs.
        slow = client.solve(
            clustered_matrix([13, 13], seed=5),
            method="bnb",
            options={"node_limit": 30000},
            wait=False,
        )
        job_id = slow["id"]
        snapshots = []
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            progress = client.job_progress(job_id)
            snap = progress.get("progress")
            if snap and (
                not snapshots or snap["time"] != snapshots[-1]["time"]
            ):
                snapshots.append(snap)
            if progress["state"] not in ("pending", "running"):
                break
            time.sleep(0.05)
        assert progress["state"] == "done", progress
        assert len(snapshots) >= 2, (
            f"expected >= 2 distinct progress snapshots, got "
            f"{len(snapshots)}: {snapshots}"
        )
        text = client.metrics()
        assert "bnb_gap" in text, f"/metrics is missing bnb_gap:\n{text}"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0, f"serve exited {code}: {proc.stderr.read()}"
        print(f"metrics smoke OK: /metrics exposes job histogram + cache "
              f"counters; live progress published {len(snapshots)} "
              f"snapshot(s) + bnb_gap gauge")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def smoke(backend: str = None) -> int:
    """CI smoke: subprocess serve, one POST /solve, assert 200, drain.

    With ``backend="process"`` it also posts one ``multiprocess`` solve
    and requires it to settle ``done``."""
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    if backend:
        cmd += ["--backend", backend]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    try:
        ready = proc.stdout.readline().strip()
        print(ready)
        assert "listening on" in ready, f"server never came up: {ready!r}"
        client = ServiceClient(ready.split()[-1], timeout=60.0)
        record = client.solve(clustered_matrix([3, 3], seed=1))
        assert record["state"] == "done", record
        print(f"solved: {record['result']['newick']}")
        if backend == "process":
            # The multiprocess engine starts worker processes of its own,
            # which a (daemonic) slot child may not do.  Nine species
            # leave work for both workers after the master's pre-branch.
            record = client.solve(
                random_metric_matrix(9, seed=1),
                method="multiprocess",
                options={"workers": 2},
            )
            assert record["state"] == "done", record
            print(f"multiprocess solved: cost {record['result']['cost']}")
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        stderr = proc.stderr.read()
        assert "drained; bye" in stderr, stderr
        if backend:
            assert f"backend={backend}" in stderr, stderr
        assert code == 0, f"serve exited {code}"
        print(f"smoke OK: solve 200 + SIGTERM drain "
              f"(backend={backend or 'auto'})")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer, smaller requests (CI mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="subprocess smoke test only; no benchmark")
    parser.add_argument("--metrics-smoke", action="store_true",
                        help="subprocess /metrics smoke test only; no benchmark")
    parser.add_argument("--scaling", action="store_true",
                        help="measure thread vs process backend scaling and "
                             "merge a process_scaling section into --out")
    parser.add_argument("--backend", default=None,
                        choices=("auto", "thread", "process"),
                        help="backend the --smoke subprocess serves with")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--species", type=int, default=None)
    parser.add_argument("--method", default="compact")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    parser.add_argument("--db", default=None,
                        help="also upsert the cold/warm summaries into this "
                             "campaign run database (repro-mut campaign "
                             "trend charts them across versions)")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.backend)
    if args.metrics_smoke:
        return metrics_smoke()
    if args.scaling:
        scaling = measure_process_scaling(
            species=args.species or 18,
            method="bnb" if args.method == "compact" else args.method,
        )
        report = (
            json.loads(args.out.read_text()) if args.out.exists() else
            {"benchmark": "service-throughput"}
        )
        report["process_scaling"] = scaling
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote process_scaling into {args.out}")
        return 0
    n_requests = args.requests or (10 if args.quick else 40)
    species = args.species or (8 if args.quick else 12)
    report = run(
        n_requests=n_requests,
        species=species,
        method=args.method,
        workers=args.workers,
    )
    report["metrics_overhead"] = measure_metrics_overhead(
        n_requests=n_requests,
        species=species,
        method=args.method,
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.db:
        from _benchdb import persist_bench_results

        rows = []
        for phase in ("cold", "warm"):
            row = report[phase]
            rows.append({
                "case_id": f"{phase}-n{species}",
                "method": args.method,
                "n": species,
                "wall_seconds": row["total_seconds"],
                "solve_seconds": row["median_ms"] / 1e3,
                "options": {"requests": row["requests"], "phase": phase},
                "counters": {
                    "bench.requests_per_second": row["requests_per_second"],
                    "bench.p95_ms": row["p95_ms"],
                    "bench.metrics_overhead_percent": (
                        report["metrics_overhead"]["overhead_percent"]
                    ),
                },
            })
        name = persist_bench_results(
            args.db, bench="bench-service", rows=rows
        )
        print(f"upserted {len(rows)} case(s) into {args.db} "
              f"as campaign {name!r}")
    if not report["acceptance"]["passed"]:
        print("ACCEPTANCE FAILED: warm-cache median >= 10 ms", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
