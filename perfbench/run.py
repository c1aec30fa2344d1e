#!/usr/bin/env python3
"""Service benchmark: ``repro-mut serve`` under closed-loop HTTP load.

Starts the server from this checkout's ``src/`` as its own process
(production defaults, ``--workers $(nproc)``), drives it from one
load-generator process with ``nproc`` closed-loop clients, checks
every response, and prints the end-to-end metrics (``--trace 0``) or
the per-layer ledger of a traced run (``--trace 1``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-compact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cold-compact --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke        # every workload, a few seconds

See ``perfbench/README.md`` for the workloads and the metric
definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import ledger
from harness import (
    REFERENCE_PROBE_MS,
    Exchange,
    LoadResult,
    Server,
    closed_loop,
    cpu_counters,
    cpu_seconds,
    host_probe_ms,
    peak_rss_mb,
    process_tree,
)

ROOT = Path(__file__).resolve().parent.parent

#: Server starts per untraced run: ``setup_s`` is their median, and the
#: measured requests are split across them so one slow process cannot
#: move a run on its own.
ROUNDS = 3

#: About how long one slice of measured load lasts.  The host's speed
#: is probed between slices, so a slice is the unit the host-speed
#: adjustment works on; shorter slices track the host more closely but
#: drain the closed loop more often.
SLICE_SECONDS = 1.0

#: Tolerance of the reported-cost check, as the service promises it.
COST_EPS = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


def _source_or_exit() -> None:
    """Put this checkout's ``src/`` first on the path, or stop: the
    benchmark measures the program beside it and nothing else."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextmanager
def _pool():
    """``nproc`` forked worker processes for the untimed work (making
    bodies, checking responses); yields their ``map``.  Leaving the
    block shuts the workers down and waits for them, so none is alive
    while a server is measured."""
    with ProcessPoolExecutor(
        max_workers=_nproc(), mp_context=multiprocessing.get_context("fork")
    ) as executor:
        yield partial(executor.map, chunksize=16)


def _speed(before_ms: float, after_ms: float) -> float:
    """Reference probe time over the mean of two probes: below 1 when
    the host ran slower than the reference."""
    return 2.0 * REFERENCE_PROBE_MS / (before_ms + after_ms)


@dataclass
class Slice:
    """A stretch of measured load between two host-speed probes."""

    load: LoadResult
    #: CPU of the server and its workers over the slice.
    cpu_s: float
    #: Host speed around the slice, relative to the reference.
    speed: float
    #: CPU seconds of the server, its workers and the load generator
    #: per wall second of the slice.
    busy: float

    @property
    def scale(self) -> float:
        return ledger.host_scale(self.busy, self.speed)


@dataclass
class Round:
    """One server process: set-up, then measured slices of load."""

    bodies: List[bytes]
    setup_s: float
    setup_speed: float
    slices: List[Slice]
    probes_ms: List[float]
    rss_mb: float
    steal: int
    jiffies: int
    deltas: dict
    prefix: str

    @property
    def exchanges(self) -> List[Exchange]:
        return [ex for s in self.slices for ex in s.load.exchanges]

    @property
    def scales(self) -> List[float]:
        """Each request's slice scale, in request order."""
        return [s.scale for s in self.slices for _ in s.load.exchanges]


@dataclass
class Outcome:
    """What the checks found; the lists hold the requests that passed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    bodies: List[bytes] = field(default_factory=list)
    records: List[dict] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    trace_ids: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    @property
    def costs(self) -> List[float]:
        return [record["result"]["cost"] for record in self.records]

    def add_counts(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    @classmethod
    def merged(cls, parts: Sequence["Outcome"]) -> "Outcome":
        out = cls()
        for part in parts:
            out.add_counts(part)
            out.bodies += part.bodies
            out.records += part.records
            out.latencies_s += part.latencies_s
            out.scales += part.scales
            out.trace_ids += part.trace_ids
        return out


def run_round(workload, bodies, warmup, *, workdir, prefix,
              trace_out=None) -> Round:
    """Start a server, warm it up, measure ``bodies`` in slices with a
    host-speed probe before and after each, drain it."""
    workers = _nproc()
    size = max(1, round(workload.per_second * SLICE_SECONDS))
    probes = [host_probe_ms()]
    t_launch = time.perf_counter()
    with Server(ROOT, workers, workdir, trace_out=trace_out) as server:
        server.start()
        warm = closed_loop(
            server, workload.path, warmup, clients=workers,
            keep_alive=workload.keep_alive, trace_prefix=f"{prefix}w",
        )
        setup_s = time.perf_counter() - t_launch
        bad = [ex for ex in warm.exchanges if ex.error or ex.status != 200]
        if bad:
            raise BenchError(
                f"warm-up request failed: {bad[0].status} {bad[0].error} "
                f"{bad[0].body[:300]!r}"
            )
        pids = process_tree(server.proc.pid)
        probes.append(host_probe_ms())
        before = server.get_json("/stats")["metrics"]
        steal0, total0 = cpu_counters()
        slices = []
        for first in range(0, len(bodies), size):
            cpu0 = cpu_seconds(pids)
            load = closed_loop(
                server, workload.path, bodies[first:first + size],
                clients=workers, keep_alive=workload.keep_alive,
                trace_prefix=prefix, first=first,
            )
            cpu_s = cpu_seconds(pids) - cpu0
            probes.append(host_probe_ms())
            slices.append(Slice(
                load=load, cpu_s=cpu_s, speed=_speed(probes[-2], probes[-1]),
                busy=(cpu_s + load.client_cpu_s) / load.wall_s,
            ))
        steal1, total1 = cpu_counters()
        after = server.get_json("/stats")["metrics"]
        rss = peak_rss_mb(pids)
    return Round(
        bodies=list(bodies), setup_s=setup_s,
        setup_speed=_speed(probes[0], probes[1]), slices=slices,
        probes_ms=probes, rss_mb=rss, steal=steal1 - steal0,
        jiffies=total1 - total0, deltas=ledger.metric_deltas(before, after),
        prefix=prefix,
    )


def input_matrix(workload, body: bytes, record: dict):
    """The matrix a request asked the server to solve."""
    from repro.matrix.distance_matrix import DistanceMatrix

    if workload.path == "/ingest":
        repaired = record["manifest"]["stages"][3]["artifacts"]["matrix"]
        return DistanceMatrix(repaired["values"], repaired["labels"])
    matrix = json.loads(body)["matrix"]
    return DistanceMatrix(matrix["values"], matrix["labels"])


def check_response(name: str, status: int, error: Optional[str],
                   reply: bytes, body: bytes):
    """Check one response of workload ``name`` to request ``body``.

    Returns ``(problem, record)``: ``problem`` is ``None`` when the
    request passed, and ``record`` is its parsed job record.  A request
    counts as failed unless it answered HTTP 200 with ``state: done``,
    the cache outcome the workload implies, a reported cost equal to
    its Newick's cost within 1e-9, and a tree the result oracles find
    clean against the input matrix (so ``d_T >= M``).  A pure function
    of its arguments, so the checks can run in a process pool.
    """
    from repro.tree.newick import parse_newick
    from repro.verify.oracles import run_oracles
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    try:
        if error or status != 200:
            raise ValueError(f"HTTP {status} {error or ''}")
        record = json.loads(reply)
        if record.get("state") != "done":
            raise ValueError(f"state {record.get('state')!r}")
        want_cache = "miss" if workload.cold else "hit"
        if record.get("cache") != want_cache:
            raise ValueError(f"cache {record.get('cache')!r}")
        result = record["result"]
        tree = parse_newick(result["newick"])
        if abs(tree.cost() - result["cost"]) > COST_EPS:
            raise ValueError(
                f"cost {result['cost']!r} but newick gives {tree.cost()!r}"
            )
        violations = run_oracles(
            tree, input_matrix(workload, body, record),
            reported_cost=result["cost"], method=record["method"],
        )
        if violations:
            raise ValueError(f"oracles: {violations[0]}")
        if workload.path == "/ingest" and not (
            record.get("verification") or {}
        ).get("ok"):
            raise ValueError("server-side verification not ok")
    except (ValueError, KeyError, TypeError) as exc:
        return str(exc), None
    return None, record


def check_round(workload, rnd: Round, mapper=map) -> Outcome:
    """Check every response of one round, outside any timed window, with
    :func:`check_response` mapped by ``mapper``.  The round's ``/stats``
    deltas must also show exactly one cache hit (warm) or miss (cold)
    per request."""
    out = Outcome()
    hits = ledger.delta_total(rnd.deltas, "cache.hit", "value")
    misses = ledger.delta_total(rnd.deltas, "cache.miss", "value")
    expected = (0, len(rnd.bodies)) if workload.cold else (len(rnd.bodies), 0)
    if (hits, misses) != expected:
        out.problems.append(
            f"round {rnd.prefix}: cache hits/misses {hits:g}/{misses:g}, "
            f"expected {expected[0]}/{expected[1]}"
        )
    exchanges = rnd.exchanges
    checked = mapper(
        check_response,
        [workload.name] * len(exchanges),
        [ex.status for ex in exchanges],
        [ex.error for ex in exchanges],
        [ex.body for ex in exchanges],
        rnd.bodies,
    )
    for ex, body, scale, (problem, record) in zip(
        exchanges, rnd.bodies, rnd.scales, checked
    ):
        out.attempted += 1
        if problem is not None:
            out.failed += 1
            if len(out.problems) < 5:
                out.problems.append(f"{rnd.prefix}-{ex.index}: {problem}")
            continue
        out.bodies.append(body)
        out.records.append(record)
        out.latencies_s.append(ex.latency_s)
        out.scales.append(scale)
        out.trace_ids.append(f"{rnd.prefix}-{ex.index}")
    return out


def digest_of(values: Sequence[float]) -> str:
    """Digest of per-request values in request order; the same seed
    must reproduce it exactly."""
    h = hashlib.sha256()
    for value in values:
        h.update(repr(float(value)).encode("ascii") + b"\n")
    return h.hexdigest()[:16]


def diagnostics(rounds: Sequence[Round], outcome: Outcome) -> dict:
    """Run record fields that explain an outlier run; never gated."""
    from repro.version import engine_fingerprint

    slices = [s for r in rounds for s in r.slices]
    wall = sum(s.load.wall_s for s in slices)
    jiffies = sum(r.jiffies for r in rounds)
    probes = [p for r in rounds for p in r.probes_ms]
    n = len(outcome.latencies_s)
    return {
        "nproc": _nproc(),
        "engine": engine_fingerprint(),
        "python": platform.python_version(),
        "steal_pct": 100.0 * sum(r.steal for r in rounds) / jiffies
        if jiffies else 0.0,
        "probe_ms": {"min": min(probes), "median": statistics.median(probes),
                     "max": max(probes), "reference": REFERENCE_PROBE_MS},
        "busy_cores": sum(s.busy * s.load.wall_s for s in slices) / wall,
        "loadgen_cpu_pct": 100.0 * sum(s.load.client_cpu_s for s in slices)
        / wall,
        "slices": len(slices),
        "latency_samples": n,
        "p90_supported": ledger.percentile_supported(n, 0.9),
        "cost_digest": digest_of(outcome.costs),
        "as_measured": end_to_end(rounds, outcome, adjusted=False),
    }


def end_to_end(rounds: Sequence[Round], outcome: Outcome, *,
               adjusted: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of ``rounds``.

    With ``adjusted`` every time is reported as it would read on a host
    of reference speed: a slice's wall time and latencies by its
    ``Slice.scale``, CPU time and set-up time by the probed host speed.
    Without it, as measured.
    """
    slices = [s for r in rounds for s in r.slices]
    done = len(outcome.latencies_s)
    scales = outcome.scales if adjusted else [1.0] * done
    latency_ms = [s * g * 1e3 for s, g in zip(outcome.latencies_s, scales)]
    wall = sum(s.load.wall_s * (s.scale if adjusted else 1.0) for s in slices)
    cpu = sum(s.cpu_s * (s.speed if adjusted else 1.0) for s in slices)
    return {
        "setup_s": statistics.median(
            r.setup_s * (r.setup_speed if adjusted else 1.0) for r in rounds
        ),
        "throughput_rps": done / wall,
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_p90_ms": ledger.percentile(latency_ms, 0.9),
        "cpu_ms_per_req": cpu / done * 1e3,
        "server_rss_mb": statistics.median(r.rss_mb for r in rounds),
    }


def direct_timings(workload, outcome: Outcome) -> Dict[str, float]:
    """Layer timings and sizes measured in this process by calling the
    layers' public functions on the workload's own bodies and answers."""
    import pickle

    from repro.matrix.distance_matrix import DistanceMatrix
    from repro.service.cache import cache_key
    from repro.tree.newick import parse_newick, to_newick

    clock = time.perf_counter
    decode = digest = parse = write = 0.0
    task_bytes = 0
    for body, record in zip(outcome.bodies, outcome.records):
        t0 = clock()
        request = json.loads(body)
        if workload.path == "/solve":
            raw = request["matrix"]
            DistanceMatrix(raw["values"], raw["labels"])
        decode += clock() - t0
        matrix = input_matrix(workload, body, record)
        options = request.get("options") or {}
        t0 = clock()
        cache_key(matrix, record["method"], options)
        digest += clock() - t0
        if workload.cold:
            # The tuple Scheduler._run_in_slot ships to a worker process.
            task = (matrix.values.tolist(), list(matrix.labels),
                    record["method"], dict(options), record["trace_id"], True)
            task_bytes += len(pickle.dumps(task))
        t0 = clock()
        tree = parse_newick(record["result"]["newick"])
        parse += clock() - t0
        t0 = clock()
        to_newick(tree, precision=12)
        write += clock() - t0
    n = len(outcome.records)
    return {
        "matrix.decode_ms": decode / n * 1e3,
        "matrix.digest_ms": digest / n * 1e3,
        "newick.parse_ms": parse / n * 1e3,
        "newick.write_ms": write / n * 1e3,
        "executor.task_kb": task_bytes / n / 1024.0,
    }


def measure_untraced(workload, seed: int, count: int, workdir: Path,
                     rounds_n: int = ROUNDS):
    """``rounds_n`` server starts sharing ``count`` measured requests."""
    from workloads import MEASURE_PHASE, make_bodies, warmup_phase

    with _pool() as pool:
        bodies = make_bodies(workload, seed, MEASURE_PHASE, count, pool)
        warmups = [
            make_bodies(workload, seed, warmup_phase(r), workload.warmup, pool)
            for r in range(rounds_n)
        ]
    chunk = -(-count // rounds_n)
    rounds = [
        run_round(workload, bodies[r * chunk:(r + 1) * chunk], warmups[r],
                  workdir=workdir, prefix=f"m{r}")
        for r in range(rounds_n)
    ]
    with _pool() as pool:
        per_round = [check_round(workload, r, pool) for r in rounds]
    outcome = Outcome.merged(per_round)
    if not outcome.latencies_s:
        return outcome, {}, None
    record = diagnostics(rounds, outcome)
    record["rounds"] = [
        end_to_end([r], o) for r, o in zip(rounds, per_round)
        if o.latencies_s
    ]
    return outcome, end_to_end(rounds, outcome), record


def measure_traced(workload, seed: int, count: int, workdir: Path):
    """The same bodies against a plain and a ``--trace-out`` server, so
    the trace overhead is a paired comparison; the traced server's
    spans, records and metric deltas give the ledger.  The ledger's
    times are as measured: it splits measured latency into parts."""
    from repro.obs.recorder import read_jsonl
    from workloads import MEASURE_PHASE, make_bodies, warmup_phase

    with _pool() as pool:
        bodies = make_bodies(workload, seed, MEASURE_PHASE, count, pool)
        warmup = make_bodies(workload, seed, warmup_phase(0), workload.warmup,
                             pool)
    trace_path = workdir / "serve-trace.jsonl"
    plain = run_round(workload, bodies, warmup, workdir=workdir, prefix="u")
    traced = run_round(workload, bodies, warmup, workdir=workdir, prefix="t",
                       trace_out=trace_path)
    with _pool() as pool:
        plain_outcome = check_round(workload, plain, pool)
        outcome = check_round(workload, traced, pool)
    outcome.add_counts(plain_outcome)
    if not outcome.latencies_s or not plain_outcome.latencies_s:
        return outcome, {}, None
    per_request = ledger.trace_by_request(
        read_jsonl(trace_path), outcome.trace_ids
    )
    rows = ledger.layer_rows(
        records=outcome.records,
        latencies_s=outcome.latencies_s,
        untraced_p50_ms=statistics.median(plain_outcome.latencies_s) * 1e3,
        deltas=traced.deltas,
        per_request=per_request,
        direct=direct_timings(workload, outcome),
    )
    nodes = [per_request[t].get("+bnb.nodes_expanded", 0.0)
             for t in outcome.trace_ids]
    record = diagnostics([traced], outcome)
    record["nodes_digest"] = digest_of(nodes)
    record["nodes_per_request"] = sorted(set(nodes))[:8]
    return outcome, rows, record


def print_report(workload, trace, outcome, metrics, record) -> None:
    units = ledger.LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"workload {workload.name} ({'traced' if trace else 'untraced'}): "
          f"{outcome.attempted} attempted, "
          f"{outcome.attempted - outcome.failed} succeeded, "
          f"{outcome.failed} failed")
    for name, value in metrics.items():
        note = ""
        if name == "latency_p90_ms":
            n = len(outcome.latencies_s)
            note = f"  (n={n}, {ledger.samples_beyond(n, 0.9)} beyond)"
        print(f"  {name:32s} {value:14.4f} {units[name]}{note}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    if record is not None:
        print("run-record " + json.dumps(record, sort_keys=True))


def result_line(outcome, metrics, units) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def smoke(workdir: Path) -> int:
    """Every workload, untraced and traced, on a handful of requests
    each: proves the whole path end to end in seconds."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS.values():
        outcome, metrics, record = measure_untraced(
            workload, 0, 4, workdir, rounds_n=1)
        print_report(workload, False, outcome, metrics, record)
        ok = ok and outcome.correct and bool(metrics)
        outcome, rows, record = measure_traced(workload, 0, 4, workdir)
        print_report(workload, True, outcome, rows, record)
        ok = ok and outcome.correct and bool(rows)
    print("smoke " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a few requests")
    args = parser.parse_args(argv)
    _source_or_exit()
    # A terminated run still drains the servers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    from workloads import WORKLOADS

    if not args.smoke and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(workdir)
        workload = WORKLOADS[args.workload]
        count = max(ROUNDS, round(workload.per_second * args.seconds))
        if args.trace:
            # Two servers see the bodies, so each gets half a run's worth.
            outcome, metrics, record = measure_traced(
                workload, args.seed, max(1, count // 2), workdir)
            units = ledger.LAYER_UNITS
        else:
            outcome, metrics, record = measure_untraced(
                workload, args.seed, count, workdir)
            units = END_TO_END_UNITS
        print_report(workload, bool(args.trace), outcome, metrics, record)
        if not metrics:
            print("perfbench: no request succeeded", file=sys.stderr)
            return 1
        print(result_line(outcome, metrics, units))
        return 0 if outcome.correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
