"""Arithmetic of the benchmark: percentiles, metric deltas, span self
time, and the per-layer ledger built from them.

Everything here is pure: it reads job records, ``/stats`` metric
snapshots and trace events that the program already exposes, and
never talks to the server itself.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond
#: it; below that it is an extreme value, not a percentile.
MIN_TAIL_SAMPLES = 10

#: The per-layer rows, in ledger order, with their units.  The names
#: are the metric names the traced run reports.
LAYER_UNITS = {
    "server.front_ms": "ms",
    "matrix.decode_ms": "ms",
    "matrix.digest_ms": "ms",
    "scheduler.queue_wait_ms": "ms",
    "scheduler.queue_wait_p90_ms": "ms",
    "scheduler.job_ms": "ms",
    "cache.hit_ratio": "ratio",
    "executor.dispatch_ms": "ms",
    "executor.task_kb": "KiB",
    "engine.solve_ms": "ms",
    "pipeline.discover_ms": "ms",
    "pipeline.reduce_ms": "ms",
    "pipeline.solve_ms": "ms",
    "pipeline.merge_ms": "ms",
    "pipeline.subproblems": "count",
    "pipeline.max_subproblem": "species",
    "bnb.nodes_expanded": "count",
    "bnb.us_per_expansion": "us",
    "bnb.prune_fraction": "ratio",
    "newick.write_ms": "ms",
    "newick.parse_ms": "ms",
    "verify.oracles_ms": "ms",
    "ingest.parse_ms": "ms",
    "ingest.qc_ms": "ms",
    "ingest.distance_ms": "ms",
    "ingest.repair_ms": "ms",
    "obs.traced_latency_p50_ms": "ms",
    "obs.unattributed_ms": "ms",
    "obs.trace_overhead_pct": "%",
}
LAYER_ROWS = tuple(LAYER_UNITS)

INGEST_STAGES = ("parse", "qc", "distance", "repair")


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` percentile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def percentile_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q`` percentile (the
    :data:`MIN_TAIL_SAMPLES` rule)."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


# ----------------------------------------------------------------------
# host-speed adjustment
# ----------------------------------------------------------------------
def host_scale(busy: float, speed: float) -> float:
    """What a second of wall time in a slice of load counts as on a host
    of reference speed.

    ``speed`` is the reference probe time over the probe time read
    around the slice (below 1 while the host runs slow), and ``busy``
    the CPU seconds the server and the load generator used per wall
    second of the slice.  While they keep at least one core busy the
    requests are CPU-bound, and their time moves with the host; below
    that, only the busy share does, and the rest is waiting (timers,
    the network stack) that counts as is.
    """
    busy = min(1.0, max(0.0, busy))
    return busy * speed + (1.0 - busy)


# ----------------------------------------------------------------------
# /stats metric deltas
# ----------------------------------------------------------------------
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_deltas(
    before: Mapping[str, dict], after: Mapping[str, dict]
) -> Dict[str, Dict[LabelKey, Dict[str, float]]]:
    """Per-series change between two ``/stats`` ``metrics`` snapshots.

    Counters give ``{"value"}`` and histograms ``{"count", "sum"}``;
    gauges are point-in-time readings with no meaningful delta and are
    left out.  A series absent from ``before`` counts from zero.
    """
    out: Dict[str, Dict[LabelKey, Dict[str, float]]] = {}
    for name, metric in after.items():
        kind = metric.get("type")
        if kind not in ("counter", "histogram"):
            continue
        prior = {
            _label_key(s["labels"]): s
            for s in before.get(name, {}).get("series", [])
        }
        series: Dict[LabelKey, Dict[str, float]] = {}
        for s in metric.get("series", []):
            key = _label_key(s["labels"])
            old = prior.get(key, {})
            if kind == "counter":
                series[key] = {"value": s["value"] - old.get("value", 0.0)}
            else:
                series[key] = {
                    "count": s["count"] - old.get("count", 0),
                    "sum": s["sum"] - old.get("sum", 0.0),
                }
        out[name] = series
    return out


def delta_total(
    deltas: Mapping[str, Mapping[LabelKey, Mapping[str, float]]],
    name: str,
    field: str,
    **labels: str,
) -> float:
    """Sum ``field`` over the series of ``name`` whose labels include
    ``labels``."""
    want = set(_label_key(labels))
    return sum(
        values.get(field, 0.0)
        for key, values in deltas.get(name, {}).items()
        if want <= set(key)
    )


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def self_times(spans: Iterable) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (overlapping children are
    counted once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


def trace_by_request(
    events: Iterable, trace_ids: Iterable[str]
) -> Dict[str, Dict[str, float]]:
    """Per-request sums from a trace: span self time per span name
    (``"<name>"``, seconds), span counts (``"#<name>"``), counter totals
    (``"+<name>"``), and the largest ``pipeline.solve`` size seen
    (``"max_subproblem"``).  Requests are matched by the ``trace_id``
    attribute the server stamps on everything a request causes."""
    wanted = set(trace_ids)
    events = list(events)
    spans = [e for e in events if hasattr(e, "parent")]
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {t: defaultdict(float) for t in wanted}
    for span in spans:
        trace_id = span.attrs.get("trace_id")
        if trace_id not in wanted:
            continue
        row = out[trace_id]
        row[span.name] += selfs[span.id]
        row["#" + span.name] += 1
        if span.name == "pipeline.solve":
            row["max_subproblem"] = max(
                row["max_subproblem"], float(span.attrs.get("size", 0))
            )
        if span.name == "bnb.solve" and "bnb.prune_fraction" in span.attrs:
            row["prune_fraction_sum"] += span.attrs["bnb.prune_fraction"]
    for event in events:
        if hasattr(event, "parent"):
            continue
        trace_id = event.attrs.get("trace_id")
        if trace_id in wanted:
            out[trace_id]["+" + event.name] += event.value
    return out


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_rows(
    *,
    records: Sequence[dict],
    latencies_s: Sequence[float],
    untraced_p50_ms: float,
    deltas: Mapping[str, Mapping[LabelKey, Mapping[str, float]]],
    per_request: Mapping[str, Mapping[str, float]],
    direct: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer row of one traced run.

    ``records`` are the job records the server returned (same order as
    ``latencies_s``); ``deltas`` the ``/stats`` metric deltas over the
    traced measured window; ``per_request`` the output of
    :func:`trace_by_request` for the measured requests; ``direct`` the
    layer timings and sizes the benchmark measured itself
    (``matrix.decode_ms``, ``matrix.digest_ms``, ``newick.*``,
    ``executor.task_kb``).

    Rows from job records are per-request medians; rows from metric
    deltas and spans are per-request means.  A request's blocking path
    is decode, digest and (on ``/ingest``) the ingest stages on the
    request thread, then queue wait, then the job; a miss's job splits
    further into dispatch, engine solve and verification.
    ``obs.unattributed_ms`` is the traced median latency minus decode,
    digest, the ingest stages, queue wait and job: the part of the
    front that no row times, such as HTTP parsing and socket waits.
    """
    latency_ms = [s * 1e3 for s in latencies_s]
    job_ms = [(r["finished_at"] - r["started_at"]) * 1e3 for r in records]
    queue_ms = [(r["started_at"] - r["submitted_at"]) * 1e3 for r in records]
    front_ms = [
        lat - (r["finished_at"] - r["submitted_at"]) * 1e3
        for lat, r in zip(latency_ms, records)
    ]
    rows: Dict[str, float] = {name: 0.0 for name in LAYER_ROWS}
    rows.update(direct)
    rows["server.front_ms"] = statistics.median(front_ms)
    rows["scheduler.queue_wait_ms"] = statistics.median(queue_ms)
    rows["scheduler.queue_wait_p90_ms"] = percentile(queue_ms, 0.9)
    rows["scheduler.job_ms"] = statistics.median(job_ms)

    hits = delta_total(deltas, "cache.hit", "value")
    misses = delta_total(deltas, "cache.miss", "value")
    rows["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    solve_n = delta_total(deltas, "solve.seconds", "count")
    solve_s = delta_total(deltas, "solve.seconds", "sum")
    rows["engine.solve_ms"] = solve_s / solve_n * 1e3 if solve_n else 0.0

    def span_mean(key: str) -> float:
        return _mean([row.get(key, 0.0) for row in per_request.values()])

    verify_ms = span_mean("verify.oracle") * 1e3
    rows["verify.oracles_ms"] = verify_ms
    if misses:
        job_miss_s = delta_total(
            deltas, "service.job.seconds", "sum", cache="miss"
        )
        rows["executor.dispatch_ms"] = (
            (job_miss_s - solve_s) / misses * 1e3 - verify_ms
        )
    for phase in ("discover", "reduce", "solve", "merge"):
        rows[f"pipeline.{phase}_ms"] = span_mean(f"pipeline.{phase}") * 1e3
    rows["pipeline.subproblems"] = span_mean("#pipeline.solve")
    rows["pipeline.max_subproblem"] = max(
        (row.get("max_subproblem", 0.0) for row in per_request.values()),
        default=0.0,
    )
    nodes = [row.get("+bnb.nodes_expanded", 0.0) for row in per_request.values()]
    rows["bnb.nodes_expanded"] = _mean(nodes)
    bnb_self_s = sum(row.get("bnb.solve", 0.0) for row in per_request.values())
    if sum(nodes):
        rows["bnb.us_per_expansion"] = bnb_self_s / sum(nodes) * 1e6
    bnb_spans = sum(row.get("#bnb.solve", 0.0) for row in per_request.values())
    if bnb_spans:
        rows["bnb.prune_fraction"] = sum(
            row.get("prune_fraction_sum", 0.0) for row in per_request.values()
        ) / bnb_spans
    for stage in INGEST_STAGES:
        count = delta_total(deltas, "ingest.stage.seconds", "count", stage=stage)
        total = delta_total(deltas, "ingest.stage.seconds", "sum", stage=stage)
        rows[f"ingest.{stage}_ms"] = total / count * 1e3 if count else 0.0

    traced_p50 = statistics.median(latency_ms)
    rows["obs.traced_latency_p50_ms"] = traced_p50
    rows["obs.unattributed_ms"] = traced_p50 - (
        rows["matrix.decode_ms"]
        + rows["matrix.digest_ms"]
        + sum(rows[f"ingest.{stage}_ms"] for stage in INGEST_STAGES)
        + rows["scheduler.queue_wait_ms"]
        + rows["scheduler.job_ms"]
    )
    rows["obs.trace_overhead_pct"] = (
        (traced_p50 - untraced_p50_ms) / untraced_p50_ms * 100.0
    )
    return rows

