"""The one telemetry channel from a slot child to the scheduler.

A process-backend job's spans, metric operations and progress travel
as ``telemetry`` messages and land through one scheduler function, so
either backend must leave the same trace, metrics and progress behind
-- including for a job that fails after recording.
"""

import collections
import functools

import pytest

from repro.matrix.generators import hierarchical_matrix
from repro.obs import REGISTRY, MetricsRegistry, Recorder
from repro.parallel.executor import WorkerSlot
from repro.service.jobs import JobState
from repro.service.scheduler import (
    BACKENDS,
    Scheduler,
    _process_job_task,
    solve_payload,
)


@pytest.fixture
def matrix():
    return hierarchical_matrix([[6, 6]] * 5, seed=3, jitter=0.3)


def solve_then_fail(matrix, method, options, recorder):
    """The default runner, raising after the solve when asked to."""
    options = dict(options)
    fail = options.pop("fail", False)
    payload = solve_payload(matrix, method, options, recorder)
    if fail:
        raise RuntimeError("failed after solving")
    return payload


def solve_count(registry, method="compact"):
    """``solve.seconds`` observations for ``method`` (0 if unregistered)."""
    metric = registry.snapshot().get("solve.seconds", {"series": []})
    return sum(
        s["count"] for s in metric["series"] if s["labels"]["method"] == method
    )


def under(rec, span, ancestor_id):
    """Whether ``span``'s parent chain reaches ``ancestor_id``."""
    by_id = {s.id: s for s in rec.spans()}
    while span.parent is not None:
        if span.parent == ancestor_id:
            return True
        span = by_id[span.parent]
    return False


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_job_keeps_its_telemetry(matrix, backend):
    rec, metrics = Recorder(), MetricsRegistry()
    with Scheduler(
        workers=1, backend=backend, runner=solve_then_fail,
        recorder=rec, metrics=metrics,
    ) as sched:
        failed = sched.submit(matrix, "compact", {"fail": True})
        failed.wait(60.0)
        assert failed.state == JobState.FAILED, failed.error
        assert failed.error == "RuntimeError: failed after solving"
        sched.submit(matrix, "compact").result(60.0)
    assert solve_count(metrics) == 2
    [job_span] = [
        s for s in rec.spans("service.job") if s.attrs["job"] == failed.id
    ]
    builds = [s for s in rec.spans("pipeline.build") if under(rec, s, job_span.id)]
    assert len(builds) == 1
    assert job_span.start <= builds[0].start <= builds[0].end <= job_span.end


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_metrics_reach_the_schedulers_registry(matrix, backend):
    mine = MetricsRegistry()
    process_wide = solve_count(REGISTRY)
    with Scheduler(workers=1, backend=backend, metrics=mine) as sched:
        sched.solve(matrix, "compact", timeout=60.0)
    assert solve_count(mine) == 1
    assert solve_count(REGISTRY) == process_wide


def _traced_job(matrix, backend):
    rec = Recorder()
    with Scheduler(workers=1, backend=backend, recorder=rec) as sched:
        job = sched.submit(matrix, "compact", trace_id="same-job")
        job.result(60.0)
    by_id = {s.id: s for s in rec.spans()}
    edges = collections.Counter(
        (s.name, by_id[s.parent].name if s.parent is not None else None)
        for s in rec.spans()
    )
    totals = collections.Counter()
    for counter in rec.counters():
        if counter.name.startswith(("bnb.", "pipeline.")):
            totals[counter.name] += counter.value
    return edges, totals, job.progress


def test_both_backends_leave_the_same_trace_and_progress(matrix):
    edges, totals, progress = _traced_job(matrix, "thread")
    p_edges, p_totals, p_progress = _traced_job(matrix, "process")
    assert p_edges == edges
    assert p_totals == totals
    assert totals["bnb.nodes_expanded"] > 0
    assert p_progress["final"] and progress["final"]
    assert p_progress["nodes_expanded"] == progress["nodes_expanded"]
    assert p_progress["trace_id"] == progress["trace_id"] == "same-job"


@pytest.mark.parametrize("collect_events", [False, True])
def test_a_compact_request_sends_two_messages(matrix, collect_events):
    bodies = []
    runner = functools.partial(_process_job_task, solve_payload)
    task = (matrix.values, list(matrix.labels), "compact", {}, None,
            collect_events)
    with WorkerSlot(0, runner) as slot:
        payload = slot.call(task, on_telemetry=bodies.append)
    # One closing telemetry body, then the result: the payload alone.
    assert len(bodies) == 1
    assert payload == solve_payload(matrix, "compact")
    events, metric_ops, progress = bodies[0]
    assert bool(events) is collect_events
    assert all(isinstance(event, tuple) for event in events)
    assert [op[1] for op in metric_ops] == ["solve.seconds"]
    assert progress["final"] is True
    assert 0.0 <= progress["time"]
