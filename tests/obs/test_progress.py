"""Tests for the live search-progress tracker (``repro.obs.progress``).

The tracker's contract has three legs: deterministic throttle/delta
gating under an injected clock, snapshot invariants (monotone lower
bound, final-report guarantee, schema-v1 ``bnb.progress`` events), and
a zero-cost disabled path in the solver's inner loop.  A multi-solve
``compact`` job is one stream: its sub-solves never close it.
"""

import math
import sys
import threading
import time

import pytest

from repro.bnb.sequential import exact_mut
from repro.core.api import construct_tree
from repro.matrix.generators import hierarchical_matrix
from repro.obs import (
    NULL_RECORDER,
    CounterEvent,
    MetricsRegistry,
    ProgressTracker,
    Recorder,
    current_progress,
    format_progress_line,
    progress_context,
    trace_context,
)
from repro.service.scheduler import Scheduler


class FakeClock:
    """A manually stepped clock for deterministic gating tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeStats:
    def __init__(self, expanded=0, created=0):
        self.nodes_expanded = expanded
        self.nodes_created = created


class FakeNode:
    def __init__(self, lower_bound):
        self.lower_bound = lower_bound


class TestGating:
    def test_first_finite_incumbent_fires_immediately(self):
        clock = FakeClock()
        tracker = ProgressTracker(interval_seconds=10.0, clock=clock)
        tracker.tick(42.0, FakeStats(1, 2), [FakeNode(40.0)])
        assert tracker.reports == 1

    def test_unchanged_incumbent_is_gated_until_interval(self):
        clock = FakeClock()
        tracker = ProgressTracker(interval_seconds=1.0, clock=clock)
        tracker.tick(42.0, FakeStats(1, 2), [FakeNode(40.0)])
        for _ in range(50):
            clock.now += 0.01
            tracker.tick(42.0, FakeStats(2, 3), [FakeNode(40.0)])
        assert tracker.reports == 1  # interval never elapsed
        clock.now = 1.5
        tracker.tick(42.0, FakeStats(3, 4), [FakeNode(40.0)])
        assert tracker.reports == 2

    def test_interval_rearms_after_each_report(self):
        clock = FakeClock()
        tracker = ProgressTracker(interval_seconds=1.0, clock=clock)
        reports = []
        for step in range(1, 46):  # 0.1s ticks for 4.5s
            clock.now = step * 0.1
            tracker.tick(9.0, FakeStats(step, step), [FakeNode(5.0)])
            reports.append(tracker.reports)
        # immediate first report at t=0.1, then one per re-armed
        # interval: t=1.1, 2.1, 3.1, 4.1
        assert reports[-1] == 5

    def test_incumbent_improvement_beyond_min_delta_fires(self):
        clock = FakeClock()
        tracker = ProgressTracker(
            interval_seconds=100.0, min_delta=0.5, clock=clock
        )
        tracker.tick(42.0, FakeStats(), [FakeNode(40.0)])
        assert tracker.reports == 1
        clock.now = 0.01
        tracker.tick(41.8, FakeStats(), [FakeNode(40.0)])  # within delta
        assert tracker.reports == 1
        tracker.tick(41.0, FakeStats(), [FakeNode(40.0)])  # beyond delta
        assert tracker.reports == 2

    def test_infinite_incumbent_does_not_fire_delta_gate(self):
        clock = FakeClock()
        tracker = ProgressTracker(interval_seconds=1.0, clock=clock)
        tracker.tick(math.inf, FakeStats(), [])
        assert tracker.reports == 0
        clock.now = 1.5
        tracker.tick(math.inf, FakeStats(), [])
        assert tracker.reports == 1  # interval gate only

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ProgressTracker(interval_seconds=-1.0)


class TestSnapshots:
    def test_snapshot_fields_and_gap(self):
        clock = FakeClock()
        tracker = ProgressTracker(interval_seconds=0.0, clock=clock)
        tracker.start()  # anchor t0 at 0, then solve for two seconds
        clock.now = 2.0
        tracker.tick(100.0, FakeStats(10, 25), [FakeNode(90.0), FakeNode(95.0)])
        snap = tracker.latest
        assert snap["incumbent_cost"] == 100.0
        assert snap["best_lower_bound"] == 90.0
        assert snap["gap"] == pytest.approx(0.1)
        assert snap["nodes_expanded"] == 10
        assert snap["nodes_created"] == 25
        assert snap["open_size"] == 2
        assert snap["elapsed"] == pytest.approx(2.0)
        assert snap["nodes_per_second"] == pytest.approx(5.0)
        assert snap["final"] is False

    def test_lower_bound_clamped_monotone_and_capped(self):
        tracker = ProgressTracker(
            interval_seconds=0.0, clock=FakeClock()
        )
        tracker.tick(100.0, FakeStats(), [FakeNode(90.0)])
        # A weaker frontier must not loosen the reported bound ...
        tracker.tick(100.0, FakeStats(), [FakeNode(80.0)])
        assert tracker.latest["best_lower_bound"] == 90.0
        # ... and the bound never exceeds the incumbent.
        tracker.tick(85.0, FakeStats(), [FakeNode(99.0)])
        assert tracker.latest["best_lower_bound"] == 85.0

    def test_final_guarantees_snapshot_and_closes_gap(self):
        tracker = ProgressTracker(
            interval_seconds=100.0, clock=FakeClock()
        )
        tracker.final(50.0, FakeStats(5, 9))
        assert tracker.reports == 1
        assert tracker.latest["final"] is True
        assert tracker.latest["best_lower_bound"] == 50.0
        assert tracker.latest["gap"] == 0.0

    def test_final_with_open_nodes_reports_honest_residual_gap(self):
        # A node-limited stop leaves open nodes; the closing snapshot
        # must not pretend the search proved optimality.
        tracker = ProgressTracker(
            interval_seconds=100.0, clock=FakeClock()
        )
        tracker.final(50.0, FakeStats(5, 9), [FakeNode(45.0)])
        assert tracker.latest["best_lower_bound"] == 45.0
        assert tracker.latest["gap"] == pytest.approx(0.1)

    def test_unsolved_search_reports_null_incumbent(self):
        tracker = ProgressTracker(interval_seconds=0.0, clock=FakeClock())
        tracker.tick(math.inf, FakeStats(), [FakeNode(10.0)])
        snap = tracker.latest
        assert snap["incumbent_cost"] is None
        assert snap["best_lower_bound"] == 10.0
        assert snap["gap"] == 1.0

    def test_sink_and_metrics_fire_per_report(self):
        seen = []
        metrics = MetricsRegistry()
        tracker = ProgressTracker(
            interval_seconds=0.0,
            metrics=metrics,
            sink=seen.append,
            clock=FakeClock(),
        )
        tracker.tick(100.0, FakeStats(4, 8), [FakeNode(90.0)])
        tracker.final(95.0, FakeStats(9, 12))
        assert [s["final"] for s in seen] == [False, True]
        snapshot = metrics.snapshot()
        gap = next(v for k, v in snapshot.items() if "bnb.gap" in str(k))
        assert gap["series"][0]["value"] == 0.0  # final report closed the gap

    def test_sink_exceptions_propagate_to_caller(self):
        # The tracker does not swallow sink errors; transport layers
        # (WorkerSlot.call) are the ones that guard their callbacks.
        def boom(_snap):
            raise RuntimeError("sink down")

        tracker = ProgressTracker(
            interval_seconds=0.0, sink=boom, clock=FakeClock()
        )
        with pytest.raises(RuntimeError):
            tracker.final(1.0, FakeStats())


class TestEvents:
    def test_reports_emit_schema_v1_counters_with_trace_id(self):
        rec = Recorder()
        tracker = ProgressTracker(
            interval_seconds=0.0, recorder=rec, clock=FakeClock()
        )
        with trace_context("trace-77"):
            tracker.tick(10.0, FakeStats(1, 2), [FakeNode(9.0)])
            tracker.final(10.0, FakeStats(2, 3))
        events = [e for e in rec.events if e.name == "bnb.progress"]
        assert len(events) == 2
        assert all(isinstance(e, CounterEvent) for e in events)
        assert all(e.value == 1 for e in events)
        assert all(e.attrs["trace_id"] == "trace-77" for e in events)
        assert events[-1].attrs["final"] is True

    def test_null_recorder_emits_nothing(self):
        tracker = ProgressTracker(
            interval_seconds=0.0, recorder=NULL_RECORDER, clock=FakeClock()
        )
        tracker.final(1.0, FakeStats())
        assert tracker.reports == 1  # tracked locally, no events


class TestContext:
    def test_progress_context_binds_and_restores(self):
        tracker = ProgressTracker()
        assert current_progress() is None
        with progress_context(tracker) as bound:
            assert bound is tracker
            assert current_progress() is tracker
        assert current_progress() is None

    def test_none_context_is_noop(self):
        with progress_context(None) as bound:
            assert bound is None
            assert current_progress() is None


class TestSolverIntegration:
    def test_tracked_solve_reports_and_matches_untracked(self):
        matrix = hierarchical_matrix([[4, 3], [4]], seed=11, jitter=0.3)
        plain = exact_mut(matrix)
        rec = Recorder()
        tracker = ProgressTracker(interval_seconds=0.0, recorder=rec)
        with progress_context(tracker):
            tracked = exact_mut(matrix)
        assert tracked.cost == plain.cost
        assert tracked.stats.nodes_expanded == plain.stats.nodes_expanded
        assert tracker.reports >= 1
        final = tracker.latest
        assert final["final"] is True
        assert final["incumbent_cost"] == pytest.approx(tracked.cost)
        assert final["gap"] == 0.0  # solved to proven optimality
        assert final["nodes_expanded"] == tracked.stats.nodes_expanded
        assert any(e.name == "bnb.progress" for e in rec.events)

    def test_node_limited_solve_reports_residual_gap(self):
        matrix = hierarchical_matrix([[5, 4], [5, 4]], seed=7, jitter=0.3)
        tracker = ProgressTracker(interval_seconds=0.0)
        with progress_context(tracker):
            result = exact_mut(matrix, node_limit=50)
        assert not result.optimal
        final = tracker.latest
        assert final["final"] is True
        assert final["open_size"] > 0
        assert final["gap"] > 0.0
        assert final["best_lower_bound"] < final["incumbent_cost"]

    def test_disabled_path_emits_nothing_and_stays_cheap(self):
        # No ambient tracker: the solve must produce zero progress
        # events and pay (near) nothing -- the tick guard is a single
        # `is not None` test.  Generous wall bound so CI never flakes.
        matrix = hierarchical_matrix([[4, 3], [4]], seed=11, jitter=0.3)
        rec = Recorder()
        start = time.perf_counter()
        result = exact_mut(matrix, recorder=rec)
        assert time.perf_counter() - start < 5.0
        assert result.optimal
        assert not any(e.name == "bnb.progress" for e in rec.events)
        assert current_progress() is None


class TestSubsolveView:
    """``ProgressTracker.subsolves``: the view a job's sub-solves drive."""

    def test_ticks_obey_the_interval_gate_only(self):
        clock = FakeClock()
        seen = []
        tracker = ProgressTracker(
            interval_seconds=1.0, clock=clock, sink=seen.append
        )
        view = tracker.subsolves()
        view.start()
        # A first (or cheaper) incumbent would open the delta gate of a
        # plain tracker; sub-solve incumbents of different matrices
        # must not.
        view.tick(50.0, FakeStats(1, 2), [])
        view.tick(10.0, FakeStats(2, 3), [])
        assert seen == []
        clock.now = 1.0
        view.tick(10.0, FakeStats(3, 4), [FakeNode(8.0)])
        assert len(seen) == 1 and seen[0]["final"] is False

    def test_counters_accumulate_and_final_never_closes(self):
        clock = FakeClock()
        seen = []
        tracker = ProgressTracker(
            interval_seconds=1.0, clock=clock, sink=seen.append
        )
        view = tracker.subsolves()
        view.start()
        view.final(7.0, FakeStats(4, 9))
        view.final(3.0, FakeStats(2, 5))
        assert seen == []  # sub-solve finals report nothing
        view.start()
        clock.now = 2.0
        view.tick(20.0, FakeStats(1, 1), [FakeNode(5.0)])
        snap = seen[-1]
        assert (snap["nodes_expanded"], snap["nodes_created"]) == (7, 15)
        # The running sub-solve's bound, not an earlier sub-solve's.
        assert snap["best_lower_bound"] == 5.0
        tracker.final(30.0, FakeStats(7, 15))
        assert [s["final"] for s in seen] == [False, True]


    def test_concurrent_sub_solve_finals_lose_no_counts(self):
        tracker = ProgressTracker(interval_seconds=0.0)
        view = tracker.subsolves()
        per_thread, threads = 2000, 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        view.final(1.0, FakeStats(1, 2))
                        for _ in range(per_thread)
                    ]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        view.tick(1.0, FakeStats(), [])
        total = per_thread * threads
        assert tracker.latest["nodes_expanded"] == total
        assert tracker.latest["nodes_created"] == 2 * total


def _compact_job_matrix():
    return hierarchical_matrix([[6, 6]] * 5, seed=3, jitter=0.3)


class TestCompactJobStream:
    def test_in_process_compact_build_is_one_stream(self):
        matrix = _compact_job_matrix()
        seen = []
        tracker = ProgressTracker(interval_seconds=0.0, sink=seen.append)
        with progress_context(tracker):
            result = construct_tree(matrix, "compact")
        stats = result.details.aggregate_search_stats
        # A zero interval lets every sub-solve tick report; still only
        # one snapshot closes the stream, and it comes last.
        assert [s["final"] for s in seen].count(True) == 1
        assert seen[-1]["final"] is True
        assert seen[-1]["nodes_expanded"] == stats.nodes_expanded
        assert seen[-1]["nodes_created"] == stats.nodes_created
        assert seen[-1]["incumbent_cost"] == result.cost
        assert seen[-1]["gap"] == 0.0
        expanded = [s["nodes_expanded"] for s in seen]
        assert expanded == sorted(expanded)  # totals only grow

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_scheduled_compact_job_sends_one_final_snapshot(self, backend):
        matrix = _compact_job_matrix()
        expected = construct_tree(
            matrix, "compact"
        ).details.aggregate_search_stats.nodes_expanded
        seen = []

        class Recording(Scheduler):
            def _publish_progress(self, job, snapshot):
                seen.append(snapshot)
                super()._publish_progress(job, snapshot)

            def _absorb_telemetry(self, job, anchor, body):
                if body[2] is not None:
                    seen.append(body[2])
                super()._absorb_telemetry(job, anchor, body)

        with Recording(workers=1, backend=backend) as sched:
            sched.solve(matrix, "compact", timeout=60.0)
        assert 1 <= len(seen) <= 3
        assert [s["final"] for s in seen].count(True) == 1
        assert seen[-1]["final"] is True
        assert seen[-1]["nodes_expanded"] == expected
