"""Process-pool scheduler backend: transport, forwarding, crash handling.

The runners here are module-level functions so they stay picklable
under every multiprocessing start method (``fork`` closures would work,
``spawn`` ones would not).
"""

import os
import signal
import threading
import time

import pytest

from repro.matrix.generators import clustered_matrix, random_metric_matrix
from repro.obs import MetricsRegistry, Recorder
from repro.service.errors import ServiceError
from repro.service.jobs import JobState
from repro.service.scheduler import (
    BACKENDS,
    PROCESS_DEFAULT_METHODS,
    Scheduler,
    select_backend,
)


@pytest.fixture
def matrix():
    return clustered_matrix([3, 3], seed=1)


def scripted_runner(matrix, method, options, recorder):
    """Child-side runner scripted through job ``options``."""
    delay = float(options.get("sleep", 0.0))
    if delay:
        time.sleep(delay)
    if options.get("explode"):
        raise ValueError("child boom")
    if options.get("die"):
        os.kill(os.getpid(), signal.SIGKILL)
    return {
        "method": method,
        "n_species": matrix.n,
        "cost": 0.0,
        "newick": "(child);",
    }


class TestBackendSelection:
    def test_exact_methods_default_to_process(self):
        for method in PROCESS_DEFAULT_METHODS:
            assert select_backend(method) == "process"

    def test_heuristics_default_to_thread(self):
        for method in ("nj", "upgma", "upgmm", "greedy"):
            assert select_backend(method) == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Scheduler(workers=1, backend="fibers")
        assert BACKENDS == ("thread", "process")


class TestRoundtrip:
    def test_solve_runs_in_worker_process(self, matrix):
        with Scheduler(workers=2, backend="process") as sched:
            payload = sched.solve(matrix, "compact", timeout=60.0)
            assert payload["newick"].endswith(";")
            assert payload["n_species"] == 6
            stats = sched.stats()
            assert stats["backend"] == "process"
            pids = stats["worker_pids"]
            assert len(pids) == 2
            assert all(pid != os.getpid() for pid in pids.values())

    def test_repeat_hits_parent_side_cache(self, matrix):
        with Scheduler(workers=1, backend="process") as sched:
            first = sched.submit(matrix, "compact")
            first.result(60.0)
            second = sched.submit(matrix, "compact")
            second.result(60.0)
            assert second.cache_status == "hit"
            assert first.payload == second.payload

    def test_payload_matches_thread_backend(self, matrix):
        with Scheduler(workers=1, backend="thread") as threaded:
            via_thread = threaded.solve(matrix, "compact", timeout=60.0)
        with Scheduler(workers=1, backend="process") as processed:
            via_process = processed.solve(matrix, "compact", timeout=60.0)
        assert via_process == via_thread


    def test_multiprocess_job_runs_on_process_backend(self):
        """A slot child is daemonic and may not start processes, so a
        ``multiprocess`` job's master must run outside the slot."""
        m = random_metric_matrix(9, seed=1)
        options = {"workers": 2}
        with Scheduler(workers=1, backend="thread") as threaded:
            via_thread = threaded.solve(m, "multiprocess", options, timeout=60.0)
        rec = Recorder()
        with Scheduler(workers=1, backend="process", recorder=rec) as processed:
            job = processed.submit(m, "multiprocess", options, trace_id="mp-1")
            via_process = job.result(60.0)
        assert job.state == JobState.DONE
        assert via_process == via_thread
        assert via_process["cost"] == 168.5
        # Each engine worker process reports its span into the job's trace.
        workers = rec.spans("mp.worker")
        assert sorted(s.attrs["worker"] for s in workers) == [0, 1]
        assert all(s.attrs["trace_id"] == "mp-1" for s in workers)


class TestTelemetryForwarding:
    def test_child_spans_land_in_parent_trace(self, matrix):
        rec = Recorder()
        with Scheduler(workers=1, backend="process", recorder=rec) as sched:
            sched.submit(
                matrix, "compact", trace_id="trace-proc-1"
            ).result(60.0)
        job_spans = rec.spans("service.job")
        assert len(job_spans) == 1
        assert job_spans[0].attrs["backend"] == "process"
        # Solver spans crossed the process boundary and were re-parented
        # under the service.job span (directly or via their own parents).
        ids = {job_spans[0].id}
        solver_spans = [
            s for s in rec.spans() if s.name.startswith(("bnb.", "pipeline."))
        ]
        assert solver_spans, [s.name for s in rec.spans()]
        by_id = {s.id: s for s in rec.spans()}
        for span in solver_spans:
            seen = set()
            node = span
            while node.parent is not None and node.parent not in seen:
                seen.add(node.parent)
                if node.parent in ids:
                    break
                node = by_id[node.parent]
            assert node.parent in ids, f"{span.name} not under service.job"
        # Trace id survived the round trip.
        assert all(
            s.attrs.get("trace_id") == "trace-proc-1" for s in solver_spans
        )

    def test_child_timestamps_are_rebased(self, matrix):
        rec = Recorder()
        t0 = rec.clock()
        with Scheduler(workers=1, backend="process", recorder=rec) as sched:
            sched.submit(matrix, "compact").result(60.0)
        t1 = rec.clock()
        for span in rec.spans():
            assert t0 <= span.start <= span.end <= t1, span.name

    def test_child_metrics_replayed_into_parent_registry(self, matrix):
        metrics = MetricsRegistry()
        with Scheduler(
            workers=1, backend="process", metrics=metrics
        ) as sched:
            sched.submit(matrix, "compact").result(60.0)
        snapshot = metrics.snapshot()
        solve_keys = [k for k in snapshot if "solve.seconds" in k]
        assert solve_keys, sorted(snapshot)


class TestChildFailures:
    def test_child_exception_fails_job_with_original_type(self, matrix):
        with Scheduler(
            workers=1, backend="process", runner=scripted_runner
        ) as sched:
            job = sched.submit(matrix, "compact", {"explode": True})
            job.wait(30.0)
            assert job.state == JobState.FAILED
            assert job.error == "ValueError: child boom"
            # The worker process survived the task exception.
            follow_up = sched.submit(matrix, "compact", {"tag": 2})
            assert follow_up.result(30.0)["newick"] == "(child);"
            assert sched.stats()["worker_respawns"] == 0

    def test_deadline_kills_wedged_child_and_respawns(self, matrix):
        metrics = MetricsRegistry()
        with Scheduler(
            workers=1, backend="process", runner=scripted_runner,
            metrics=metrics,
        ) as sched:
            job = sched.submit(
                matrix, "compact", {"sleep": 30.0}, timeout=0.5
            )
            job.wait(30.0)
            assert job.state == JobState.TIMEOUT
            assert "passed while running" in job.error
            assert "past its job's deadline" in job.error
            # The slot respawned; the next job gets a working child.
            after = sched.submit(matrix, "compact", {"tag": "after"})
            assert after.result(30.0)["newick"] == "(child);"
            assert sched.stats()["worker_respawns"] == 1


@pytest.mark.slow
class TestWorkerCrash:
    def test_sigkilled_worker_fails_job_and_respawns(self, matrix):
        """A ``kill -9`` on a busy worker costs that job, not the slot."""
        metrics = MetricsRegistry()
        with Scheduler(
            workers=1, backend="process", runner=scripted_runner,
            metrics=metrics,
        ) as sched:
            victim_pid = list(sched.stats()["worker_pids"].values())[0]
            job = sched.submit(matrix, "compact", {"sleep": 30.0})
            # Let the child actually pick the task up, then murder it.
            deadline = time.time() + 10.0
            while job.state == JobState.PENDING and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)
            os.kill(victim_pid, signal.SIGKILL)
            job.wait(30.0)
            assert job.state == JobState.FAILED
            assert "died with exit code" in job.error
            with pytest.raises(ServiceError, match="died with exit code"):
                job.result(1.0)
            # Typed crash accounting.
            crashed = metrics.snapshot()["service.workers.crashed"]
            assert crashed["series"][0]["value"] >= 1
            # The slot respawned: subsequent jobs succeed on a new pid.
            follow_up = sched.submit(matrix, "compact", {"tag": "post"})
            assert follow_up.result(30.0)["newick"] == "(child);"
            stats = sched.stats()
            assert stats["worker_respawns"] == 1
            new_pid = list(stats["worker_pids"].values())[0]
            assert new_pid != victim_pid
            assert stats["workers_live"] == 1
            assert stats["workers_dead"] == 0

    def test_self_killing_child_settles_with_typed_error(self, matrix):
        with Scheduler(
            workers=1, backend="process", runner=scripted_runner
        ) as sched:
            job = sched.submit(matrix, "compact", {"die": True})
            job.wait(30.0)
            assert job.state == JobState.FAILED
            assert "died with exit code" in job.error
            assert sched.submit(
                matrix, "compact", {"tag": 2}
            ).result(30.0)


class TestReceiptVerification:
    def test_corrupt_payload_is_rejected(self, matrix):
        with Scheduler(workers=1, backend="process") as sched:
            job = sched.submit(matrix, "compact")
            good = dict(job.result(60.0))
            bad = dict(good, cost=good["cost"] + 1.0)
            with pytest.raises(RuntimeError, match="receipt verification"):
                sched._verify_receipt(job, bad)
            # The genuine payload passes.
            sched._verify_receipt(job, good)

    def test_verified_miss_parses_its_newick_twice(self, matrix, monkeypatch):
        # Verification reuses the tree the receipt check parsed; the
        # only other parse is the Newick oracle's round trip.  A cache
        # hit has no receipt, so verification parses it afresh.
        import repro.tree.newick as newick

        parsed = []
        real_parse = newick.parse_newick

        def counting_parse(text):
            parsed.append(text)
            return real_parse(text)

        monkeypatch.setattr(newick, "parse_newick", counting_parse)
        with Scheduler(workers=1, backend="process") as sched:
            miss = sched.submit(matrix, "compact", verify=True)
            miss.result(60.0)
            assert miss.cache_status == "miss"
            assert miss.verification["ok"]
            assert len(parsed) == 2
            hit = sched.submit(matrix, "compact", verify=True)
            hit.result(60.0)
            assert hit.cache_status == "hit"
            assert hit.verification["ok"]
            assert len(parsed) == 4

    def test_nj_and_custom_runner_payloads_are_exempt(self, matrix):
        with Scheduler(
            workers=1, backend="process", runner=scripted_runner
        ) as sched:
            # scripted_runner's fake payload (cost 0.0, "(child);") would
            # never reconstruct; the receipt check must not apply to it.
            job = sched.submit(matrix, "compact")
            assert job.result(30.0)["newick"] == "(child);"


class TestShutdown:
    def test_shutdown_stops_worker_processes(self, matrix):
        sched = Scheduler(workers=2, backend="process")
        sched.submit(matrix, "compact").result(60.0)
        pids = list(sched.stats()["worker_pids"].values())
        assert sched.shutdown(drain=True, timeout=30.0)
        for slot in sched._slots.values():
            assert not slot.alive
        for pid in pids:
            # The process is gone (or at most a zombie being reaped).
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                pass
