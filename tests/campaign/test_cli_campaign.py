"""The ``repro-mut campaign`` command group, including SIGTERM resume."""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.service.cache import CACHE_KEY_VERSION

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SPEC = {
    "name": "cli-demo",
    "seed": 1,
    "methods": ["upgmm"],
    "cases": [
        {"kind": "generated", "families": ["random-int"], "sizes": [5, 6],
         "count": 2},
    ],
}


@pytest.fixture
def suite_file(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "campaigns.sqlite")


class TestRun:
    def test_run_and_status_and_list(self, suite_file, db_path, capsys):
        assert main(["campaign", "run", suite_file, "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "status   : completed" in out
        assert main(["campaign", "status", "cli-demo", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "done=4" in out
        assert main(["campaign", "list", "--db", db_path]) == 0
        assert "cli-demo: completed, 4/4 done" in capsys.readouterr().out

    def test_run_json(self, suite_file, db_path, capsys):
        assert main([
            "campaign", "run", suite_file, "--db", db_path, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["state_counts"] == {"done": 4}

    def test_builtin_suite_name(self, db_path, capsys):
        assert main([
            "campaign", "run", "smoke", "--db", db_path,
            "--backend", "thread",
        ]) == 0
        assert "8 total" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self, db_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "no-such-suite", "--db", db_path])
        assert excinfo.value.code == 2

    def test_stop_after_exits_3_then_resume(self, suite_file, db_path,
                                            capsys):
        assert main([
            "campaign", "run", suite_file, "--db", db_path,
            "--stop-after", "2", "--workers", "1",
        ]) == 3
        assert main(["campaign", "run", suite_file, "--db", db_path]) == 0
        payload_args = ["campaign", "status", "cli-demo", "--db", db_path,
                        "--json"]
        capsys.readouterr()
        assert main(payload_args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_counts"] == {"done": 4}

    def test_methods_override(self, suite_file, db_path, capsys):
        assert main([
            "campaign", "run", suite_file, "--db", db_path,
            "--methods", "bnb", "--name", "exact-pass",
        ]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "status", "exact-pass", "--db", db_path, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_counts"] == {"done": 4}

    def test_trace_out(self, suite_file, db_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "campaign", "run", suite_file, "--db", db_path,
            "--trace-out", str(trace),
        ]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines[0]["event"] == "meta"
        assert "engine" in lines[0]
        assert any(l.get("name") == "campaign.case" for l in lines)


class TestDiffAndExport:
    def test_self_diff_exits_0(self, suite_file, db_path, capsys):
        main(["campaign", "run", suite_file, "--db", db_path])
        main(["campaign", "run", suite_file, "--db", db_path,
              "--name", "again"])
        assert main([
            "campaign", "diff", "cli-demo", "again", "--db", db_path,
        ]) == 0
        assert "OK" in capsys.readouterr().out

    def test_diff_regression_exits_1(self, suite_file, db_path, capsys):
        main(["campaign", "run", suite_file, "--db", db_path,
              "--methods", "bnb"])
        main(["campaign", "run", suite_file, "--db", db_path,
              "--methods", "bnb", "--name", "tampered"])
        conn = sqlite3.connect(db_path)
        conn.execute(
            "UPDATE cases SET cost = cost + 1 WHERE campaign_id ="
            " (SELECT id FROM campaigns WHERE name='tampered')"
        )
        conn.commit()
        conn.close()
        assert main([
            "campaign", "diff", "cli-demo", "tampered", "--db", db_path,
        ]) == 1
        assert "EXACT COST CHANGE" in capsys.readouterr().out

    def test_diff_unknown_campaign_exits_2(self, suite_file, db_path):
        main(["campaign", "run", suite_file, "--db", db_path])
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "diff", "cli-demo", "nope", "--db", db_path])
        assert excinfo.value.code == 2

    def test_export(self, suite_file, db_path, tmp_path, capsys):
        main(["campaign", "run", suite_file, "--db", db_path])
        out = tmp_path / "export.json"
        assert main([
            "campaign", "export", "cli-demo", "--db", db_path,
            "--out", str(out),
        ]) == 0
        export = json.loads(out.read_text())
        assert export["format"] == "repro.campaign.export.v1"
        assert len(export["cases"]) == 4


class TestTrend:
    def test_trend_markdown_and_json(self, suite_file, db_path, capsys):
        main(["campaign", "run", suite_file, "--db", db_path])
        main(["campaign", "run", suite_file, "--db", db_path,
              "--name", "again"])
        assert main([
            "campaign", "trend", "cli-demo", "again", "--db", db_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "# campaign trend: cli-demo -> again" in out
        assert "## per-case wall seconds" in out
        assert main([
            "campaign", "trend", "cli-demo", "again", "--db", db_path,
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "cli-demo"
        assert len(payload["cases"]) == 4
        assert payload["wall_geomean"][0] == 1.0

    def test_trend_unknown_campaign_exits_2(self, suite_file, db_path):
        main(["campaign", "run", suite_file, "--db", db_path])
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "trend", "cli-demo", "nope", "--db", db_path])
        assert excinfo.value.code == 2


class TestFuzzArchive:
    def test_clean_fuzz_leaves_archive_empty(self, db_path, tmp_path,
                                             capsys):
        assert main([
            "fuzz", "--seed", "0", "--budget", "3", "--methods",
            "bnb,upgmm", "--max-species", "5",
            "--corpus", str(tmp_path / "corpus"), "--db", db_path,
        ]) == 0
        # A clean run archives nothing (and never even creates the db).
        if Path(db_path).exists():
            conn = sqlite3.connect(db_path)
            count = conn.execute(
                "SELECT COUNT(*) FROM fuzz_failures"
            ).fetchone()[0]
            conn.close()
            assert count == 0

    def test_failures_archived_with_fingerprint(self, db_path, tmp_path,
                                                capsys, monkeypatch):
        import repro.verify.fuzz as fuzz_mod
        from repro.matrix.generators import clustered_matrix
        from repro.verify.oracles import Violation

        matrix = clustered_matrix([3, 3], seed=4)
        failure = fuzz_mod.FuzzFailure(
            iteration=5,
            family="random-int",
            n_species=6,
            violations=[Violation("cost-mismatch", "planted")],
            matrix=matrix,
            shrunk_n_species=6,
            corpus_path="corpus/fail.phy",
            meta_path="corpus/fail.json",
            repro_command="repro-mut verify corpus/fail.phy",
        )

        def fake_run_fuzz(**kwargs):
            return fuzz_mod.FuzzReport(
                seed=9, budget=3, cases_run=3,
                families={"random-int": 3}, failures=[failure],
            )

        monkeypatch.setattr(fuzz_mod, "run_fuzz", fake_run_fuzz)
        assert main([
            "fuzz", "--seed", "9", "--budget", "3",
            "--corpus", str(tmp_path / "corpus"), "--db", db_path,
        ]) == 1
        conn = sqlite3.connect(db_path)
        conn.row_factory = sqlite3.Row
        rows = conn.execute("SELECT * FROM fuzz_failures").fetchall()
        conn.close()
        assert len(rows) == 1
        row = rows[0]
        assert row["master_seed"] == 9
        assert row["matrix_digest"] == matrix.digest()
        assert row["engine_version"] == repro.__version__
        assert (
            json.loads(row["fingerprint"])["cache_key_version"]
            == CACHE_KEY_VERSION
        )


class TestSigtermResume:
    def test_sigterm_drains_then_resume_completes(self, tmp_path):
        """Kill a running campaign with SIGTERM mid-flight; the process
        must drain, mark the campaign interrupted (exit 3), and a re-run
        must finish every case with exactly one row per case."""
        spec = {
            "name": "sigterm-demo",
            "seed": 2,
            "methods": ["upgmm"],
            "cases": [
                {"kind": "generated", "families": ["random-int"],
                 "sizes": [5, 6], "count": 10},
            ],
        }
        suite_file = tmp_path / "suite.json"
        suite_file.write_text(json.dumps(spec))
        db_path = tmp_path / "campaigns.sqlite"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             str(suite_file), "--db", str(db_path), "--workers", "1",
             "--throttle", "0.05", "--backend", "thread"],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # WAL mode lets us poll progress while the runner writes.
            deadline = time.time() + 60.0
            settled = 0
            while time.time() < deadline:
                if db_path.exists():
                    try:
                        conn = sqlite3.connect(str(db_path), timeout=5.0)
                        settled = conn.execute(
                            "SELECT COUNT(*) FROM cases"
                        ).fetchone()[0]
                        conn.close()
                    except sqlite3.Error:
                        settled = 0
                if settled >= 4:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            assert settled >= 4, "campaign never made progress"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, (stdout, stderr)
        assert "draining" in stderr

        conn = sqlite3.connect(str(db_path))
        rows = conn.execute(
            "SELECT case_id, state FROM cases"
        ).fetchall()
        status = conn.execute(
            "SELECT status FROM campaigns WHERE name='sigterm-demo'"
        ).fetchone()[0]
        conn.close()
        assert status == "interrupted"
        assert 0 < len(rows) < 20
        assert all(state == "done" for _, state in rows)

        # Resume in-process: completes, skips the done half, and leaves
        # exactly one row per case.
        done_before = len(rows)
        code = main([
            "campaign", "run", str(suite_file), "--db", str(db_path),
            "--json",
        ])
        assert code == 0
        conn = sqlite3.connect(str(db_path))
        case_ids = [r[0] for r in conn.execute(
            "SELECT case_id FROM cases"
        ).fetchall()]
        conn.close()
        assert len(case_ids) == 20
        assert len(set(case_ids)) == 20
        assert done_before < 20  # the resume actually had work to do
