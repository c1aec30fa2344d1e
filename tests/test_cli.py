"""Tests for the repro-mut command-line interface."""

import json

import pytest

from repro.cli import main
from repro.matrix.generators import clustered_matrix
from repro.matrix.io import read_phylip, write_phylip


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.phy"
    write_phylip(clustered_matrix([3, 3], seed=1), path)
    return str(path)


class TestBuild:
    def test_default_method(self, matrix_file, capsys):
        assert main(["build", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "method : compact" in out
        assert "cost" in out

    @pytest.mark.parametrize("method", ["bnb", "upgma", "upgmm", "nj"])
    def test_methods(self, matrix_file, method, capsys):
        assert main(["build", matrix_file, "--method", method]) == 0
        assert f"method : {method}" in capsys.readouterr().out

    def test_parallel_method(self, matrix_file, capsys):
        assert main([
            "build", matrix_file, "--method", "parallel-bnb", "--workers", "4"
        ]) == 0
        assert "cost" in capsys.readouterr().out

    def test_json_output(self, matrix_file, capsys):
        assert main(["build", matrix_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_species"] == 6
        assert payload["newick"].endswith(";")

    def test_newick_out(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "tree.nwk"
        assert main(["build", matrix_file, "--newick-out", str(out)]) == 0
        from repro.tree.newick import parse_newick

        tree = parse_newick(out.read_text())
        assert tree.n_leaves == 6

    def test_reduction_option(self, matrix_file, capsys):
        assert main(["build", matrix_file, "--reduction", "average"]) == 0

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit, match="no such matrix"):
            main(["build", "/nonexistent/file.phy"])

    def test_csv_input(self, tmp_path, capsys):
        from repro.matrix.io import write_csv_matrix

        path = tmp_path / "m.csv"
        write_csv_matrix(clustered_matrix([2, 3], seed=2), path)
        assert main(["build", str(path), "--method", "upgmm"]) == 0

    def test_trace_out(self, matrix_file, tmp_path, capsys):
        from repro.obs import SpanEvent, read_jsonl

        trace = tmp_path / "events.jsonl"
        assert main(["build", matrix_file, "--trace-out", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "trace event(s)" in captured.err
        events = read_jsonl(trace)
        names = {e.name for e in events if isinstance(e, SpanEvent)}
        assert "pipeline.build" in names
        assert "pipeline.solve" in names

    def test_multiprocess_capped_at_the_core_count(
        self, matrix_file, tmp_path, capsys, monkeypatch
    ):
        """``--workers`` defaults to 16; on a one-core host the engine
        solves in the calling process and starts none."""
        import multiprocessing.process

        from repro.obs import SpanEvent, read_jsonl

        def no_start(process):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr("os.cpu_count", lambda: 1)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", no_start
        )
        trace = tmp_path / "events.jsonl"
        assert main([
            "build", matrix_file, "--method", "multiprocess",
            "--trace-out", str(trace),
        ]) == 0
        (solve,) = [
            e for e in read_jsonl(trace)
            if isinstance(e, SpanEvent) and e.name == "mp.solve"
        ]
        assert solve.attrs["workers"] == 1

    def test_trace_out_solve_spans_match_reported_elapsed(
        self, matrix_file, tmp_path, capsys
    ):
        """Acceptance: the JSONL solve spans account for the run's time."""
        from repro.obs import SpanEvent, read_jsonl

        trace = tmp_path / "events.jsonl"
        assert main([
            "build", matrix_file, "--trace-out", str(trace), "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        spans = [
            e for e in read_jsonl(trace)
            if isinstance(e, SpanEvent) and e.name == "pipeline.build"
        ]
        (build,) = spans
        assert build.duration == pytest.approx(payload["elapsed_seconds"])


class TestBuildProgress:
    def test_progress_prints_heartbeats_to_stderr(self, matrix_file, capsys):
        assert main([
            "build", matrix_file, "--method", "bnb", "--progress",
            "--progress-interval", "0",
        ]) == 0
        captured = capsys.readouterr()
        assert "cost" in captured.out
        lines = [
            line for line in captured.err.splitlines()
            if line.startswith("[bnb]")
        ]
        assert lines, captured.err
        assert "incumbent=" in lines[-1]
        assert "gap=" in lines[-1]

    def test_progress_events_land_in_trace(self, matrix_file, tmp_path,
                                           capsys):
        from repro.obs import CounterEvent, read_jsonl

        trace = tmp_path / "trace.jsonl"
        assert main([
            "build", matrix_file, "--method", "bnb", "--progress",
            "--trace-out", str(trace),
        ]) == 0
        events = read_jsonl(trace)
        assert any(
            isinstance(e, CounterEvent) and e.name == "bnb.progress"
            for e in events
        )

    def test_without_flag_no_heartbeats(self, matrix_file, capsys):
        assert main(["build", matrix_file, "--method", "bnb"]) == 0
        assert "[bnb]" not in capsys.readouterr().err


class TestProfile:
    def test_prints_span_tree(self, matrix_file, capsys):
        assert main(["profile", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "pipeline.build" in out
        assert "span totals by name:" in out
        assert "counters:" in out
        assert "%" in out

    def test_method_option(self, matrix_file, capsys):
        assert main(["profile", matrix_file, "--method", "bnb"]) == 0
        out = capsys.readouterr().out
        assert "bnb.solve" in out

    def test_min_percent_filters(self, matrix_file, capsys):
        assert main(["profile", matrix_file, "--min-percent", "100"]) == 0
        out = capsys.readouterr().out
        # Only the 100% root line survives in the tree section.
        tree_lines = [
            line for line in out.splitlines() if "pipeline." in line
        ]
        assert all("pipeline.build" in line or "totals" in line
                   for line in tree_lines if "x" not in line)

    def test_trace_out_also_written(self, matrix_file, tmp_path, capsys):
        from repro.obs import read_jsonl

        trace = tmp_path / "profile.jsonl"
        assert main([
            "profile", matrix_file, "--trace-out", str(trace)
        ]) == 0
        assert read_jsonl(trace)

    def test_chrome_trace_written(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main([
            "profile", matrix_file, "--chrome-trace", str(out)
        ]) == 0
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert "X" in phases  # spans as complete events
        names = {event["name"] for event in trace["traceEvents"]}
        assert "pipeline.build" in names

    def test_chrome_trace_from_trace_file(self, matrix_file, tmp_path,
                                          capsys):
        jsonl = tmp_path / "profile.jsonl"
        chrome = tmp_path / "chrome.json"
        assert main([
            "profile", matrix_file, "--trace-out", str(jsonl)
        ]) == 0
        assert main([
            "profile", str(jsonl), "--chrome-trace", str(chrome)
        ]) == 0
        trace = json.loads(chrome.read_text())
        assert trace["traceEvents"]


class TestCompactSets:
    def test_text_output(self, matrix_file, capsys):
        assert main(["compact-sets", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "compact set" in out
        assert "largest reduced matrix" in out

    def test_json_output(self, matrix_file, capsys):
        assert main(["compact-sets", matrix_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_species"] == 6
        assert isinstance(payload["compact_sets"], list)
        # The two generated clusters must appear.
        sets = {tuple(sorted(s)) for s in payload["compact_sets"]}
        assert ("s0", "s1", "s2") in sets
        assert ("s3", "s4", "s5") in sets


class TestGenerate:
    def test_hmdna(self, tmp_path, capsys):
        out = tmp_path / "gen.phy"
        assert main([
            "generate", "--kind", "hmdna", "--species", "8",
            "--seed", "5", "--out", str(out),
        ]) == 0
        matrix = read_phylip(out)
        assert matrix.n == 8
        assert matrix.is_metric()

    def test_random(self, tmp_path, capsys):
        out = tmp_path / "gen.phy"
        assert main([
            "generate", "--kind", "random", "--species", "7",
            "--seed", "2", "--out", str(out),
        ]) == 0
        assert read_phylip(out).n == 7

    def test_roundtrip_build(self, tmp_path, capsys):
        out = tmp_path / "gen.phy"
        main(["generate", "--species", "8", "--seed", "1", "--out", str(out)])
        assert main(["build", str(out), "--method", "compact"]) == 0


class TestDistances:
    def test_fasta_to_matrix(self, tmp_path, capsys):
        from repro.sequences.fasta import write_fasta

        fasta = tmp_path / "seqs.fasta"
        write_fasta({"a": "AAAA", "b": "AACC", "c": "CCCC"}, fasta)
        out = tmp_path / "m.phy"
        assert main(["distances", str(fasta), "--out", str(out)]) == 0
        matrix = read_phylip(out)
        assert matrix.n == 3
        assert matrix["a", "c"] == 4.0

    def test_distance_method(self, tmp_path, capsys):
        from repro.sequences.fasta import write_fasta

        fasta = tmp_path / "seqs.fasta"
        write_fasta({"a": "ACGT", "b": "ACG"}, fasta)
        out = tmp_path / "m.phy"
        assert main([
            "distances", str(fasta), "--out", str(out), "--distance", "edit"
        ]) == 0
        assert read_phylip(out)["a", "b"] == 1.0

    def test_missing_fasta(self, tmp_path):
        with pytest.raises(SystemExit, match="no such FASTA"):
            main(["distances", "/nope.fasta", "--out", str(tmp_path / "m.phy")])


class TestRender:
    def test_render_output(self, matrix_file, capsys):
        assert main(["render", matrix_file, "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "cost" in out
        assert "+" in out and "-" in out
        for label in ("s0", "s5"):
            assert label in out

    def test_render_rejects_nj(self, matrix_file):
        with pytest.raises(SystemExit, match="ultrametric"):
            main(["render", matrix_file, "--method", "nj"])


class TestValidate:
    def test_validate_ok(self, matrix_file, capsys):
        assert main(["validate", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "verdict            : OK" in out

    def test_validate_with_optimal(self, matrix_file, capsys):
        assert main(["validate", matrix_file, "--compare-optimal"]) == 0
        assert "exact optimum" in capsys.readouterr().out

    def test_validate_rejects_nj(self, matrix_file):
        with pytest.raises(SystemExit, match="ultrametric"):
            main(["validate", matrix_file, "--method", "nj"])


class TestCompare:
    def test_identical_trees(self, matrix_file, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        main(["build", matrix_file, "--newick-out", str(a)])
        main(["build", matrix_file, "--newick-out", str(b)])
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Robinson-Foulds distance : 0" in out

    def test_json_output(self, matrix_file, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        main(["build", matrix_file, "--newick-out", str(a)])
        capsys.readouterr()
        assert main(["compare", str(a), str(a), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["robinson_foulds"] == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such tree"):
            main(["compare", "/nope.nwk", "/nope2.nwk"])


class TestGenerateFasta:
    def test_fasta_out(self, tmp_path, capsys):
        out = tmp_path / "m.phy"
        fasta = tmp_path / "seqs.fasta"
        assert main([
            "generate", "--kind", "hmdna", "--species", "6", "--seed", "3",
            "--out", str(out), "--fasta-out", str(fasta),
        ]) == 0
        from repro.sequences.fasta import read_fasta

        assert len(read_fasta(fasta)) == 6

    def test_fasta_out_requires_hmdna(self, tmp_path):
        with pytest.raises(SystemExit, match="hmdna"):
            main([
                "generate", "--kind", "random", "--species", "5",
                "--out", str(tmp_path / "m.phy"),
                "--fasta-out", str(tmp_path / "s.fasta"),
            ])


class TestInspect:
    def test_text_output(self, matrix_file, capsys):
        assert main(["inspect", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "species" in out
        assert "compact sets" in out
        assert "recommendation" in out

    def test_json_output(self, matrix_file, capsys):
        assert main(["inspect", matrix_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 6
        assert payload["is_metric"] is True
        assert 0.0 <= payload["structure_score"] <= 1.0


class TestBootstrapCommand:
    @pytest.fixture
    def fasta_file(self, tmp_path):
        from repro.sequences.fasta import write_fasta
        from repro.sequences.hmdna import generate_hmdna_dataset

        dataset = generate_hmdna_dataset(6, seed=4, sequence_length=200)
        path = tmp_path / "seqs.fasta"
        write_fasta(dataset.sequences, path)
        return str(path)

    def test_text_output(self, fasta_file, capsys):
        assert main([
            "bootstrap", fasta_file, "--replicates", "5", "--seed", "1"
        ]) == 0
        out = capsys.readouterr().out
        assert "clade support" in out
        assert "%" in out

    def test_json_output(self, fasta_file, capsys):
        assert main([
            "bootstrap", fasta_file, "--replicates", "4", "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicates"] == 4
        assert payload["newick"].endswith(";")
        for entry in payload["support"]:
            assert 0.0 <= entry["support"] <= 1.0

    def test_missing_fasta(self):
        with pytest.raises(SystemExit, match="no such FASTA"):
            main(["bootstrap", "/nope.fasta"])


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-mut {__version__}" in capsys.readouterr().out


class TestProfileFromTrace:
    @pytest.fixture
    def trace_file(self, matrix_file, tmp_path):
        trace = tmp_path / "build.jsonl"
        assert main([
            "profile", matrix_file, "--trace-out", str(trace)
        ]) == 0
        return trace

    def test_profiles_recorded_trace(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["profile", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.build" in out
        assert str(trace_file) in out

    def test_from_trace_flag_overrides_suffix(self, trace_file, tmp_path, capsys):
        renamed = tmp_path / "trace.dat"
        renamed.write_text(trace_file.read_text())
        capsys.readouterr()
        assert main(["profile", str(renamed), "--from-trace"]) == 0
        assert "pipeline.build" in capsys.readouterr().out

    def test_empty_trace_prints_no_spans_message(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_span_free_trace_prints_no_spans_message(self, tmp_path, capsys):
        span_free = tmp_path / "counters_only.jsonl"
        span_free.write_text(
            '{"event": "meta", "schema": 1}\n'
            '{"event": "counter", "name": "c", "value": 1, "time": 0.0}\n'
        )
        assert main(["profile", str(span_free)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_truncated_trace_warns_but_profiles(self, trace_file, capsys):
        text = trace_file.read_text().rstrip("\n")
        trace_file.write_text(text[:-15])
        capsys.readouterr()
        assert main(["profile", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "pipeline." in captured.out

    def test_missing_trace_file_errors(self):
        with pytest.raises(SystemExit, match="no such trace"):
            main(["profile", "/nope/trace.jsonl"])


class TestServeParser:
    def test_serve_registered_with_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8533
        assert args.workers == 4
        assert args.queue_size == 64
        assert args.cache_size == 256
        assert args.cache_dir is None


class TestProfileTraceId:
    @pytest.fixture
    def two_trace_file(self, tmp_path):
        """A trace holding two requests' worth of stamped spans."""
        import itertools

        from repro.obs import Recorder, trace_context

        clock = itertools.count().__next__
        rec = Recorder(clock=lambda: float(clock()))
        with trace_context("req-a"):
            with rec.span("job.a"):
                rec.counter("hits")
        with trace_context("req-b"):
            with rec.span("job.b"):
                pass
        trace = tmp_path / "two.jsonl"
        rec.write_jsonl(trace)
        return trace

    def test_filters_to_one_request(self, two_trace_file, capsys):
        assert main([
            "profile", str(two_trace_file), "--trace-id", "req-a"
        ]) == 0
        out = capsys.readouterr().out
        assert "trace_id: req-a" in out
        assert "job.a" in out
        assert "job.b" not in out

    def test_unmatched_id_reports_cleanly(self, two_trace_file, capsys):
        assert main([
            "profile", str(two_trace_file), "--trace-id", "nope"
        ]) == 0
        assert "no events with trace_id" in capsys.readouterr().out

    def test_trace_id_requires_trace_input(self, matrix_file):
        with pytest.raises(SystemExit, match="--trace-id"):
            main(["profile", matrix_file, "--trace-id", "x"])

    def test_trace_out_writes_the_shown_events_unchanged(
        self, two_trace_file, tmp_path
    ):
        from repro.obs import filter_by_trace_id, read_jsonl

        out = tmp_path / "a.jsonl"
        assert main([
            "profile", str(two_trace_file), "--trace-id", "req-a",
            "--trace-out", str(out),
        ]) == 0
        shown = filter_by_trace_id(read_jsonl(two_trace_file), "req-a")
        assert list(read_jsonl(out)) == shown

    @pytest.mark.parametrize("flag", [
        ["--method", "compact"], ["--reduction", "maximum"],
        ["--workers", "16"], ["--max-exact", "4"],
    ])
    def test_engine_options_rejected_for_trace_input(
        self, two_trace_file, flag, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["profile", str(two_trace_file), *flag])
        assert exc.value.code == 2
        assert f"error: {flag[0]}: engine options apply to a matrix input" \
            in capsys.readouterr().err


class TestServeTraceArgs:
    def test_streaming_args_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.trace_max_mb is None
        assert args.trace_ring == 4096
        args = build_parser().parse_args([
            "serve", "--trace-out", "t.jsonl",
            "--trace-max-mb", "64", "--trace-ring", "512",
        ])
        assert args.trace_max_mb == 64.0
        assert args.trace_ring == 512


def _break_bnb(monkeypatch):
    """Patch the construction entry point so bnb lies about its cost."""
    import repro.core.api as api

    real = api.construct_tree

    def broken(matrix, method, **kwargs):
        result = real(matrix, method, **kwargs)
        if method == "bnb":
            result.cost = result.cost * 1.001
        return result

    monkeypatch.setattr(api, "construct_tree", broken)


class TestVerify:
    def test_clean_matrix_exits_zero(self, matrix_file, capsys):
        assert main([
            "verify", matrix_file, "--methods", "bnb,parallel-bnb,upgmm"
        ]) == 0
        captured = capsys.readouterr()
        assert "verdict: OK" in captured.out
        assert captured.err == ""

    def test_json_output(self, matrix_file, capsys):
        assert main([
            "verify", matrix_file, "--methods", "bnb,upgmm", "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["methods"] == ["bnb", "upgmm"]

    def test_missing_file_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "/nonexistent/matrix.phy"])
        assert excinfo.value.code == 2
        assert "no such matrix file" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, matrix_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", matrix_file, "--methods", "bnb,astrology"])
        assert excinfo.value.code == 2
        assert "unknown methods" in capsys.readouterr().err

    def test_broken_engine_exits_one_with_repro_line(
        self, matrix_file, monkeypatch, capsys
    ):
        _break_bnb(monkeypatch)
        code = main([
            "verify", matrix_file,
            "--methods", "bnb,parallel-bnb,upgmm", "--seed", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "VIOLATION [" in err
        assert (
            f"reproduce with: repro-mut verify {matrix_file} "
            "--methods bnb,parallel-bnb,upgmm --seed 3"
        ) in err


class TestFuzz:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main([
            "fuzz", "--seed", "0", "--budget", "8",
            "--methods", "bnb,upgmm", "--corpus", str(corpus),
        ]) == 0
        captured = capsys.readouterr()
        assert "verdict : OK" in captured.out
        assert not corpus.exists()

    def test_json_output(self, tmp_path, capsys):
        assert main([
            "fuzz", "--seed", "1", "--budget", "4",
            "--methods", "upgmm", "--corpus", str(tmp_path / "c"), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["cases_run"] == 4

    def test_bad_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--budget", "0"])
        assert excinfo.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_bad_species_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--min-species", "9", "--max-species", "5"])
        assert excinfo.value.code == 2

    def test_broken_engine_exits_one_and_writes_corpus(
        self, tmp_path, monkeypatch, capsys
    ):
        _break_bnb(monkeypatch)
        corpus = tmp_path / "corpus"
        code = main([
            "fuzz", "--seed", "0", "--budget", "8",
            "--methods", "bnb,parallel-bnb,upgmm",
            "--corpus", str(corpus), "--max-failures", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "FUZZ FAILURE seed=0" in err
        assert f"corpus={corpus}" in err
        assert "reproduce: repro-mut verify" in err
        assert "replay the campaign with: repro-mut fuzz --seed 0" in err
        phy_files = sorted(corpus.glob("fail-seed0-case*.phy"))
        assert phy_files
        assert all(p.with_suffix(".json").exists() for p in phy_files)
