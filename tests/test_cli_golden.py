"""Golden transcripts of the ``repro-mut`` command line.

Each case runs one invocation through :func:`repro.cli.main` and compares
its exit code, stdout and stderr with ``tests/data/cli/<case>.txt``.  The
inputs are built from fixed seeds in a temporary directory.  Only
volatile fields are normalised: the temporary directory, timings, the
git sha and the host name.

``serve`` blocks until it is signalled, so it has no transcript here; the
live-server tests drive it in a subprocess.

To re-record every transcript after an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
FASTA_FIXTURES = Path(__file__).parent / "data" / "fasta"

_M = "{tmp}/m.phy"
_TWO = "{tmp}/two.jsonl"
_DB = "{tmp}/c.sqlite"

# (case name, command line).  ``{tmp}`` is the workspace directory.
CASES = [
    ("version", "--version"),
    # build
    ("build_text", f"build {_M}"),
    ("build_json", f"build {_M} --json"),
    ("build_csv_upgmm", "build {tmp}/m.csv --method upgmm"),
    ("build_nj", f"build {_M} --method nj"),
    ("build_bnb_json", f"build {_M} --method bnb --json"),
    ("build_parallel_json", f"build {_M} --method parallel-bnb --workers 4 --json"),
    ("build_outputs", f"build {_M} --reduction average --max-exact 4 "
                      "--newick-out {tmp}/out.nwk --trace-out {tmp}/build.jsonl"),
    ("build_progress", f"build {_M} --method bnb --progress "
                       "--progress-interval 0"),
    ("build_missing", "build {tmp}/missing.phy"),
    # profile
    ("profile_bnb", f"profile {_M} --method bnb"),
    ("profile_outputs", f"profile {_M} --method upgmm --trace-out "
                        "{tmp}/p.jsonl --chrome-trace {tmp}/p.json"),
    ("profile_trace", f"profile {_TWO}"),
    ("profile_trace_id", f"profile {_TWO} --trace-id req-a --min-percent 10"),
    ("profile_trace_id_unmatched", f"profile {_TWO} --trace-id nope"),
    ("profile_from_trace", "profile {tmp}/two.dat --from-trace"),
    ("profile_trace_chrome", f"profile {_TWO} --chrome-trace {{tmp}}/c2.json"),
    ("profile_empty_trace", "profile {tmp}/empty.jsonl"),
    ("profile_trace_id_needs_trace", f"profile {_M} --trace-id x"),
    ("profile_missing_trace", "profile {tmp}/missing.jsonl"),
    ("profile_unreadable_trace", "profile {tmp}/bad.jsonl"),
    ("profile_missing_matrix", "profile {tmp}/missing.phy"),
    # compact-sets
    ("compact_sets_text", f"compact-sets {_M}"),
    ("compact_sets_json", f"compact-sets {_M} --json"),
    ("compact_sets_missing", "compact-sets {tmp}/missing.phy"),
    # generate
    ("generate_hmdna", "generate --species 6 --seed 3 --out {tmp}/g.phy "
                       "--fasta-out {tmp}/g.fasta"),
    ("generate_random", "generate --kind random --species 5 --seed 2 "
                        "--out {tmp}/r.phy"),
    ("generate_fasta_needs_hmdna", "generate --kind random --out {tmp}/x.phy "
                                   "--fasta-out {tmp}/x.fasta"),
    # distances
    ("distances", "distances {tmp}/seqs.fasta --out {tmp}/d.phy"),
    ("distances_edit", "distances {tmp}/seqs.fasta --out {tmp}/e.phy "
                       "--distance edit"),
    ("distances_missing", "distances {tmp}/missing.fasta --out {tmp}/d.phy"),
    # ingest
    ("ingest_text", "ingest {tmp}/clean.fasta"),
    ("ingest_json", "ingest {tmp}/clean.fasta --json --verify"),
    ("ingest_rejected", "ingest {tmp}/dup.fasta"),
    ("ingest_lenient", "ingest {tmp}/dup.fasta --mode lenient --distance jc"),
    ("ingest_outputs", "ingest {tmp}/clean.fasta --manifest {tmp}/man.json "
                       "--trace-out {tmp}/ingest.jsonl"),
    ("ingest_missing", "ingest {tmp}/missing.fasta"),
    ("ingest_bad_min_length", "ingest {tmp}/clean.fasta --min-length 0"),
    ("ingest_bad_ambiguity", "ingest {tmp}/clean.fasta --max-ambiguity 2"),
    # verify
    ("verify_text", f"verify {_M} --methods bnb,upgmm"),
    ("verify_json", f"verify {_M} --methods bnb,upgmm --json"),
    ("verify_skip_metamorphic", f"verify {_M} --methods bnb --seed 3 "
                                "--skip-metamorphic"),
    ("verify_missing", "verify {tmp}/missing.phy"),
    ("verify_unknown_method", f"verify {_M} --methods bnb,astrology"),
    ("verify_empty_methods", f"verify {_M} --methods ,"),
    ("verify_unreadable", "verify {tmp}/bad.phy"),
    # fuzz
    ("fuzz_text", "fuzz --budget 4 --methods upgmm --corpus {tmp}/corpus"),
    ("fuzz_json", "fuzz --seed 1 --budget 3 --methods upgmm,bnb "
                  "--max-species 5 --corpus {tmp}/corpus --json"),
    ("fuzz_db", "fuzz --budget 2 --methods upgmm --corpus {tmp}/corpus "
                "--db {tmp}/fuzz.sqlite"),
    ("fuzz_bad_budget", "fuzz --budget 0"),
    ("fuzz_bad_species", "fuzz --min-species 9 --max-species 5"),
    ("fuzz_ingest_text", "fuzz --ingest --budget 3 --corpus {tmp}/icorpus"),
    ("fuzz_ingest_json", "fuzz --ingest --seed 2 --budget 3 "
                         "--fasta-dir {tmp}/fastas --corpus {tmp}/icorpus "
                         "--json"),
    ("fuzz_ingest_empty_dir", "fuzz --ingest --fasta-dir {tmp}/nofastas"),
    ("fuzz_ingest_bad_budget", "fuzz --ingest --budget 0"),
    # campaign
    ("campaign_run_text", "campaign run {tmp}/suite.json --db {tmp}/r1.sqlite "
                          "--workers 1"),
    ("campaign_run_json", "campaign run {tmp}/suite.json --db {tmp}/r2.sqlite "
                          "--workers 1 --name j --json --trace-out "
                          "{tmp}/campaign.jsonl"),
    ("campaign_run_stop_after", "campaign run {tmp}/suite.json --db "
                                "{tmp}/r3.sqlite --workers 1 --stop-after 1"),
    ("campaign_run_unknown_suite", f"campaign run no-such-suite --db {_DB}"),
    ("campaign_run_bad_workers", f"campaign run {{tmp}}/suite.json --db {_DB} "
                                 "--workers 0"),
    ("campaign_run_bad_methods", f"campaign run {{tmp}}/suite.json --db {_DB} "
                                 "--methods astrology"),
    ("campaign_run_mismatch", f"campaign run {{tmp}}/other.json --db {_DB} "
                              "--name cli-demo"),
    ("campaign_status_text", f"campaign status cli-demo --db {_DB}"),
    ("campaign_status_json", f"campaign status cli-demo --db {_DB} --json"),
    ("campaign_status_unknown", f"campaign status nope --db {_DB}"),
    ("campaign_list_text", f"campaign list --db {_DB}"),
    ("campaign_list_json", f"campaign list --db {_DB} --json"),
    ("campaign_list_empty", "campaign list --db {tmp}/empty.sqlite"),
    ("campaign_diff_text", f"campaign diff cli-demo again --db {_DB}"),
    ("campaign_diff_json", f"campaign diff cli-demo again --db {_DB} --json"),
    ("campaign_diff_unknown", f"campaign diff cli-demo nope --db {_DB}"),
    ("campaign_trend_text", f"campaign trend again cli-demo --db {_DB}"),
    ("campaign_trend_json", f"campaign trend cli-demo again --db {_DB} --json"),
    ("campaign_trend_unknown", f"campaign trend cli-demo nope --db {_DB}"),
    ("campaign_export", f"campaign export cli-demo --db {_DB} "
                        "--strip-volatile"),
    ("campaign_export_out", f"campaign export cli-demo --db {_DB} "
                            "--strip-volatile --out {tmp}/export.json"),
    ("campaign_export_unknown", f"campaign export nope --db {_DB}"),
    # render / validate / inspect
    ("render", f"render {_M} --width 40"),
    ("render_nj", f"render {_M} --method nj"),
    ("render_missing", "render {tmp}/missing.phy"),
    ("validate", f"validate {_M}"),
    ("validate_optimal", f"validate {_M} --method upgmm --compare-optimal"),
    ("validate_nj", f"validate {_M} --method nj"),
    ("inspect_text", f"inspect {_M}"),
    ("inspect_json", f"inspect {_M} --json"),
    ("inspect_missing", "inspect {tmp}/missing.phy"),
    # compare
    ("compare_text", "compare {tmp}/a.nwk {tmp}/b.nwk"),
    ("compare_json", "compare {tmp}/a.nwk {tmp}/a.nwk --json"),
    ("compare_missing", "compare {tmp}/a.nwk {tmp}/missing.nwk"),
    # bootstrap
    ("bootstrap_text", "bootstrap {tmp}/seqs.fasta --replicates 5 --seed 1"),
    ("bootstrap_json", "bootstrap {tmp}/seqs.fasta --replicates 4 "
                       "--distance p --json"),
    ("bootstrap_missing", "bootstrap {tmp}/missing.fasta"),
    # watch
    ("watch_bad_interval", "watch job --interval 0"),
    ("watch_unreachable", "watch job --url http://127.0.0.1:9 --timeout 1"),
]

# Malformed input files: one ``error: unreadable <kind> file`` line each.
MALFORMED_CASES = [
    ("malformed_build", "build {tmp}/bad.phy"),
    ("malformed_profile", "profile {tmp}/bad.phy"),
    ("malformed_compact_sets", "compact-sets {tmp}/bad.phy --json"),
    ("malformed_render", "render {tmp}/bad.phy"),
    ("malformed_validate", "validate {tmp}/bad.phy"),
    ("malformed_inspect", "inspect {tmp}/bad.phy"),
    ("malformed_compare", "compare {tmp}/a.nwk {tmp}/bad.nwk"),
    ("malformed_distances", "distances {tmp}/bad.fasta --out {tmp}/d.phy"),
    ("malformed_bootstrap", "bootstrap {tmp}/bad.fasta --json"),
]

_SHA = "0123456789ab"
_HOST = "golden-host"

_SUITE = {
    "name": "cli-demo",
    "seed": 1,
    "methods": ["upgmm"],
    "cases": [
        {"kind": "generated", "families": ["random-int"], "sizes": [5, 6],
         "count": 2},
    ],
}

# Timings, keyed by the JSON field or the text label that carries them.
_VOLATILE_JSON = re.compile(
    r'("(?:elapsed_seconds|duration_seconds|started_at|finished_at|'
    r'median_time_ratio)": )-?[0-9.e+-]+'
)
_VOLATILE_JSON_LIST = re.compile(
    r'("(?:wall_seconds|solve_seconds|wall_geomean|solve_geomean)": \[)'
    r'([^\]]*)\]'
)
_NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")
_VOLATILE_TEXT = [
    (re.compile(r"^(time   : )\S+s$", re.M), r"\1<t>"),
    (re.compile(r"^(elapsed  : )\S+s$", re.M), r"\1<t>"),
    (re.compile(r"median wall-time ratio \S+x"), "median wall-time ratio <t>"),
    (re.compile(r"\d+\.\d+ ms"), "<t> ms"),
    # the trend report's wall-clock columns
    (re.compile(r"(\| (?:\S+ \(baseline\)|\S+) \| v\S+ \| )\S+x"), r"\1<t>"),
    (re.compile(r"^(\| gen/\S+ \| )(\d+\.\d+) \| (\d+\.\d+) \|$", re.M),
     r"\1<t> | <t> |"),
    # live heartbeats are paced by the clock: keep one marker per run
    (re.compile(r"^(?:\[bnb\] .*\n)+", re.M), "[bnb] <heartbeats>\n"),
]


def _normalise(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    text = _VOLATILE_JSON.sub(r"\1<t>", text)
    text = _VOLATILE_JSON_LIST.sub(
        lambda m: m.group(1) + _NUMBER.sub("<t>", m.group(2)) + "]", text
    )
    for pattern, replacement in _VOLATILE_TEXT:
        text = pattern.sub(replacement, text)
    return text


def _sort_support(stdout: str) -> str:
    """Order ``bootstrap``'s clades by support, then by members.

    Clades of equal support come out in set-iteration order, which
    depends on the string hash seed.
    """
    if stdout.startswith("{"):
        payload = json.loads(stdout)
        payload["support"].sort(key=lambda e: (-e["support"], e["clade"]))
        return json.dumps(payload, indent=2) + "\n"
    head, _, block = stdout.partition("replicates:\n")
    lines = sorted(
        block.splitlines(keepends=True),
        key=lambda line: (-int(line.split("%")[0]), line),
    )
    return head + "replicates:\n" + "".join(lines)


def make_workspace(tmp: Path) -> None:
    """Write every input the cases read, from fixed seeds."""
    from repro.cli import main
    from repro.core.api import construct_tree
    from repro.matrix.generators import clustered_matrix
    from repro.matrix.io import write_csv_matrix, write_phylip
    from repro.obs import Recorder, trace_context
    from repro.sequences.fasta import write_fasta
    from repro.sequences.hmdna import generate_hmdna_dataset
    from repro.tree.newick import to_newick

    matrix = clustered_matrix([3, 3], seed=1)
    write_phylip(matrix, tmp / "m.phy")
    write_csv_matrix(clustered_matrix([2, 3], seed=2), tmp / "m.csv")
    for name, method in (("a", "upgmm"), ("b", "bnb")):
        tree = construct_tree(matrix, method).tree
        (tmp / f"{name}.nwk").write_text(to_newick(tree) + "\n")
    dataset = generate_hmdna_dataset(6, seed=4, sequence_length=200)
    write_fasta(dataset.sequences, tmp / "seqs.fasta")
    shutil.copy(FASTA_FIXTURES / "clean_dna.fasta", tmp / "clean.fasta")
    shutil.copy(FASTA_FIXTURES / "duplicate_id.fasta", tmp / "dup.fasta")
    (tmp / "fastas").mkdir()
    shutil.copy(FASTA_FIXTURES / "clean_dna.fasta", tmp / "fastas" / "a.fasta")
    (tmp / "nofastas").mkdir()

    # A trace of two requests on a counting clock: profiles of it are exact.
    ticks = iter(range(1000))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with trace_context("req-a"):
        with rec.span("job.a"):
            with rec.span("job.a.solve"):
                rec.counter("hits")
    with trace_context("req-b"):
        with rec.span("job.b"):
            pass
    rec.write_jsonl(tmp / "two.jsonl")
    shutil.copy(tmp / "two.jsonl", tmp / "two.dat")
    (tmp / "empty.jsonl").write_text("")
    (tmp / "bad.jsonl").write_text(
        '{"event": "meta", "schema": 1}\nnot json\n'
        '{"event": "counter", "name": "c", "value": 1, "time": 0.0}\n'
    )

    # Malformed inputs of each kind.
    (tmp / "bad.phy").write_text("3\na 0 1\nb 1 0\n")
    (tmp / "bad.nwk").write_text("((a,b),c;\n")
    (tmp / "bad.fasta").write_text(">a\n>b\nACGT\n")

    (tmp / "suite.json").write_text(json.dumps(_SUITE))
    (tmp / "other.json").write_text(json.dumps(dict(_SUITE, seed=2)))
    with _pinned_identity(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for extra in ([], ["--name", "again"]):
            main(["campaign", "run", str(tmp / "suite.json"), "--db",
                  str(tmp / "c.sqlite"), "--workers", "1", *extra])


@contextlib.contextmanager
def _pinned_identity():
    with mock.patch("repro.version._git_sha", return_value=_SHA), \
            mock.patch("socket.gethostname", return_value=_HOST):
        yield


def run_case(command: str, tmp: Path) -> str:
    """Run one command line; return its normalised transcript."""
    from repro.cli import main

    argv = shlex.split(command.format(tmp=tmp))
    out, err = io.StringIO(), io.StringIO()
    with _pinned_identity(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # What the interpreter does with an uncaught SystemExit.
            code = exc.code
            if isinstance(code, str):
                print(code, file=sys.stderr)
                code = 1
            elif code is None:
                code = 0
    stdout = out.getvalue()
    if argv[0] == "bootstrap" and code == 0:
        stdout = _sort_support(stdout)
    transcript = (
        f"$ repro-mut {command.format(tmp='<tmp>')}\n"
        f"--- exit {code}\n--- stdout\n{stdout}"
        f"--- stderr\n{err.getvalue()}"
    )
    return _normalise(transcript, str(tmp))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    make_workspace(tmp)
    return tmp


@pytest.mark.parametrize(
    "name,command", CASES + MALFORMED_CASES,
    ids=[name for name, _ in CASES + MALFORMED_CASES],
)
def test_transcript_matches_golden(name, command, workspace):
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert run_case(command, workspace) == golden


def test_every_subcommand_has_a_transcript():
    from repro.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    covered = {command.split()[0] for _, command in CASES}
    assert set(sub.choices) - covered == {"serve"}
    (campaign_sub,) = [
        a for a in sub.choices["campaign"]._actions
        if a.dest == "campaign_command"
    ]
    covered = {
        command.split()[1] for _, command in CASES
        if command.startswith("campaign ")
    }
    assert set(campaign_sub.choices) == covered


def record(names=None) -> None:
    """Rewrite the golden transcripts (all of them, or only ``names``)."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        make_workspace(tmp)
        for name, command in CASES + MALFORMED_CASES:
            if names and name not in names:
                continue
            (GOLDEN_DIR / f"{name}.txt").write_text(run_case(command, tmp))
            print(f"recorded {name}")


if __name__ == "__main__":
    record(set(sys.argv[1:]))
