"""Command-line front-end: ``repro-mut``.

The project report ships the pipeline as "a user-friendly tool system";
this CLI is that surface.  Examples::

    # exact minimum ultrametric tree from a PHYLIP matrix
    repro-mut build matrix.phy --method bnb

    # the paper's pipeline, with the simulated 16-node cluster
    repro-mut build matrix.phy --method compact-parallel --workers 16

    # inspect the compact sets of a matrix
    repro-mut compact-sets matrix.phy

    # generate a synthetic HMDNA matrix and write it out
    repro-mut generate --species 26 --seed 7 --out hmdna.phy

    # compute a distance matrix from FASTA sequences
    repro-mut distances seqs.fasta --out matrix.phy

    # draw a tree, validate it, or compare two Newick trees
    repro-mut render matrix.phy --width 50
    repro-mut validate matrix.phy --method compact
    repro-mut compare tree_a.nwk tree_b.nwk

    # cross-engine verification and seeded fuzzing (docs/verification.md)
    repro-mut verify matrix.phy
    repro-mut fuzz --seed 0 --budget 200 --corpus corpus

    # run the serving layer (see docs/service.md)
    repro-mut serve --port 8533 --workers 4 --cache-dir .repro-cache

    # watch a running job's live incumbent/gap trajectory
    repro-mut watch 5f3a... --url http://127.0.0.1:8533

Each subcommand binds one handler with ``set_defaults``.  A handler
returns an :class:`Outcome` (exit code, ``--json`` payload, text lines,
trace events) or raises :class:`CLIError`.  Only :func:`main` prints the
payload or the lines, writes ``--trace-out`` and ``--chrome-trace``,
opens a campaign subcommand's ``--db`` and turns a :class:`CLIError`
into an ``error:`` line and an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Iterator, List, NamedTuple, Optional, Sequence

from repro.core.api import METHODS, construct_tree
from repro.matrix.io import read_csv_matrix, read_phylip, write_phylip
from repro.obs import (
    ProgressTracker,
    Recorder,
    SpanEvent,
    chrome_trace_events,
    filter_by_trace_id,
    format_progress_line,
    progress_context,
    read_jsonl,
    render_profile,
)
from repro.parallel.config import ClusterConfig
from repro.sequences.fasta import read_fasta, write_fasta
from repro.tree.newick import parse_newick, to_newick

__all__ = ["main", "build_parser"]

_MATRIX = "PHYLIP (.phy) or CSV matrix file"


class CLIError(Exception):
    """A failed invocation: ``error: <message>`` on stderr, exit ``code``."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


class Outcome(NamedTuple):
    """What a handler hands back to :func:`main`."""

    code: int = 0
    payload: Any = None  # the --json document
    lines: Sequence[str] = ()  # the text output
    trace: Any = None  # the Recorder behind --trace-out
    chrome: Optional[list] = None  # the events behind --chrome-trace


def _read_matrix(path):
    if Path(path).suffix.lower() == ".csv":
        return read_csv_matrix(path)
    return read_phylip(path)


_READERS = {
    "matrix": _read_matrix,
    "FASTA": read_fasta,
    "tree": lambda path: parse_newick(Path(path).read_text()),
    "trace": read_jsonl,
}


def _load(kind: str, path, code: int = 1, reader=None):
    """Read one input file; a missing or unreadable one is a CLIError."""
    if not Path(path).exists():
        raise CLIError(f"no such {kind} file: {path}", code)
    try:
        return (reader or _READERS[kind])(path)
    except (ValueError, OSError) as exc:
        raise CLIError(f"unreadable {kind} file {path}: {exc}", code) from None


def _command(sub, name: str, handler, *, matrix: Optional[str] = None,
             db: bool = False, **kwargs) -> argparse.ArgumentParser:
    """Register subcommand ``name`` and its shared arguments."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    if matrix:
        parser.add_argument("matrix", help=matrix)
    if db:
        parser.add_argument("--db", default="campaigns.sqlite",
                            help="campaign database file "
                                 "(default: campaigns.sqlite)")
    return parser


def _json_arg(parser, help: Optional[str] = None) -> None:
    parser.add_argument("--json", action="store_true", help=help)


def _trace_arg(parser, help: str, announce: bool = False) -> None:
    parser.add_argument("--trace-out", default=None, help=help)
    parser.set_defaults(announce_trace=announce)


def _engine_args(parser) -> None:
    parser.add_argument("--method", choices=METHODS, default="compact",
                        help="construction method (default: compact)")
    parser.add_argument(
        "--reduction", choices=("maximum", "minimum", "average"),
        default="maximum", help="group-matrix reduction for compact methods",
    )
    parser.add_argument("--workers", type=int, default=16,
                        help="simulated cluster size for parallel methods")
    parser.add_argument("--max-exact", type=int, default=None,
                        help="fall back to UPGMM above this subproblem size")


def build_parser() -> argparse.ArgumentParser:
    from repro.version import fingerprint_summary

    parser = argparse.ArgumentParser(
        prog="repro-mut",
        description="Minimum ultrametric evolutionary trees via compact sets",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-mut {fingerprint_summary()}",
        help="print the engine fingerprint (version, cache-key version, "
             "trace schema, git sha) and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = _command(sub, "build", _cmd_build, matrix=_MATRIX,
                     help="construct a tree from a matrix file")
    _engine_args(build)
    build.add_argument("--newick-out", default=None,
                       help="write the tree in Newick format to this file")
    _trace_arg(build, "record observability events and write them as "
                      "JSON lines to this file", announce=True)
    build.add_argument("--progress", action="store_true",
                       help="print live incumbent/bound/gap heartbeat lines "
                            "to stderr while the exact solvers search")
    build.add_argument("--progress-interval", type=float, default=0.25,
                       help="seconds between --progress heartbeats "
                            "(default: 0.25)")
    _json_arg(build, "emit machine-readable JSON instead of text")

    profile = _command(
        sub, "profile", _cmd_profile,
        matrix="PHYLIP (.phy)/CSV matrix file, or a recorded JSON-lines "
               "trace (.jsonl) to profile without re-running",
        help="print where the time went (from a fresh build, or from a "
             "recorded .jsonl trace file)",
    )
    profile.add_argument(
        "--from-trace", action="store_true",
        help="treat the input as a trace file regardless of its suffix",
    )
    _engine_args(profile)
    profile.add_argument("--min-percent", type=float, default=0.0,
                         help="hide spans below this percentage of total time")
    _trace_arg(profile, "also write the raw events as JSON lines",
               announce=True)
    profile.add_argument("--trace-id", default=None,
                         help="only profile events belonging to this request "
                              "trace id (trace-file input only)")
    profile.add_argument("--chrome-trace", default=None, metavar="OUT",
                         help="also write the events in Chrome trace-event "
                              "format (load in chrome://tracing or Perfetto)")

    compact = _command(sub, "compact-sets", _cmd_compact_sets, matrix=_MATRIX,
                       help="list compact sets of a matrix")
    _json_arg(compact)

    generate = _command(sub, "generate", _cmd_generate,
                        help="generate a synthetic matrix")
    generate.add_argument("--kind", choices=("hmdna", "random"), default="hmdna")
    generate.add_argument("--species", type=int, default=26)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output PHYLIP file")
    generate.add_argument("--fasta-out", default=None,
                          help="also write the generated sequences as FASTA "
                               "(hmdna kind only)")

    distances = _command(sub, "distances", _cmd_distances,
                         help="compute a distance matrix from FASTA sequences")
    distances.add_argument("fasta", help="input FASTA file")
    distances.add_argument("--out", required=True, help="output PHYLIP file")
    distances.add_argument(
        "--distance", choices=("p", "p-count", "jukes-cantor", "edit"),
        default="p-count", help="pairwise distance (default: p-count)",
    )

    ingest = _command(
        sub, "ingest", _cmd_ingest,
        help="staged FASTA -> QC -> distance -> repair -> tree pipeline "
             "with a JSON manifest (exit 0 clean, 1 rejections, 2 usage "
             "error; see docs/ingestion.md)",
    )
    ingest.set_defaults(sort_keys=True)
    ingest.add_argument("fasta", help="input FASTA / multi-FASTA file")
    ingest.add_argument(
        "--distance",
        choices=("p", "p-count", "jc", "jukes-cantor", "edit"),
        default="p",
        help="pairwise distance for stage 2 (default: p; jc = "
             "jukes-cantor; edit works on unaligned input)",
    )
    ingest.add_argument("--method", choices=METHODS, default="compact",
                        help="tree construction method for stage 4 "
                             "(default: compact)")
    ingest.add_argument("--mode", choices=("strict", "lenient"),
                        default="strict",
                        help="strict fails a stage on any problem; lenient "
                             "drops bad records and continues while >= 3 "
                             "survive (default: strict)")
    ingest.add_argument("--manifest", default=None,
                        help="manifest JSON path; an existing manifest for "
                             "the same input + config resumes past its "
                             "completed stages")
    ingest.add_argument("--scale", type=float, default=1.0,
                        help="multiply every distance entry (default: 1.0)")
    ingest.add_argument("--min-length", type=int, default=1,
                        help="QC: minimum residues per record (default: 1)")
    ingest.add_argument("--max-length", type=int, default=None,
                        help="QC: maximum residues per record "
                             "(default: unbounded)")
    ingest.add_argument("--max-ambiguity", type=float, default=0.1,
                        help="QC: tolerated ambiguity-code fraction per "
                             "record (default: 0.1)")
    ingest.add_argument("--verify", action="store_true",
                        help="run the result oracles on the constructed tree")
    _trace_arg(ingest, "write the ingest.stage spans/counters as "
                       "schema-v1 JSON lines to this file")
    _json_arg(ingest, "print the full manifest to stdout")

    verify = _command(
        sub, "verify", _cmd_verify, matrix=_MATRIX,
        help="differential + metamorphic verification of a matrix "
             "(exit 0 clean, 1 violations, 2 usage error)",
    )
    verify.add_argument(
        "--methods", default=None,
        help="comma-separated construction methods to cross-check "
             "(default: bnb,parallel-bnb,multiprocess,compact,upgmm)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed for the metamorphic transformations (default: 0)",
    )
    verify.add_argument(
        "--skip-metamorphic", action="store_true",
        help="run only the oracles and the differential cross-checks",
    )
    _json_arg(verify, "emit the full machine-readable report")

    fuzz = _command(
        sub, "fuzz", _cmd_fuzz,
        help="seeded fuzzing over matrix families with corpus shrinking "
             "(exit 0 clean, 1 failures, 2 usage error)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; the whole campaign is "
                           "deterministic given it (default: 0)")
    fuzz.add_argument("--budget", type=int, default=100,
                      help="number of verification cases (default: 100)")
    fuzz.add_argument(
        "--methods", default=None,
        help="comma-separated methods to cross-check per case "
             "(default: bnb,parallel-bnb,multiprocess,compact,upgmm)",
    )
    fuzz.add_argument("--corpus", default="corpus",
                      help="directory for shrunk failing matrices "
                           "(created on demand; default: corpus)")
    fuzz.add_argument("--min-species", type=int, default=4)
    fuzz.add_argument("--max-species", type=int, default=9,
                      help="largest matrix size to draw (default: 9; the "
                           "exact engines are exponential)")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop the campaign after this many distinct "
                           "failures (default: 5)")
    _json_arg(fuzz, "emit the full machine-readable report")
    fuzz.add_argument("--db", default=None,
                      help="also archive failures into this campaign "
                           "database (same file campaign run uses)")
    fuzz.add_argument("--ingest", action="store_true",
                      help="fuzz the FASTA ingestion pipeline instead of "
                           "the matrix families: mutate seed FASTA files "
                           "(ambiguity injection, truncation, duplicate "
                           "ids, ...) through the lenient pipeline")
    fuzz.add_argument("--fasta-dir", default=None,
                      help="directory of seed .fasta files for --ingest "
                           "(default: synthetic HMDNA-style seeds)")

    campaign = sub.add_parser(
        "campaign",
        help="run suites into the persistent run database and compare "
             "campaigns across engine versions (see docs/campaigns.md)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    crun = _command(
        campaign_sub, "run", _campaign_run, db=True,
        help="execute (or resume) a suite as a named campaign "
             "(exit 0 clean, 1 case failures, 3 interrupted)",
    )
    crun.add_argument("suite",
                      help="suite spec JSON file, or a builtin suite name "
                           "(smoke, pins, hmdna)")
    crun.add_argument("--name", default=None,
                      help="campaign name (default: the suite's name); "
                           "re-using a name resumes that campaign")
    crun.add_argument("--methods", default=None,
                      help="comma-separated methods overriding the suite's")
    crun.add_argument("--backend", choices=("auto", "thread", "process"),
                      default="auto",
                      help="scheduler backend (auto picks by the first "
                           "method, like serve)")
    crun.add_argument("--start-method", default=None,
                      choices=("fork", "spawn", "forkserver"),
                      help="multiprocessing start method for "
                           "--backend process")
    crun.add_argument("--workers", type=int, default=4,
                      help="scheduler workers (default: 4)")
    crun.add_argument("--no-verify", action="store_true",
                      help="skip the per-case result oracles")
    crun.add_argument("--job-timeout", type=float, default=None,
                      help="per-case deadline in seconds")
    crun.add_argument("--throttle", type=float, default=0.0,
                      help="sleep this many seconds between submissions")
    crun.add_argument("--stop-after", type=int, default=None,
                      help="stop (as interrupted) after executing this many "
                           "cases -- deterministic resume testing")
    _trace_arg(crun, "also write the campaign's trace as JSON lines")
    _json_arg(crun)

    cstatus = _command(campaign_sub, "status", _campaign_status, db=True,
                       help="per-state case counts of a campaign")
    cstatus.add_argument("name")
    _json_arg(cstatus)

    _json_arg(_command(campaign_sub, "list", _campaign_list, db=True,
                       help="all campaigns in the database"))

    cdiff = _command(
        campaign_sub, "diff", _campaign_diff, db=True,
        help="compare campaign B against baseline A "
             "(exit 0 ok, 1 regressions, 2 usage error)",
    )
    cdiff.add_argument("a", help="baseline campaign name")
    cdiff.add_argument("b", help="candidate campaign name")
    cdiff.add_argument("--eps", type=float, default=1e-9,
                       help="exact-method cost tolerance (default: 1e-9)")
    _json_arg(cdiff)

    ctrend = _command(
        campaign_sub, "trend", _campaign_trend, db=True,
        help="perf-trend report across two or more campaigns "
             "(geomean wall/solve/nodes ratios vs the oldest)",
    )
    ctrend.add_argument("names", nargs="+",
                        help="campaign names, any order; the report sorts "
                             "them oldest-first and uses the oldest as the "
                             "ratio baseline")
    _json_arg(ctrend, "emit machine-readable JSON instead of the markdown "
                      "report")

    cexport = _command(campaign_sub, "export", _campaign_export, db=True,
                       help="dump one campaign and its cases as JSON")
    cexport.add_argument("name")
    cexport.add_argument("--out", default=None,
                         help="write to this file instead of stdout")
    cexport.add_argument("--strip-volatile", action="store_true",
                         help="drop timing/host/cache fields -- the "
                              "checked-in seed-campaign format")

    render = _command(sub, "render", _cmd_render, matrix=_MATRIX,
                      help="draw a constructed tree as ASCII")
    render.add_argument("--method", choices=METHODS, default="compact")
    render.add_argument("--width", type=int, default=60)

    validate = _command(sub, "validate", _cmd_validate, matrix=_MATRIX,
                        help="construct a tree and report its quality")
    validate.add_argument("--method", choices=METHODS, default="compact")
    validate.add_argument(
        "--compare-optimal", action="store_true",
        help="also compute the exact optimum (small matrices only)",
    )

    _json_arg(_command(sub, "inspect", _cmd_inspect, matrix=_MATRIX,
                       help="summarise a matrix and its compact structure"))

    compare = _command(sub, "compare", _cmd_compare,
                       help="compare two Newick trees")
    compare.add_argument("tree_a", help="first Newick file")
    compare.add_argument("tree_b", help="second Newick file")
    _json_arg(compare)

    bootstrap = _command(sub, "bootstrap", _cmd_bootstrap,
                         help="clade support by bootstrap over FASTA sequences")
    bootstrap.add_argument("fasta", help="aligned FASTA sequences")
    bootstrap.add_argument("--replicates", type=int, default=100)
    bootstrap.add_argument("--seed", type=int, default=0)
    bootstrap.add_argument(
        "--distance", choices=("p", "p-count", "jukes-cantor"),
        default="p-count",
    )
    _json_arg(bootstrap)

    serve = _command(sub, "serve", _cmd_serve,
                     help="run the HTTP serving layer (see docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8533,
                       help="listen port; 0 picks a free one (default: 8533)")
    serve.add_argument("--workers", type=int, default=4,
                       help="solver workers (default: 4)")
    serve.add_argument("--backend", choices=("auto", "thread", "process"),
                       default="auto",
                       help="execution backend: worker threads or supervised "
                            "worker processes; 'auto' picks processes for "
                            "the GIL-bound exact methods and threads "
                            "otherwise (default: auto)")
    serve.add_argument("--start-method", default=None,
                       choices=("fork", "spawn", "forkserver"),
                       help="force a multiprocessing start method for "
                            "--backend process (default: the platform's "
                            "cheapest)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="bounded job queue; beyond it POST /solve is "
                            "rejected with 429 queue_full (default: 64)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="in-memory result-cache entries (default: 256)")
    serve.add_argument("--cache-dir", default=None,
                       help="also persist cached results as JSON files here "
                            "(warm restarts)")
    serve.add_argument("--method", choices=METHODS, default="compact",
                       help="default construction method for requests that "
                            "do not name one (default: compact)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="default per-job deadline in seconds")
    serve.add_argument("--trace-out", default=None,
                       help="stream the service trace (service.job spans, "
                            "cache.hit/miss counters) as JSON lines to this "
                            "file while serving")
    serve.add_argument("--trace-max-mb", type=float, default=None,
                       help="rotate the trace file past this size (previous "
                            "generation kept as <file>.1)")
    serve.add_argument("--trace-ring", type=int, default=4096,
                       help="most-recent trace events kept in memory for "
                            "queries (default: 4096)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    watch = _command(
        sub, "watch", _cmd_watch,
        help="poll a live service for a job's solver progress and render "
             "incumbent/gap/nodes-per-second lines until it settles",
    )
    watch.add_argument("job_id", help="job id returned by POST /solve")
    watch.add_argument("--url", default="http://127.0.0.1:8533",
                       help="service base URL "
                            "(default: http://127.0.0.1:8533)")
    watch.add_argument("--interval", type=float, default=0.5,
                       help="poll interval in seconds (default: 0.5)")
    watch.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds (exit 3)")
    _json_arg(watch, "emit each new progress record as a JSON line")
    return parser


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _recorder(args: argparse.Namespace):
    return Recorder() if args.trace_out else None


def _construct(args: argparse.Namespace, matrix, recorder):
    """Run ``--method`` with the engine options build and profile share."""
    options = {}
    if args.method.startswith("compact"):
        options["reduction"] = args.reduction
        if args.max_exact is not None:
            options["max_exact_size"] = args.max_exact
    return construct_tree(matrix, args.method, recorder=recorder,
                          cluster=ClusterConfig(n_workers=args.workers),
                          **options)


def _summary(result, matrix) -> List[str]:
    return [f"method : {result.method}", f"species: {matrix.n}",
            f"cost   : {result.cost:.6f}"]


def _cmd_build(args: argparse.Namespace) -> Outcome:
    matrix = _load("matrix", args.matrix)
    recorder = _recorder(args)
    tracker = None
    if args.progress:
        tracker = ProgressTracker(
            interval_seconds=args.progress_interval,
            recorder=recorder,
            sink=lambda snap: _note(format_progress_line(snap)),
        )
    with progress_context(tracker):
        result = _construct(args, matrix, recorder)
    elapsed = getattr(result.details, "elapsed_seconds", None)
    if elapsed is None:  # BBUResult keeps its timing on .stats
        elapsed = getattr(
            getattr(result.details, "stats", None), "elapsed_seconds", None
        )
    if args.method == "nj":
        newick = result.tree.newick()
    else:
        newick = to_newick(result.tree)
    if args.newick_out:
        Path(args.newick_out).write_text(newick + "\n")

    payload = {"method": result.method, "n_species": matrix.n,
               "cost": result.cost, "newick": newick}
    lines = _summary(result, matrix)
    if elapsed is not None:
        payload["elapsed_seconds"] = elapsed
        lines.append(f"time   : {elapsed:.6f}s")
    lines.append(f"tree   : {newick}")
    return Outcome(payload=payload, lines=lines, trace=recorder)


def _cmd_profile(args: argparse.Namespace) -> Outcome:
    path = Path(args.matrix)
    min_fraction = args.min_percent / 100.0
    if not (args.from_trace or path.suffix.lower() in (".jsonl", ".ndjson")):
        if args.trace_id:
            raise CLIError("--trace-id filters a recorded trace; pass a "
                           ".jsonl file (or --from-trace)")
        matrix = _load("matrix", args.matrix)
        recorder = Recorder()
        result = _construct(args, matrix, recorder)
        lines = _summary(result, matrix)
        lines += ["", render_profile(recorder.events, min_fraction=min_fraction)]
        return Outcome(lines=lines, trace=recorder,
                       chrome=recorder.events if args.chrome_trace else None)

    events = _load("trace", path)
    if events.warning:
        _note(f"warning: {events.warning}")
    shown = list(events)
    if args.trace_id:
        shown = filter_by_trace_id(shown, args.trace_id)
        if not shown:
            return Outcome(lines=[
                f"no events with trace_id {args.trace_id!r} in {path}"
            ])
    chrome = shown if args.chrome_trace else None
    if not any(isinstance(e, SpanEvent) for e in shown):
        return Outcome(lines=[f"no spans recorded in {path}"], chrome=chrome)
    lines = [f"trace  : {path}"]
    if args.trace_id:
        lines.append(f"trace_id: {args.trace_id}")
    lines += ["", render_profile(shown, min_fraction=min_fraction)]
    return Outcome(lines=lines, chrome=chrome)


def _cmd_compact_sets(args: argparse.Namespace) -> Outcome:
    from repro.graph.compact_sets import find_compact_sets
    from repro.graph.hierarchy import CompactSetHierarchy

    matrix = _load("matrix", args.matrix)
    sets = find_compact_sets(matrix)
    largest = CompactSetHierarchy.from_matrix(matrix).max_subproblem_size()
    named = [sorted(matrix.labels[i] for i in members) for members in sets]
    lines = [f"{len(sets)} non-trivial compact set(s) in {matrix.n} species"]
    lines += ["  {" + ", ".join(members) + "}" for members in named]
    lines.append(f"largest reduced matrix after decomposition: {largest}")
    return Outcome(payload={"n_species": matrix.n, "compact_sets": named,
                            "max_subproblem_size": largest}, lines=lines)


def _cmd_generate(args: argparse.Namespace) -> Outcome:
    lines = []
    if args.kind == "hmdna":
        from repro.sequences.hmdna import generate_hmdna_dataset

        dataset = generate_hmdna_dataset(args.species, seed=args.seed)
        matrix = dataset.matrix
        if args.fasta_out:
            write_fasta(dataset.sequences, args.fasta_out)
            lines.append(f"wrote sequences to {args.fasta_out}")
    else:
        from repro.matrix.generators import random_metric_matrix

        if args.fasta_out:
            raise CLIError("--fasta-out requires --kind hmdna")
        matrix = random_metric_matrix(args.species, seed=args.seed)
    write_phylip(matrix, args.out)
    lines.append(f"wrote {args.kind} matrix ({matrix.n} species) to {args.out}")
    return Outcome(lines=lines)


def _cmd_distances(args: argparse.Namespace) -> Outcome:
    from repro.sequences.distance import distance_matrix_from_sequences

    sequences = _load("FASTA", args.fasta)
    matrix = distance_matrix_from_sequences(sequences, method=args.distance)
    write_phylip(matrix, args.out)
    return Outcome(lines=[
        f"wrote {matrix.n}-species {args.distance} matrix to {args.out}"
    ])


def _ultrametric(args: argparse.Namespace):
    """Load the matrix and build the tree that render and validate show."""
    matrix = _load("matrix", args.matrix)
    if args.method == "nj":
        raise CLIError(f"{args.command} supports ultrametric methods only")
    return matrix, construct_tree(matrix, args.method)


def _cmd_render(args: argparse.Namespace) -> Outcome:
    from repro.tree.render import render_ascii

    _, result = _ultrametric(args)
    return Outcome(lines=[f"method: {args.method}   cost: {result.cost:.4f}",
                          render_ascii(result.tree, width=args.width)])


def _cmd_validate(args: argparse.Namespace) -> Outcome:
    from repro.core.validation import validate_tree

    matrix, result = _ultrametric(args)
    report = validate_tree(
        result.tree, matrix, compare_optimal=args.compare_optimal
    )
    return Outcome(code=0 if report.ok else 1,
                   lines=[f"method: {args.method}", report.summary()])


def _parse_method_list(spec: Optional[str]) -> tuple:
    from repro.verify.differential import DEFAULT_DIFFERENTIAL_METHODS

    if spec is None:
        return tuple(DEFAULT_DIFFERENTIAL_METHODS)
    methods = tuple(m.strip() for m in spec.split(",") if m.strip())
    if not methods:
        raise CLIError("--methods must name at least one method", 2)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise CLIError(f"unknown methods {unknown}; choose from {METHODS}", 2)
    return methods


def _cmd_verify(args: argparse.Namespace) -> Outcome:
    """Exit 0 clean, 1 violations, 2 usage error (CI tells "the engines
    are broken" from "the command line is broken")."""
    from repro.verify.fuzz import verify_matrix

    methods = _parse_method_list(args.methods)
    matrix = _load("matrix", args.matrix, code=2)
    violations = verify_matrix(
        matrix,
        methods,
        seed=args.seed,
        metamorphic=not args.skip_metamorphic,
    )
    lines = [f"matrix : {args.matrix} ({matrix.n} species)",
             f"methods: {', '.join(methods)}"]
    if not violations:
        lines.append("verdict: OK -- all oracles, differential and "
                     "metamorphic checks passed")
    for violation in violations:
        _note(f"VIOLATION {violation}")
    if violations:
        _note(f"repro-mut verify: {len(violations)} violation(s); reproduce "
              f"with: repro-mut verify {args.matrix} "
              f"--methods {','.join(methods)} --seed {args.seed}")
    payload = {"matrix": args.matrix, "n_species": matrix.n,
               "methods": list(methods), "seed": args.seed,
               "ok": not violations,
               "violations": [v.to_json() for v in violations]}
    return Outcome(code=1 if violations else 0, payload=payload, lines=lines)


def _cmd_ingest(args: argparse.Namespace) -> Outcome:
    """Run the staged ingestion pipeline over one FASTA file.

    Exit codes: 0 clean run (tree built, nothing rejected), 1 any
    rejection or stage failure (including a lenient run that dropped
    records), 2 usage error.
    """
    from repro.ingest import QCConfig, run_pipeline

    source = _load("FASTA", args.fasta, code=2, reader=Path)
    if args.min_length < 1:
        raise CLIError(f"--min-length must be >= 1, got {args.min_length}", 2)
    if not 0.0 <= args.max_ambiguity <= 1.0:
        raise CLIError(
            f"--max-ambiguity must be in [0, 1], got {args.max_ambiguity}", 2
        )
    qc = QCConfig(
        min_length=args.min_length,
        max_length=args.max_length,
        max_ambiguity=args.max_ambiguity,
    )
    recorder = _recorder(args)
    outcome = run_pipeline(
        source,
        distance=args.distance,
        tree_method=args.method,
        mode=args.mode,
        qc=qc,
        scale=args.scale,
        verify=args.verify,
        manifest_path=args.manifest,
        recorder=recorder,
    )
    manifest = outcome.manifest
    lines = [f"input  : {args.fasta} "
             f"(sha256 {str(manifest.input.get('sha256', ''))[:12]}...)"]
    for stage in manifest.stages:
        marker = "ok" if stage.status == "completed" else "FAILED"
        counters = ", ".join(
            f"{k}={v}" for k, v in sorted(stage.counters.items())
        )
        lines.append(f"stage {stage.index} {stage.name:<8}: {marker}"
                     + (f" ({counters})" if counters else ""))
    if manifest.resumed_from:
        lines.append(f"resumed: {manifest.resumed_from} stage(s) skipped")
    if manifest.result and "cost" in manifest.result:
        lines.append(f"tree   : cost {manifest.result['cost']:.6g} "
                     f"[{manifest.result['method']}] "
                     f"verified={manifest.result.get('verified_ok')}")
        lines.append(f"newick : {manifest.result['newick']}")
    lines.append(f"status : {manifest.status}")
    for rejection in manifest.rejections:
        _note(f"REJECTED stage={rejection.stage}({rejection.stage_name}) "
              f"code={rejection.code} record={rejection.record or '-'}: "
              f"{rejection.detail}")
    if args.manifest and not args.json:
        _note(f"manifest: {args.manifest}")
    return Outcome(code=outcome.exit_code, payload=manifest.to_json(),
                   lines=lines, trace=recorder)


def _cmd_fuzz(args: argparse.Namespace) -> Outcome:
    """Seeded fuzzing: matrix families, or mutated FASTA with ``--ingest``."""
    from repro.verify import fuzz

    methods = None if args.ingest else _parse_method_list(args.methods)
    if args.budget < 1:
        raise CLIError(f"--budget must be >= 1, got {args.budget}", 2)

    def progress(iteration: int, _kind: str) -> None:
        if iteration and iteration % 50 == 0:
            _note(f"... case {iteration}/{args.budget}")

    common = dict(seed=args.seed, budget=args.budget, corpus_dir=args.corpus,
                  max_failures=args.max_failures, progress=progress)
    if args.ingest:
        seed_files = None
        if args.fasta_dir is not None:
            seed_files = sorted(Path(args.fasta_dir).glob("*.fasta"))
            if not seed_files:
                raise CLIError(
                    f"no .fasta files in --fasta-dir {args.fasta_dir}", 2
                )
        report = fuzz.run_ingest_fuzz(seed_files=seed_files, **common)
        label, tally = "mutations", report.mutations
    else:
        if not 3 <= args.min_species <= args.max_species:
            raise CLIError(
                "need 3 <= --min-species <= --max-species, got "
                f"{args.min_species}..{args.max_species}", 2
            )
        report = fuzz.run_fuzz(methods=methods, min_species=args.min_species,
                               max_species=args.max_species, **common)
        label, tally = "families", report.families
        if args.db is not None and report.failures:
            _archive_fuzz_failures(args.db, report)
            _note(f"archived {len(report.failures)} failure(s) into "
                  f"{args.db}")
    rows = [("seed", report.seed),
            ("cases", f"{report.cases_run}/{report.budget}"),
            (label, ", ".join(f"{name}={count}"
                              for name, count in sorted(tally.items()))),
            ("verdict", "OK" if report.ok else "FAILURES FOUND")]
    outcome = Outcome(code=0 if report.ok else 1, payload=report.to_json(),
                      lines=[f"{key:<{len(label)}}: {value}"
                             for key, value in rows])
    if report.ok:
        return outcome
    for failure in report.failures:
        if args.ingest:
            _note(f"INGEST FUZZ FAILURE seed={report.seed} "
                  f"case={failure.iteration} mutation={failure.mutation} "
                  f"corpus={failure.corpus_path}")
            _note(f"  {failure.detail}")
        else:
            _note(f"FUZZ FAILURE seed={report.seed} case={failure.iteration} "
                  f"family={failure.family} corpus={failure.corpus_path}")
            for violation in failure.violations[:3]:
                _note(f"  {violation}")
        if failure.repro_command:
            _note(f"  reproduce: {failure.repro_command}")
    if args.ingest:
        _note(f"repro-mut fuzz --ingest: {len(report.failures)} failing "
              f"case(s); replay with: repro-mut fuzz --ingest "
              f"--seed {report.seed} --budget {report.budget}")
    else:
        _note(f"repro-mut fuzz: {len(report.failures)} failing case(s); "
              f"replay the campaign with: repro-mut fuzz --seed {report.seed} "
              f"--budget {report.budget} --methods {','.join(methods)}")
    return outcome


def _archive_fuzz_failures(path: str, report) -> None:
    """Archive ``report``'s failures; opened only when there are some,
    so a clean run creates no database."""
    from repro.campaign.db import CampaignDB
    from repro.version import engine_fingerprint

    with CampaignDB(path) as db:
        for failure in report.failures:
            db.archive_fuzz_failure(
                master_seed=report.seed,
                iteration=failure.iteration,
                matrix_digest=failure.matrix.digest(),
                family=failure.family,
                n_species=failure.n_species,
                shrunk_n_species=failure.shrunk_n_species,
                corpus_path=failure.corpus_path,
                meta_path=failure.meta_path,
                repro_command=failure.repro_command,
                violations=[v.to_json() for v in failure.violations],
                fingerprint=engine_fingerprint(),
            )


def _cmd_inspect(args: argparse.Namespace) -> Outcome:
    from dataclasses import asdict

    from repro.matrix.stats import matrix_summary

    summary = matrix_summary(_load("matrix", args.matrix))
    return Outcome(payload=asdict(summary), lines=[summary.describe()])


def _cmd_compare(args: argparse.Namespace) -> Outcome:
    from repro.tree.compare import (
        normalized_robinson_foulds,
        robinson_foulds,
        shared_clades,
    )

    a, b = (_load("tree", path) for path in (args.tree_a, args.tree_b))
    rf = robinson_foulds(a, b)
    nrf = normalized_robinson_foulds(a, b)
    shared = len(shared_clades(a, b))
    return Outcome(
        payload={"robinson_foulds": rf, "normalized": nrf,
                 "shared_clades": shared},
        lines=[f"Robinson-Foulds distance : {rf}",
               f"normalized (0 = same)    : {nrf:.4f}",
               f"shared clades            : {shared}"],
    )


def _cmd_bootstrap(args: argparse.Namespace) -> Outcome:
    from repro.core.pipeline import CompactSetTreeBuilder
    from repro.sequences.bootstrap import bootstrap_support
    from repro.sequences.distance import distance_matrix_from_sequences

    sequences = _load("FASTA", args.fasta)
    matrix = distance_matrix_from_sequences(sequences, method=args.distance)
    tree = CompactSetTreeBuilder(max_exact_size=12).build(matrix).tree
    support = bootstrap_support(
        tree,
        sequences,
        n_replicates=args.replicates,
        seed=args.seed,
        method=args.distance,
    )
    # Ties in support are ordered by their members, not by set iteration.
    ranked = sorted(support.items(), key=lambda kv: (-kv[1], sorted(kv[0])))
    payload = {
        "replicates": args.replicates,
        "newick": to_newick(tree),
        "support": [{"clade": sorted(clade), "support": fraction}
                    for clade, fraction in ranked],
    }
    lines = [f"tree: {to_newick(tree, precision=3)}",
             f"clade support over {args.replicates} bootstrap replicates:"]
    lines += [f"  {fraction:5.0%}  {{{', '.join(sorted(clade))}}}"
              for clade, fraction in ranked]
    return Outcome(payload=payload, lines=lines)


def _campaign_run(args: argparse.Namespace, db) -> Outcome:
    import signal
    import threading

    from repro.campaign import (
        CampaignMismatch,
        SuiteError,
        load_suite,
        run_campaign,
    )
    from repro.service.scheduler import select_backend

    try:
        suite = load_suite(args.suite)
    except SuiteError as exc:
        raise CLIError(str(exc), 2) from None
    if args.workers < 1:
        raise CLIError(f"--workers must be >= 1, got {args.workers}", 2)
    methods = None
    if args.methods:
        methods = list(_parse_method_list(args.methods))
    backend = args.backend
    if backend == "auto":
        backend = select_backend((methods or suite.methods)[0])

    stop = threading.Event()
    previous = {}

    def _arm_stop(signum, frame):  # noqa: ARG001 - signal signature
        _note("repro-mut campaign: stop requested, draining in-flight "
              "cases ...")
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _arm_stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass

    def progress(index: int, total: int, case, state: str) -> None:
        if not args.json:
            _note(f"  [{index}/{total}] {case.id}: {state}")

    recorder = _recorder(args)
    try:
        result = run_campaign(
            db,
            suite,
            name=args.name,
            methods=methods,
            backend=backend,
            workers=args.workers,
            start_method=args.start_method,
            verify=not args.no_verify,
            job_timeout=args.job_timeout,
            recorder=recorder,
            stop=stop,
            stop_after=args.stop_after,
            throttle_seconds=args.throttle,
            progress=progress,
        )
    except CampaignMismatch as exc:
        raise CLIError(str(exc), 2) from None
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    counts = ", ".join(
        f"{state}={count}"
        for state, count in sorted(result.state_counts.items())
    ) or "none"
    lines = [f"campaign : {result.name} (id {result.campaign_id}, "
             f"backend {backend})",
             f"cases    : {result.total_cases} total, "
             f"{result.executed} executed, {result.skipped} skipped",
             f"states   : {counts}",
             f"elapsed  : {result.elapsed_seconds:.2f}s",
             f"status   : {result.status}"]
    code = 3 if result.interrupted else 0 if result.ok else 1
    return Outcome(code=code, payload=result.to_json(), lines=lines,
                   trace=recorder)


def _campaign_status(args: argparse.Namespace, db) -> Outcome:
    campaign = db.get_campaign(args.name)
    if campaign is None:
        raise CLIError(f"no campaign named {args.name!r} in {args.db}", 2)
    counts = db.state_counts(int(campaign["id"]))
    fingerprint = json.loads(campaign["fingerprint"] or "{}")
    states = ", ".join(
        f"{state}={count}" for state, count in sorted(counts.items())
    )
    return Outcome(
        payload={"campaign": campaign, "state_counts": counts},
        lines=[f"campaign : {campaign['name']} (id {campaign['id']})",
               f"suite    : {campaign['suite']} (seed {campaign['seed']})",
               f"status   : {campaign['status']}",
               f"backend  : {campaign['backend']} on {campaign['hostname']}",
               f"engine   : v{fingerprint.get('version', '?')} "
               f"(git {fingerprint.get('git_sha', 'unknown')})",
               f"states   : {states or 'no cases recorded'}"],
    )


def _campaign_list(args: argparse.Namespace, db) -> Outcome:
    rows = [(campaign, db.state_counts(int(campaign["id"])))
            for campaign in db.list_campaigns()]
    lines = [
        f"{campaign['name']}: {campaign['status']}, "
        f"{counts.get('done', 0)}/{sum(counts.values())} done, "
        f"suite {campaign['suite']}, backend {campaign['backend']}"
        for campaign, counts in rows
    ]
    return Outcome(
        payload=[{"campaign": campaign, "state_counts": counts}
                 for campaign, counts in rows],
        lines=lines or [f"no campaigns in {args.db}"],
    )


def _campaign_diff(args: argparse.Namespace, db) -> Outcome:
    from repro.campaign import diff_campaigns

    diff = diff_campaigns(db, args.a, args.b, cost_eps=args.eps)
    return Outcome(code=0 if diff.ok else 1, payload=diff.to_json(),
                   lines=[diff.render()])


def _campaign_trend(args: argparse.Namespace, db) -> Outcome:
    from repro.campaign import trend_campaigns

    trend = trend_campaigns(db, args.names)
    return Outcome(payload=trend.to_json(),
                   lines=[trend.render().rstrip("\n")])


def _campaign_export(args: argparse.Namespace, db) -> Outcome:
    from repro.campaign.db import strip_volatile

    export = db.export_campaign(args.name)
    if args.strip_volatile:
        export = strip_volatile(export)
    text = json.dumps(export, indent=2, sort_keys=True)
    if not args.out:
        return Outcome(lines=[text])
    Path(args.out).write_text(text + "\n")
    _note(f"wrote {args.out}")
    return Outcome()


def _cmd_serve(args: argparse.Namespace) -> Outcome:
    from repro.service.server import serve

    return Outcome(code=serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache_capacity=args.cache_size,
        cache_dir=args.cache_dir,
        default_method=args.method,
        default_timeout=args.job_timeout,
        backend=None if args.backend == "auto" else args.backend,
        start_method=args.start_method,
        trace_out=args.trace_out,
        trace_max_mb=args.trace_max_mb,
        trace_ring=args.trace_ring,
        verbose=args.verbose,
    ))


def _cmd_watch(args: argparse.Namespace) -> Outcome:
    """Poll ``GET /jobs/<id>/progress`` until the job settles.

    Exit codes: 0 job done, 1 job failed/cancelled/timed out (or the
    service reported an error), 3 the ``--timeout`` budget ran out with
    the job still live.  Progress lines stream as they arrive.
    """
    import time

    from repro.service.client import ServiceClient
    from repro.service.errors import JobNotFound, ServiceError
    from repro.service.jobs import JobState

    if args.interval <= 0:
        raise CLIError(f"--interval must be > 0, got {args.interval}", 2)
    client = ServiceClient(args.url, timeout=max(5.0, args.interval * 4))
    deadline = (
        None if args.timeout is None
        else time.monotonic() + args.timeout
    )
    last_time = None
    while True:
        try:
            record = client.job_progress(args.job_id)
        except JobNotFound:
            raise CLIError(f"no job {args.job_id!r} at {args.url}") from None
        except (ServiceError, OSError) as exc:
            raise CLIError(f"{args.url}: {exc}") from None
        state = record.get("state")
        snapshot = record.get("progress")
        if snapshot and snapshot.get("time") != last_time:
            last_time = snapshot.get("time")
            if args.json:
                print(json.dumps(record, sort_keys=True), flush=True)
            else:
                print(f"{state:>8} {format_progress_line(snapshot)}",
                      flush=True)
        if state in JobState.TERMINAL:
            break
        if deadline is not None and time.monotonic() >= deadline:
            _note(f"repro-mut watch: job {args.job_id} still {state} "
                  f"after {args.timeout:.1f}s")
            return Outcome(code=3)
        time.sleep(args.interval)
    return Outcome(code=0 if state == JobState.DONE else 1,
                   lines=[f"job {args.job_id}: {state}"])


@contextlib.contextmanager
def _campaign_db(path: str) -> Iterator[Any]:
    """Open ``--db``; an unknown campaign name is a usage error."""
    from repro.campaign.db import CampaignDB

    with CampaignDB(path) as db:
        try:
            yield db
        except KeyError as exc:
            raise CLIError(str(exc.args[0]), 2) from None


def _run(args: argparse.Namespace) -> Outcome:
    if args.command != "campaign":
        return args.handler(args)
    with _campaign_db(args.db) as db:
        return args.handler(args, db)


def _write_traces(args: argparse.Namespace, outcome: Outcome) -> None:
    if outcome.trace is not None and args.trace_out:
        outcome.trace.write_jsonl(args.trace_out)
        if args.announce_trace:
            _note(f"wrote {len(outcome.trace.events)} trace event(s) to "
                  f"{args.trace_out}")
    if outcome.chrome is not None:
        trace = chrome_trace_events(outcome.chrome)
        Path(args.chrome_trace).write_text(json.dumps(trace) + "\n")
        _note(f"wrote {len(trace['traceEvents'])} chrome trace event(s) to "
              f"{args.chrome_trace} (open in chrome://tracing or "
              f"ui.perfetto.dev)")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outcome = _run(args)
    except CLIError as exc:
        if exc.code == 1:  # SystemExit(str) prints the line and exits 1
            raise SystemExit(f"error: {exc}") from None
        _note(f"error: {exc}")
        raise SystemExit(exc.code) from None
    if getattr(args, "json", False):
        if outcome.payload is not None:
            print(json.dumps(outcome.payload, indent=2, default=str,
                             sort_keys=getattr(args, "sort_keys", False)))
    else:
        for line in outcome.lines:
            print(line)
    _write_traces(args, outcome)
    return outcome.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
