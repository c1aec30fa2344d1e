"""B&B branching benchmark: branching kernel vs the scalar reference loop.

Times a full sequential Algorithm-BBU solve with the branching
kernel (:class:`repro.bnb.kernel.BranchKernel`, the production path)
against the same solve with ``use_kernel=False`` (the original per-child
scalar loop, kept as the differential oracle), verifies the two searches
are *bit-identical* (same cost, same node counts), and writes a
machine-readable ``BENCH_bnb.json``.

Workloads are the papers' shapes, not the pipeline's: hierarchical
matrices *decompose* into tiny subproblems under the compact-set
pipeline, so the branching hot loop is exercised by solving the full
matrix with plain ``exact_mut``.

* 26 species (the HMDNA-26 scale), solved to optimality;
* 38 species (the HMDNA-38 scale) with a 20k node-expansion cap -- the
  full solve is infeasible in pure Python, and because both paths make
  bit-identical decisions they expand the *same* 20k nodes, so the
  wall-clock ratio is a fair branching-speed measure.

Usage::

    PYTHONPATH=src python benchmarks/bench_bnb.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_bnb.py --smoke   # CI smoke
    PYTHONPATH=src python benchmarks/bench_bnb.py --out path.json
    PYTHONPATH=src python benchmarks/bench_bnb.py --db campaigns.sqlite

Each workload runs three interleaved kernel/scalar pairs (one with
``--smoke``; the side that goes first alternates); the report keeps every run and its
median, minimum and maximum.  The acceptance gate for the branching
overhaul is a >= 5x speedup (ratio of medians) on the 26-species full
solve; ``acceptance.speedup_26`` records the measured value (absent in
``--smoke`` mode, which caps every workload).

The ``crossover`` sweep times direct ``bnb`` on three branching paths
per size: the clone-every-position ``child()`` reference
(``use_kernel=False``), the kernel with Python tables and the kernel
with NumPy tables, each table builder forced at every size.  It runs
``random_metric_matrix`` and ``hierarchical_matrix`` batteries solved
to optimality at 3-16 species and capped at ``SWEEP_NODE_LIMIT``
expansions from 18 to 40 species, the paths interleaved.  It reports
each path's median and quartiles, the scalar/NumPy and Python/NumPy
time ratios per size, and the smallest size from which NumPy tables
win on both families.  Engines switch from Python to NumPy tables at
:data:`repro.bnb.search._KERNEL_MIN_SPECIES`, set from this table.
The sweep also asserts that the three paths agree bit for bit at
every size -- cost, Newick and every ``SearchStats`` field -- so
``--smoke`` (every size, fewer matrices and one repeat) keeps each
path checked where the engines no longer run it.

The report also measures the cost of *live progress telemetry*
(``progress_overhead``): the first workload is re-solved with a
:class:`~repro.obs.progress.ProgressTracker` installed, alternating
enabled/disabled runs and comparing minima.  The budget is < 3% on
kernel solves (``docs/observability.md``); the measured percentage is
recorded, not gated, because sub-second smoke solves are noise-bound.

``--db`` additionally upserts the per-workload numbers into a campaign
run database (stable workload-name case ids, engine fingerprint
stamped), so ``repro-mut campaign trend`` charts bench history across
engine versions.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.bnb import search
from repro.bnb.kernel import MAX_BATCH_SPECIES
from repro.bnb.search import SearchStats
from repro.bnb.sequential import exact_mut
from repro.matrix.generators import hierarchical_matrix, random_metric_matrix
from repro.tree.newick import to_newick
from repro.version import engine_fingerprint

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_bnb.json"

#: (name, generator groups, seed, node_limit) -- node_limit None means
#: solve to proven optimality.
FULL_WORKLOADS = (
    ("hmdna26-full", [[7, 6], [7, 6]], 126, None),
    ("hmdna38-capped", [[7, 6], [6, 6], [7, 6]], 38, 20000),
)
SMOKE_WORKLOADS = (
    ("hmdna26-smoke", [[7, 6], [7, 6]], 126, 1500),
)
#: Interleaved kernel/scalar pairs per full workload.
WORKLOAD_REPEATS = 3

#: Crossover sweep: species counts solved to optimality, larger counts
#: capped at ``SWEEP_NODE_LIMIT`` expansions (every path expands the
#: same nodes, so the capped times compare per-expansion speed),
#: matrix seeds per family and size, and interleaved repeats per size.
SWEEP_SIZES = tuple(range(3, 17))
SWEEP_CAPPED_SIZES = (18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40)
SWEEP_NODE_LIMIT = 300
SWEEP_SEEDS = tuple(range(8))
SWEEP_CAPPED_SEEDS = tuple(range(4))
SWEEP_REPEATS = 20
SWEEP_CAPPED_REPEATS = 6
SMOKE_SWEEP_SEEDS = tuple(range(2))
SMOKE_SWEEP_REPEATS = 1

#: The branching paths the sweep times: name -> (``use_kernel``, the
#: ``_KERNEL_MIN_SPECIES`` in force).  ``scalar`` is the clone-every-
#: position ``child()`` reference, ``python`` and ``numpy`` the kernel
#: with each table builder forced at every size.
PATHS = {
    "scalar": (False, None),
    "python": (True, MAX_BATCH_SPECIES + 1),
    "numpy": (True, 0),
}


def _hierarchical_spec(n):
    """Two halves of ``n`` species, each split in two nested groups."""
    halves = (n // 2, n - n // 2)
    return [[size for size in ((h + 1) // 2, h // 2) if size] for h in halves]


SWEEP_FAMILIES = {
    "random_metric": lambda n, seed: random_metric_matrix(n, seed=seed),
    "hierarchical": lambda n, seed: hierarchical_matrix(
        _hierarchical_spec(n), seed=seed, jitter=0.3
    ),
}

#: Every ``SearchStats`` field but the wall time.
STATS_FIELDS = tuple(
    f.name for f in dataclasses.fields(SearchStats)
    if f.name != "elapsed_seconds"
)


@contextlib.contextmanager
def kernel_min_species(value):
    """Run with ``_KERNEL_MIN_SPECIES`` set to ``value`` (``None``: as is)."""
    saved = search._KERNEL_MIN_SPECIES
    if value is not None:
        search._KERNEL_MIN_SPECIES = value
    try:
        yield
    finally:
        search._KERNEL_MIN_SPECIES = saved


def search_digest(result):
    """What the kernel and scalar searches must agree on, bit for bit."""
    return (
        result.cost,
        to_newick(result.tree),
        tuple(getattr(result.stats, name) for name in STATS_FIELDS),
    )


def summary(samples):
    """Median, quartiles, IQR, minimum and maximum of ``samples``."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(
            samples, n=4, method="inclusive"
        )
    else:
        q1 = median = q3 = samples[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "min": min(samples),
        "max": max(samples),
    }


def _sweep_size(n, family, matrices, repeats, node_limit) -> dict:
    """One sweep row: each path's times; raises if the paths disagree."""
    seconds = {name: [] for name in PATHS}
    first = {}
    names = list(PATHS)
    for repeat in range(repeats):
        # Rotate which path goes first, so drift hits every path.
        for name in names[repeat % 3:] + names[:repeat % 3]:
            use_kernel, min_species = PATHS[name]
            with kernel_min_species(min_species):
                t0 = time.perf_counter()
                results = [
                    exact_mut(m, use_kernel=use_kernel, node_limit=node_limit)
                    for m in matrices
                ]
                seconds[name].append(time.perf_counter() - t0)
            first.setdefault(name, list(map(search_digest, results)))
    for name in ("python", "numpy"):
        if first[name] != first["scalar"]:
            raise AssertionError(
                f"{name} tables and scalar searches differ at n={n} "
                f"on {family}"
            )
    row = {
        "n": n,
        "family": family,
        "matrices": len(matrices),
        "repeats": repeats,
        "node_limit": node_limit,
        "nodes_expanded": sum(
            digest[2][STATS_FIELDS.index("nodes_expanded")]
            for digest in first["numpy"]
        ),
    }
    for name in PATHS:
        row[f"{name}_ms"] = summary([t * 1e3 for t in seconds[name]])
    for name in ("scalar", "python"):
        row[f"{name}_over_numpy"] = summary([
            mine / numpy
            for mine, numpy in zip(seconds[name], seconds["numpy"])
        ])
    print(
        f"crossover n={n:2d} {family:13s} "
        + "  ".join(
            f"{name}={row[f'{name}_ms']['median']:8.2f} ms" for name in PATHS
        )
        + f"  python/numpy={row['python_over_numpy']['median']:5.2f} "
        f"(IQR {row['python_over_numpy']['iqr']:.2f})"
    )
    return row


def run_crossover(sizes, capped_sizes, seeds, capped_seeds, repeats,
                  capped_repeats) -> dict:
    """Scalar, Python-table and NumPy-table timing per size."""
    rows = []
    plan = [(n, seeds, repeats, None) for n in sizes] + [
        (n, capped_seeds, capped_repeats, SWEEP_NODE_LIMIT)
        for n in capped_sizes
    ]
    for n, n_seeds, n_repeats, node_limit in plan:
        for family, make in SWEEP_FAMILIES.items():
            matrices = [make(n, seed) for seed in n_seeds]
            rows.append(
                _sweep_size(n, family, matrices, n_repeats, node_limit)
            )
    # The smallest size from which NumPy tables' median time beats
    # Python tables' on every family at every larger size too.
    measured = None
    for n in sorted({row["n"] for row in rows}, reverse=True):
        if all(
            row["python_over_numpy"]["median"] > 1.0
            for row in rows if row["n"] == n
        ):
            measured = n
        else:
            break
    print(
        f"numpy tables win from n={measured}; engines use them from "
        f"n={search._KERNEL_MIN_SPECIES}"
    )
    return {
        "sizes": list(sizes),
        "capped_sizes": list(capped_sizes),
        "node_limit": SWEEP_NODE_LIMIT,
        "seeds": list(seeds),
        "capped_seeds": list(capped_seeds),
        "repeats": repeats,
        "capped_repeats": capped_repeats,
        "measured_crossover": measured,
        "kernel_min_species": search._KERNEL_MIN_SPECIES,
        "rows": rows,
    }


def _timed_solve(matrix, *, use_kernel, node_limit):
    t0 = time.perf_counter()
    result = exact_mut(matrix, use_kernel=use_kernel, node_limit=node_limit)
    return time.perf_counter() - t0, result


def measure_progress_overhead(matrix, *, node_limit, repeats=3):
    """Cost of a live :class:`ProgressTracker` on a kernel solve.

    Alternates tracker-disabled and tracker-enabled solves (so thermal /
    cache drift hits both arms equally) and compares the per-arm minima
    -- the same min-of-interleaved-runs discipline the service metrics
    overhead bench uses.  The tracker runs at the production default
    interval with no recorder attached: what ``--progress`` or a serving
    process pays in the solver itself.
    """
    from repro.obs.progress import ProgressTracker, progress_context

    disabled, enabled = [], []
    heartbeats = 0
    for _ in range(repeats):
        seconds, _result = _timed_solve(
            matrix, use_kernel=True, node_limit=node_limit
        )
        disabled.append(seconds)
        tracker = ProgressTracker()
        with progress_context(tracker):
            seconds, _result = _timed_solve(
                matrix, use_kernel=True, node_limit=node_limit
            )
        enabled.append(seconds)
        heartbeats = tracker.reports
    base, tracked = min(disabled), min(enabled)
    return {
        "disabled_seconds": base,
        "enabled_seconds": tracked,
        "overhead_percent": (
            100.0 * (tracked - base) / base if base > 0 else 0.0
        ),
        "heartbeats": heartbeats,
        "repeats": repeats,
        "target_max_percent": 3.0,
    }


def run(workloads, repeats, sweep) -> dict:
    results = []
    for name, groups, seed, node_limit in workloads:
        matrix = hierarchical_matrix(groups, seed=seed, jitter=0.3)
        seconds = {True: [], False: []}
        solved = {}
        for repeat in range(repeats):
            for use_kernel in (True, False)[:: -1 if repeat % 2 else 1]:
                elapsed, solved[use_kernel] = _timed_solve(
                    matrix, use_kernel=use_kernel, node_limit=node_limit
                )
                seconds[use_kernel].append(elapsed)
        fast, ref = solved[True], solved[False]
        # Bit-identical, not approximately equal: the kernel's contract
        # is that no search decision changes.
        if search_digest(fast) != search_digest(ref):
            raise AssertionError(
                f"search divergence on {name}: "
                f"kernel={search_digest(fast)!r} scalar={search_digest(ref)!r}"
            )
        fast_s = statistics.median(seconds[True])
        ref_s = statistics.median(seconds[False])
        row = {
            "workload": name,
            "n": matrix.n,
            "node_limit": node_limit,
            "optimal": fast.optimal,
            "cost": fast.cost,
            "nodes_expanded": fast.stats.nodes_expanded,
            "nodes_created": fast.stats.nodes_created,
            "prune_fraction": (
                fast.stats.nodes_pruned / fast.stats.nodes_created
            ),
            "repeats": repeats,
            "kernel_seconds": fast_s,
            "scalar_seconds": ref_s,
            "kernel_runs": seconds[True],
            "scalar_runs": seconds[False],
            "kernel_spread": summary(seconds[True]),
            "scalar_spread": summary(seconds[False]),
            "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        }
        results.append(row)
        print(
            f"{name:16s} n={matrix.n:3d}  kernel={fast_s:8.3f} s  "
            f"scalar={ref_s:8.3f} s  speedup={row['speedup']:5.2f}x  "
            f"expanded={fast.stats.nodes_expanded}  (medians of {repeats})"
        )
    first_name, first_groups, first_seed, first_limit = workloads[0]
    overhead = measure_progress_overhead(
        hierarchical_matrix(first_groups, seed=first_seed, jitter=0.3),
        node_limit=first_limit,
    )
    overhead["workload"] = first_name
    print(
        f"progress overhead on {first_name}: "
        f"{overhead['overhead_percent']:+.2f}% "
        f"({overhead['heartbeats']} heartbeat(s); "
        f"budget {overhead['target_max_percent']:.0f}%)"
    )
    report = {
        "benchmark": "bnb-batched-branching-kernel",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "engine": engine_fingerprint(),
        "results": results,
        "progress_overhead": overhead,
        "crossover": run_crossover(*sweep),
    }
    by_name = {r["workload"]: r for r in results}
    if "hmdna26-full" in by_name:
        speedup = by_name["hmdna26-full"]["speedup"]
        report["acceptance"] = {
            "speedup_26": speedup,
            "required_min_speedup": 5.0,
            "passed": speedup >= 5.0,
        }
        if "hmdna38-capped" in by_name:
            report["acceptance"]["speedup_38_capped"] = (
                by_name["hmdna38-capped"]["speedup"]
            )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one node-capped workload and a short crossover sweep "
             "(CI smoke mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--db",
        default=None,
        help="also upsert the results into this campaign run database "
             "(repro-mut campaign trend charts them across versions)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run(
            SMOKE_WORKLOADS,
            1,
            (SWEEP_SIZES, SWEEP_CAPPED_SIZES, SMOKE_SWEEP_SEEDS,
             SMOKE_SWEEP_SEEDS, SMOKE_SWEEP_REPEATS, SMOKE_SWEEP_REPEATS),
        )
    else:
        report = run(
            FULL_WORKLOADS,
            WORKLOAD_REPEATS,
            (SWEEP_SIZES, SWEEP_CAPPED_SIZES, SWEEP_SEEDS,
             SWEEP_CAPPED_SEEDS, SWEEP_REPEATS, SWEEP_CAPPED_REPEATS),
        )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.db:
        from _benchdb import persist_bench_results

        name = persist_bench_results(
            args.db,
            bench="bench-bnb",
            rows=[
                {
                    "case_id": r["workload"],
                    "method": "bnb",
                    "n": r["n"],
                    "cost": r["cost"],
                    "options": {"node_limit": r["node_limit"]},
                    "wall_seconds": r["kernel_seconds"],
                    "solve_seconds": r["kernel_seconds"],
                    "nodes_expanded": r["nodes_expanded"],
                    "counters": {
                        "bench.scalar_seconds": r["scalar_seconds"],
                        "bench.speedup": r["speedup"],
                        "bench.prune_fraction": r["prune_fraction"],
                    },
                }
                for r in report["results"]
            ],
        )
        print(f"upserted {len(report['results'])} case(s) into {args.db} "
              f"as campaign {name!r}")
    acceptance = report.get("acceptance")
    if acceptance is not None and not acceptance["passed"]:
        print(
            "ACCEPTANCE FAILED: 26-species speedup below 5x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
