"""One-call public API: ``construct_tree(matrix, method=...)``.

The project report promises "an efficient and user-friendly parallel
system" for biologists; this module is the friendly part.  Every method
is one row of :data:`METHOD_TABLE`, reachable by name:

=================  =========================================================
``"compact"``      compact-set decomposition + sequential branch-and-bound
``"compact-parallel"``  compact-set decomposition + simulated-cluster B&B
``"bnb"``          plain sequential Algorithm BBU (exact, branching kernel)
``"bnb-scalar"``   sequential BBU with the scalar branching reference
``"parallel-bnb"`` plain simulated-cluster Algorithm BBU (exact)
``"multiprocess"`` real multi-core Algorithm BBU (exact, worker processes)
``"upgma"``        UPGMA heuristic
``"upgmm"``        UPGMM heuristic (feasible upper bound)
``"greedy"``       sequential-addition heuristic (feasible, cheaper)
``"nj"``           Neighbor-Joining (additive, non-ultrametric baseline)
=================  =========================================================
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Tuple

from repro.bnb.sequential import BranchAndBoundSolver
from repro.core.pipeline import CompactSetTreeBuilder
from repro.heuristics.nj import neighbor_joining
from repro.heuristics.greedy import greedy_insertion
from repro.heuristics.upgma import upgma, upgmm
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.metrics import MetricsRegistry, as_metrics
from repro.obs.recorder import NullRecorder, as_recorder
from repro.parallel.config import ClusterConfig
from repro.parallel.simulator import ParallelBranchAndBound

__all__ = [
    "ConstructionResult", "construct_tree", "construct_tree_cached",
    "METHODS", "METHOD_TABLE", "Method", "method_kind", "methods_of_kind",
    "starts_processes", "ultrametric",
]


class Method(NamedTuple):
    """One row of :data:`METHOD_TABLE`.  ``kind`` is what the
    differential harness checks of the cost: ``exact`` (the optimum),
    ``bracket`` (in ``[optimum, upgmm]``), ``feasible`` (``d_T >= M``),
    ``heuristic`` (no promise) or ``additive`` (a non-ultrametric tree).
    ``run(matrix, cluster, recorder, options)`` returns ``(tree, cost,
    details)``.  ``own_processes`` marks a method whose master starts
    worker processes, so it runs on the job thread, not in a slot."""

    name: str
    kind: str
    run: Callable[..., tuple]
    own_processes: bool = False


def _compact(solver: str):
    def run(matrix, cluster, recorder, options):
        result = CompactSetTreeBuilder(
            solver=solver, cluster=cluster, recorder=recorder, **options
        ).build(matrix)
        return result.tree, result.cost, result
    return run


def _bnb(**fixed):
    def run(matrix, cluster, recorder, options):
        result = BranchAndBoundSolver(
            recorder=recorder, **fixed, **options
        ).solve(matrix)
        return result.tree, result.cost, result
    return run


def _parallel_bnb(matrix, cluster, recorder, options):
    result = ParallelBranchAndBound(
        cluster, recorder=recorder, **options
    ).solve(matrix)
    return result.tree, result.cost, result


def _multiprocess(matrix, cluster, recorder, options):
    from repro.parallel.multiprocess import multiprocess_mut

    # The one cap on the process count, for default and explicit values
    # alike: the CLI, the library and the service all come through here.
    n_workers = cluster.n_workers if cluster is not None else 4
    n_workers = min(n_workers, os.cpu_count() or 1)
    result = multiprocess_mut(
        matrix, n_workers=n_workers, recorder=recorder, **options
    )
    return result.tree, result.cost, result


def _heuristic(span: str, build: Callable):
    def run(matrix, cluster, recorder, options):
        with as_recorder(recorder).span(span, n=matrix.n):
            tree = build(matrix, options)
        return tree, tree.cost(), None
    return run


#: Every construction method, in the order ``METHODS`` lists them.
#: ``upgma``, ``upgmm`` and ``nj`` ignore engine options; the others
#: forward them, so their engines reject unknown ones.
METHOD_TABLE: Tuple[Method, ...] = (
    Method("compact", "bracket", _compact("bnb")),
    Method("compact-parallel", "bracket", _compact("parallel")),
    Method("bnb", "exact", _bnb()),
    # The scalar branching loop kept as a live differential reference
    # for the branching kernel: identical search, per-child clones.
    Method("bnb-scalar", "exact", _bnb(use_kernel=False)),
    Method("parallel-bnb", "exact", _parallel_bnb),
    Method("multiprocess", "exact", _multiprocess, own_processes=True),
    Method("upgma", "heuristic",
           _heuristic("heuristic.upgma", lambda m, o: upgma(m))),
    Method("upgmm", "feasible",
           _heuristic("heuristic.upgmm", lambda m, o: upgmm(m))),
    Method("greedy", "feasible",
           _heuristic("heuristic.greedy",
                      lambda m, o: greedy_insertion(m, **o))),
    Method("nj", "additive",
           _heuristic("heuristic.nj", lambda m, o: neighbor_joining(m))),
)

METHODS: Tuple[str, ...] = tuple(row.name for row in METHOD_TABLE)


def _row(method: Any) -> Optional[Method]:
    # ``==``, not a dict lookup: any request value (a list, a dict,
    # ``None``) is then just unknown instead of raising.
    return next((row for row in METHOD_TABLE if row.name == method), None)


def method_kind(method: Any) -> Optional[str]:
    """``method``'s kind, or ``None`` when it names no method."""
    return getattr(_row(method), "kind", None)


def methods_of_kind(kind: str) -> Tuple[str, ...]:
    """The methods of one kind, in table order."""
    return tuple(row.name for row in METHOD_TABLE if row.kind == kind)


def ultrametric(method: Any) -> bool:
    """Whether ``method``'s tree is ultrametric (and so verifiable and
    written by ``to_newick``): every kind but ``additive``."""
    return method_kind(method) != "additive"


def starts_processes(method: Any) -> bool:
    """Whether ``method`` starts worker processes of its own."""
    return getattr(_row(method), "own_processes", False)


@dataclass
class ConstructionResult:
    """Uniform wrapper over every construction method's output.

    ``tree`` is an :class:`~repro.tree.ultrametric.UltrametricTree` for
    all methods except ``"nj"``, which yields an
    :class:`~repro.heuristics.nj.AdditiveTree`.  ``details`` holds the
    method-specific result object (``BBUResult``, ``CompactResult``,
    ``ParallelResult`` or ``None``) for callers who want the statistics.
    ``verification`` is populated only by ``construct_tree(...,
    verify=True)``: the list of :class:`repro.verify.oracles.Violation`
    records the result oracles found (empty means the result checked
    out; ``None`` means verification was not requested).
    """

    tree: Any
    cost: float
    method: str
    details: Any = None
    verification: Optional[list] = None

    @property
    def verified_ok(self) -> Optional[bool]:
        """True/False once verified; ``None`` when not verified."""
        if self.verification is None:
            return None
        return not self.verification

    def newick(self, precision: int = 6) -> str:
        """The tree as Newick text; an additive tree has its own writer,
        which ignores ``precision``."""
        if not ultrametric(self.method):
            return self.tree.newick()
        from repro.tree.newick import to_newick

        return to_newick(self.tree, precision=precision)


def construct_tree(
    matrix: DistanceMatrix,
    method: str = "compact",
    *,
    cluster: Optional[ClusterConfig] = None,
    recorder: Optional[NullRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
    verify: bool = False,
    **options,
) -> ConstructionResult:
    """Construct an evolutionary tree for ``matrix`` with ``method``.

    ``options`` are forwarded to the underlying engine (e.g.
    ``lower_bound=...``, ``reduction=...``, ``max_exact_size=...``).
    ``recorder`` threads a :class:`repro.obs.Recorder` through whichever
    engine runs; heuristic methods execute inside a single
    ``heuristic.<method>`` span.

    With ``verify=True`` the result is checked by every verification
    oracle (:mod:`repro.verify.oracles`: structure, feasibility, cost
    consistency, Newick round trip, label preservation) before being
    returned; violations land in ``result.verification`` (and on the
    ``verify.violations`` metric) rather than raising, so callers decide
    the failure policy.  ``"nj"`` results are additive, not ultrametric,
    and skip verification.

    Every call -- whatever the method -- records its wall-clock latency
    into the ``solve.seconds`` histogram (labelled by method) on
    ``metrics``, defaulting to the process-wide
    :data:`repro.obs.metrics.REGISTRY`; that is how ``GET /metrics`` on
    a serving process sees per-method engine latency without any
    per-request wiring.
    """
    row = _row(method)
    if row is None:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    registry = as_metrics(metrics)
    t0 = time.perf_counter()
    try:
        tree, cost, details = row.run(matrix, cluster, recorder, options)
    finally:
        registry.histogram(
            "solve.seconds",
            "Engine latency of construct_tree, per method.",
            labelnames=("method",),
        ).observe(time.perf_counter() - t0, method=method)
    result = ConstructionResult(tree, cost, method, details)
    if verify and ultrametric(method):
        _verify(result, matrix, recorder, registry)
    return result


def _verify(result: ConstructionResult, matrix, recorder, registry) -> None:
    """Land the result oracles' findings on ``result.verification``."""
    from repro.verify.oracles import run_oracles

    result.verification = run_oracles(
        result.tree,
        matrix,
        reported_cost=result.cost,
        method=result.method,
        recorder=recorder,
        metrics=registry,
    )


def construct_tree_cached(
    matrix: DistanceMatrix,
    method: str = "compact",
    *,
    cache,
    cluster: Optional[ClusterConfig] = None,
    recorder: Optional[NullRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
    verify: bool = False,
    **options,
) -> ConstructionResult:
    """:func:`construct_tree` behind a content-addressed result cache.

    ``cache`` is a :class:`repro.service.cache.ResultCache` (or anything
    with its ``get``/``put`` protocol).  The key covers the matrix
    content (:meth:`DistanceMatrix.digest`) and the canonical solver
    parameters, so equal inputs hit across processes and restarts.  A
    hit reconstructs the tree from the cached Newick string (its
    ``details`` is the cached payload dict, not the engine's result
    object) and emits a ``cache.hit`` counter on ``recorder``; a miss
    solves, stores the payload and emits ``cache.miss``.

    ``verify=True`` runs the verification oracles on the returned tree
    whether it came from the cache or a fresh solve -- a hit's
    reconstructed tree is checked too, so a corrupted cache entry cannot
    smuggle an unchecked result past the caller.  ``verify`` is *not*
    part of the cache key (the same convention the service scheduler
    uses): verification changes what is checked, not what is computed.

    ``"nj"`` bypasses the cache: additive NJ trees do not round-trip
    through the ultrametric Newick parser.
    """
    from repro.service.cache import cache_key, cached_solve, result_payload
    from repro.tree.newick import parse_newick

    build = functools.partial(
        construct_tree, matrix, method, cluster=cluster, recorder=recorder,
        metrics=metrics, verify=verify, **options
    )
    if not ultrametric(method):
        return build()
    registry = as_metrics(metrics)
    key_options = dict(options)
    if cluster is not None:
        key_options["workers"] = cluster.n_workers
    solved = None

    def solve() -> dict:
        nonlocal solved
        solved = build()
        return result_payload(solved, matrix.n)

    payload, hit = cached_solve(
        cache,
        cache_key(matrix, method, key_options),
        solve,
        recorder=as_recorder(recorder),
        metrics=registry,
    )
    if not hit:
        return solved
    result = ConstructionResult(
        tree=parse_newick(payload["newick"]),
        cost=payload["cost"],
        method=payload["method"],
        details=payload,
    )
    if verify:
        _verify(result, matrix, recorder, registry)
    return result
