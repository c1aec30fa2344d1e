"""One-call public API: ``construct_tree(matrix, method=...)``.

The project report promises "an efficient and user-friendly parallel
system" for biologists; this module is the friendly part.  Every method
the repository implements is reachable by name:

=================  =========================================================
``"compact"``      compact-set decomposition + sequential branch-and-bound
``"compact-parallel"``  compact-set decomposition + simulated-cluster B&B
``"bnb"``          plain sequential Algorithm BBU (exact, batched kernel)
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

from dataclasses import dataclass
from typing import Any, Optional

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
    "ConstructionResult",
    "construct_tree",
    "construct_tree_cached",
    "METHODS",
]

METHODS = (
    "compact",
    "compact-parallel",
    "bnb",
    "bnb-scalar",
    "parallel-bnb",
    "multiprocess",
    "upgma",
    "upgmm",
    "greedy",
    "nj",
)


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
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    registry = as_metrics(metrics)
    import time as _time

    t0 = _time.perf_counter()
    try:
        result = _dispatch(matrix, method, cluster, recorder, options)
    finally:
        registry.histogram(
            "solve.seconds",
            "Engine latency of construct_tree, per method.",
            labelnames=("method",),
        ).observe(_time.perf_counter() - t0, method=method)
    if verify and method != "nj":
        from repro.verify.oracles import run_oracles

        result.verification = run_oracles(
            result.tree,
            matrix,
            reported_cost=result.cost,
            method=method,
            recorder=recorder,
            metrics=registry,
        )
    return result


def _dispatch(
    matrix: DistanceMatrix,
    method: str,
    cluster: Optional[ClusterConfig],
    recorder: Optional[NullRecorder],
    options: dict,
) -> ConstructionResult:
    if method == "compact":
        builder = CompactSetTreeBuilder(
            solver="bnb", recorder=recorder, **options
        )
        result = builder.build(matrix)
        return ConstructionResult(result.tree, result.cost, method, result)
    if method == "compact-parallel":
        builder = CompactSetTreeBuilder(
            solver="parallel", cluster=cluster, recorder=recorder, **options
        )
        result = builder.build(matrix)
        return ConstructionResult(result.tree, result.cost, method, result)
    if method == "bnb":
        result = BranchAndBoundSolver(recorder=recorder, **options).solve(matrix)
        return ConstructionResult(result.tree, result.cost, method, result)
    if method == "bnb-scalar":
        # The scalar branching loop kept as a live differential reference
        # for the batched kernel: identical search, per-child clones.
        result = BranchAndBoundSolver(
            recorder=recorder, use_kernel=False, **options
        ).solve(matrix)
        return ConstructionResult(result.tree, result.cost, method, result)
    if method == "parallel-bnb":
        solver = ParallelBranchAndBound(cluster, recorder=recorder, **options)
        result = solver.solve(matrix)
        return ConstructionResult(result.tree, result.cost, method, result)
    if method == "multiprocess":
        from repro.parallel.multiprocess import multiprocess_mut

        n_workers = cluster.n_workers if cluster is not None else 4
        mp_result = multiprocess_mut(
            matrix, n_workers=n_workers, recorder=recorder, **options
        )
        return ConstructionResult(
            mp_result.tree, mp_result.cost, method, mp_result
        )
    rec = as_recorder(recorder)
    if method == "upgma":
        with rec.span("heuristic.upgma", n=matrix.n):
            tree = upgma(matrix)
        return ConstructionResult(tree, tree.cost(), method)
    if method == "upgmm":
        with rec.span("heuristic.upgmm", n=matrix.n):
            tree = upgmm(matrix)
        return ConstructionResult(tree, tree.cost(), method)
    if method == "greedy":
        with rec.span("heuristic.greedy", n=matrix.n):
            tree = greedy_insertion(matrix, **options)
        return ConstructionResult(tree, tree.cost(), method)
    if method == "nj":
        with rec.span("heuristic.nj", n=matrix.n):
            tree = neighbor_joining(matrix)
        return ConstructionResult(tree, tree.cost(), method)
    raise ValueError(
        f"unknown method {method!r}; choose from {METHODS}"
    )  # pragma: no cover - construct_tree validates first


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
    from repro.service.cache import cache_key, result_payload
    from repro.tree.newick import parse_newick

    if method == "nj":
        return construct_tree(
            matrix, method, cluster=cluster, recorder=recorder,
            metrics=metrics, verify=verify, **options
        )
    rec = as_recorder(recorder)
    registry = as_metrics(metrics)
    key_options = dict(options)
    if cluster is not None:
        key_options["workers"] = cluster.n_workers
    key = cache_key(matrix, method, key_options)
    payload = cache.get(key)
    if payload is not None:
        rec.counter("cache.hit", key=key[:12])
        registry.counter(
            "cache.hit", "Content-addressed result-cache hits."
        ).inc()
        result = ConstructionResult(
            tree=parse_newick(payload["newick"]),
            cost=payload["cost"],
            method=payload["method"],
            details=payload,
        )
        if verify:
            from repro.verify.oracles import run_oracles

            result.verification = run_oracles(
                result.tree,
                matrix,
                reported_cost=result.cost,
                method=result.method,
                recorder=recorder,
                metrics=registry,
            )
        return result
    rec.counter("cache.miss", key=key[:12])
    registry.counter(
        "cache.miss", "Content-addressed result-cache misses."
    ).inc()
    result = construct_tree(
        matrix, method, cluster=cluster, recorder=recorder,
        metrics=metrics, verify=verify, **options
    )
    cache.put(key, result_payload(result, matrix.n))
    return result
