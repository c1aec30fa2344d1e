"""Metamorphic verification: transformed inputs with known effects.

When no second implementation is available (or the exact engines are too
slow), we can still check a method against *itself* by transforming the
input in ways whose effect on the output is provable:

=====================  ================================================
permutation            relabelling/reordering the species changes
                       nothing semantic: the cost is identical (and for
                       deterministic methods the tree is isomorphic)
scaling by ``c > 0``   every height scales by ``c``, so the cost scales
                       by exactly ``c``
leaf subset            restricting an optimal tree to a leaf subset
                       stays feasible for the submatrix, so the exact
                       optimum can only go *down*: ``opt(M|S) <=
                       opt(M)`` (exact methods only)
=====================  ================================================

Topology is deliberately *not* compared under permutation: tied optima
are common on integer matrices and tie-breaking is order-dependent, so
only the cost (which is permutation-invariant by definition) is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.verify.differential import EXACT_METHODS
from repro.verify.oracles import Violation

__all__ = [
    "MetamorphicRelation",
    "PermutationRelation",
    "ScalingRelation",
    "SubsetRelation",
    "DEFAULT_RELATIONS",
    "run_metamorphic",
]

#: Relative tolerance for cost comparisons under transformation.  The
#: transformed solve re-runs the whole engine, so tiny float-association
#: drift is legitimate; anything above this is a real bug.
COST_RTOL = 1e-8


def _gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass
class MetamorphicRelation:
    """Base class: transform the input, solve again, check the relation."""

    name = "metamorphic"
    #: Set when the relation relies on the optimum (exact methods only).
    exact_only = False

    def applies_to(self, method: str) -> bool:
        return not self.exact_only or method in EXACT_METHODS

    def check(
        self,
        matrix: DistanceMatrix,
        method: str,
        build: Callable,
        rng: np.random.Generator,
    ) -> List[Violation]:
        raise NotImplementedError

    def __call__(
        self,
        matrix: DistanceMatrix,
        method: str,
        build: Callable,
        rng: np.random.Generator,
    ) -> List[Violation]:
        try:
            return self.check(matrix, method, build, rng)
        except Exception as exc:  # noqa: BLE001 - relation isolation boundary
            return [
                Violation(
                    self.name,
                    f"crashed: {type(exc).__name__}: {exc}",
                    {"method": method, "exception": type(exc).__name__},
                )
            ]


class PermutationRelation(MetamorphicRelation):
    """Species order is irrelevant: the cost must not move at all.

    Restricted to the exact methods: the *optimum* is permutation
    invariant by definition, while heuristics (and the compact-set
    decomposition on matrices with tied distances) may legitimately
    break ties differently under reordering.
    """

    name = "metamorphic.permutation"
    exact_only = True

    def check(self, matrix, method, build, rng) -> List[Violation]:
        permutation = [int(i) for i in rng.permutation(matrix.n)]
        base = float(build(matrix, method).cost)
        permuted = float(build(matrix.submatrix(permutation), method).cost)
        if _gap(base, permuted) <= COST_RTOL:
            return []
        return [
            Violation(
                self.name,
                f"{method} cost changed under label permutation: "
                f"{base:.12g} -> {permuted:.12g}",
                {
                    "method": method,
                    "base_cost": base,
                    "permuted_cost": permuted,
                    "permutation": permutation,
                },
            )
        ]


class ScalingRelation(MetamorphicRelation):
    """Scaling every distance by ``c`` scales the cost by exactly ``c``."""

    name = "metamorphic.scaling"

    def __init__(self, factor: float = 3.5) -> None:
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        self.factor = float(factor)

    def check(self, matrix, method, build, rng) -> List[Violation]:
        scaled_matrix = DistanceMatrix(
            matrix.values * self.factor, matrix.labels, validate=False
        )
        base = float(build(matrix, method).cost)
        scaled = float(build(scaled_matrix, method).cost)
        if _gap(scaled, self.factor * base) <= COST_RTOL:
            return []
        return [
            Violation(
                self.name,
                f"{method} cost does not scale linearly: cost(c*M) = "
                f"{scaled:.12g}, c * cost(M) = {self.factor * base:.12g} "
                f"(c = {self.factor:g})",
                {
                    "method": method,
                    "factor": self.factor,
                    "base_cost": base,
                    "scaled_cost": scaled,
                },
            )
        ]


class SubsetRelation(MetamorphicRelation):
    """Exact optimum is monotone under taking leaf subsets.

    Restricting the full optimal tree to a subset of leaves yields a
    feasible ultrametric tree for the submatrix with no greater cost, so
    ``opt(M|S) <= opt(M)``.  Only exact methods promise the optimum, so
    the relation applies to those alone.
    """

    name = "metamorphic.subset"
    exact_only = True

    def __init__(self, min_keep: int = 3) -> None:
        self.min_keep = int(min_keep)

    def check(self, matrix, method, build, rng) -> List[Violation]:
        if matrix.n <= self.min_keep:
            return []
        keep_count = int(rng.integers(self.min_keep, matrix.n))
        keep = sorted(
            int(i)
            for i in rng.choice(matrix.n, size=keep_count, replace=False)
        )
        full = float(build(matrix, method).cost)
        sub = float(build(matrix.submatrix(keep), method).cost)
        if sub <= full + COST_RTOL * max(1.0, abs(full)):
            return []
        return [
            Violation(
                self.name,
                f"{method} optimum increased on a leaf subset: "
                f"opt(M|S) = {sub:.12g} > opt(M) = {full:.12g}",
                {
                    "method": method,
                    "subset": keep,
                    "subset_cost": sub,
                    "full_cost": full,
                },
            )
        ]


DEFAULT_RELATIONS: Sequence[MetamorphicRelation] = (
    PermutationRelation(),
    ScalingRelation(),
    SubsetRelation(),
)


def run_metamorphic(
    matrix: DistanceMatrix,
    method: str = "bnb",
    *,
    seed: int = 0,
    relations: Optional[Sequence[MetamorphicRelation]] = None,
    build_fn: Optional[Callable] = None,
) -> List[Violation]:
    """Run every applicable metamorphic relation for ``method``.

    The transformations are drawn from a generator seeded with ``seed``,
    so a failing run is reproducible from ``(matrix, method, seed)``
    alone.  ``build_fn`` defaults to
    :func:`repro.core.api.construct_tree`.
    """
    from repro.core.api import construct_tree

    build = build_fn or construct_tree
    rng = np.random.default_rng(seed)
    violations: List[Violation] = []
    for relation in relations if relations is not None else DEFAULT_RELATIONS:
        if not relation.applies_to(method):
            continue
        violations.extend(relation(matrix, method, build, rng))
    return violations
