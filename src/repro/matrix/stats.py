"""Descriptive statistics and structure probes for distance matrices.

Before spending exponential time on a matrix, a user wants to know what
kind of instance it is: how far from a metric or an ultrametric, and --
decisive for this repository -- how much *compact-set structure* it
carries, since that structure is exactly what the decomposition
converts into speedup.  :func:`matrix_summary` gathers all of it;
:func:`structure_score` condenses the decomposition prospects into one
number in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix

__all__ = [
    "MatrixSummary",
    "matrix_summary",
    "structure_score",
    "ultrametricity_defect",
]


def ultrametricity_defect(matrix: DistanceMatrix) -> float:
    """How far the matrix is from ultrametric, as a relative defect.

    For each triple the two largest distances of an ultrametric matrix
    coincide; the defect of a triple is their relative gap, and the
    matrix defect is the mean over triples.  0 for ultrametric input;
    around 0.3+ for uniform random matrices.
    """
    n = matrix.n
    if n < 3:
        return 0.0
    v = matrix.values
    defects: List[float] = []
    for i, j, k in combinations(range(n), 3):
        sides = sorted((v[i, j], v[i, k], v[j, k]))
        if sides[2] <= 0:
            defects.append(0.0)
        else:
            defects.append((sides[2] - sides[1]) / sides[2])
    return float(np.mean(defects))


def structure_score(matrix: DistanceMatrix) -> float:
    """How decomposable the matrix is, in [0, 1].

    Defined as ``1 - (largest reduced matrix - 1) / (n - 1)``: 0 means
    the compact-set hierarchy leaves one subproblem as big as the input
    (decomposition buys nothing), 1 means every reduced matrix is a
    trivial pair.  Uniform random matrices score near 0; the clustered
    workloads of the paper score near 1.
    """
    n = matrix.n
    if n <= 2:
        return 1.0
    from repro.graph.hierarchy import CompactSetHierarchy

    hierarchy = CompactSetHierarchy.from_matrix(matrix)
    largest = hierarchy.max_subproblem_size()
    return 1.0 - (largest - 1) / (n - 1)


@dataclass(frozen=True)
class MatrixSummary:
    """Everything :func:`matrix_summary` measures."""

    n: int
    min_distance: float
    max_distance: float
    mean_distance: float
    is_metric: bool
    is_ultrametric: bool
    ultrametricity_defect: float
    compact_sets: int
    max_subproblem_size: int
    structure_score: float

    def describe(self) -> str:
        """A short human-readable report (used by ``repro-mut inspect``)."""
        lines = [
            f"species              : {self.n}",
            f"distance range       : [{self.min_distance:.4g}, "
            f"{self.max_distance:.4g}] mean {self.mean_distance:.4g}",
            f"metric               : {self.is_metric}",
            f"ultrametric          : {self.is_ultrametric} "
            f"(defect {self.ultrametricity_defect:.3f})",
            f"compact sets         : {self.compact_sets}",
            f"largest subproblem   : {self.max_subproblem_size} "
            f"(structure score {self.structure_score:.2f})",
        ]
        if self.structure_score >= 0.5:
            lines.append(
                "recommendation       : compact-set decomposition will pay off"
            )
        else:
            lines.append(
                "recommendation       : little compact structure; expect "
                "plain branch-and-bound effort"
            )
        return "\n".join(lines)


def matrix_summary(matrix: DistanceMatrix) -> MatrixSummary:
    """Measure ``matrix`` (structure probes included)."""
    n = matrix.n
    if n == 0:
        raise ValueError("cannot summarise an empty matrix")
    if n == 1:
        return MatrixSummary(
            n=1,
            min_distance=0.0,
            max_distance=0.0,
            mean_distance=0.0,
            is_metric=True,
            is_ultrametric=True,
            ultrametricity_defect=0.0,
            compact_sets=0,
            max_subproblem_size=1,
            structure_score=1.0,
        )
    iu = np.triu_indices(n, k=1)
    off_diagonal = matrix.values[iu]
    from repro.graph.compact_linear import kruskal_hierarchy
    from repro.graph.hierarchy import CompactSetHierarchy

    root, compact = kruskal_hierarchy(matrix)
    hierarchy = CompactSetHierarchy(root, n)
    largest = hierarchy.max_subproblem_size()
    return MatrixSummary(
        n=n,
        min_distance=float(off_diagonal.min()),
        max_distance=float(off_diagonal.max()),
        mean_distance=float(off_diagonal.mean()),
        is_metric=matrix.is_metric(),
        is_ultrametric=matrix.is_ultrametric(),
        ultrametricity_defect=ultrametricity_defect(matrix),
        compact_sets=len(compact),
        max_subproblem_size=largest,
        structure_score=1.0 - (largest - 1) / (n - 1) if n > 2 else 1.0,
    )
