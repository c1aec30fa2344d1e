"""Single-tree verification oracles.

An *oracle* checks one invariant of a construction result against the
input matrix and reports structured :class:`Violation` records instead
of booleans, so every surface (CLI, fuzz loop, serving layer, the
:func:`repro.core.validation.validate_tree` report) shares one
implementation and one vocabulary.

The five default oracles and the invariants they encode:

=================  =====================================================
``labels``         tree leaves are exactly the matrix species, no
                   duplicates, none missing
``structure``      the tree is a valid ultrametric tree: binary, leaves
                   at height 0, every child at or below its parent
``feasibility``    ``d_T(i, j) >= M[i, j]`` for every pair -- the MUT
                   constraint (Definition 8)
``cost``           the reported cost equals the recomputed ``omega(T)``
                   to 1e-9 (relative)
``newick``         serialize -> parse round-trips the topology, the
                   heights and the cost
=================  =====================================================

Oracles never raise: an exception inside a check becomes a violation of
that oracle (``crashed: ...``), so a thoroughly broken engine output
still produces a structured report the fuzz loop can shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.tree.ultrametric import UltrametricTree

__all__ = [
    "Violation",
    "VerificationContext",
    "Oracle",
    "DEFAULT_ORACLES",
    "ORACLE_NAMES",
    "run_oracles",
    "COST_RTOL",
]

#: Relative tolerance of the cost-consistency oracle ("to 1e-9").
COST_RTOL = 1e-9

#: Structural slack shared with :mod:`repro.tree.checks`.
_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by an oracle.

    ``details`` is JSON-safe (plain str/int/float values) so violations
    serialize directly into job records and fuzz corpus metadata.
    """

    oracle: str
    message: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "oracle": self.oracle,
            "message": self.message,
            "details": dict(self.details),
        }

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


@dataclass
class VerificationContext:
    """Everything an oracle may look at for one construction result."""

    tree: UltrametricTree
    matrix: DistanceMatrix
    reported_cost: Optional[float] = None
    method: Optional[str] = None

    @cached_property
    def induced(self) -> DistanceMatrix:
        """The tree's induced distances, computed once for every oracle.

        Ordered like the matrix when the tree's leaves are exactly the
        matrix species, and in leaf order otherwise.
        """
        labels = self.matrix.labels
        if set(labels) != set(self.tree.leaf_labels):
            labels = self.tree.leaf_labels
        return self.tree.distance_matrix(labels)


class Oracle:
    """Base class: a named invariant check over a :class:`VerificationContext`.

    Subclasses implement :meth:`check` returning a (possibly empty) list
    of violations.  :meth:`__call__` adds the never-raise guarantee.
    """

    name = "oracle"

    def check(self, ctx: VerificationContext) -> List[Violation]:
        raise NotImplementedError

    def __call__(self, ctx: VerificationContext) -> List[Violation]:
        try:
            return self.check(ctx)
        except Exception as exc:  # noqa: BLE001 - oracle isolation boundary
            return [
                Violation(
                    self.name,
                    f"crashed: {type(exc).__name__}: {exc}",
                    {"exception": type(exc).__name__},
                )
            ]


class LabelsOracle(Oracle):
    """Leaf labels are exactly the matrix species."""

    name = "labels"

    def check(self, ctx: VerificationContext) -> List[Violation]:
        leaf_labels = [
            leaf.label for leaf in ctx.tree.root.leaves()
        ]
        violations: List[Violation] = []
        seen = set()
        duplicates = set()
        for label in leaf_labels:
            if label in seen:
                duplicates.add(label)
            seen.add(label)
        if duplicates:
            violations.append(
                Violation(
                    self.name,
                    f"duplicate leaf labels: {sorted(duplicates)}",
                    {"duplicates": sorted(map(str, duplicates))},
                )
            )
        expected = set(ctx.matrix.labels)
        missing = expected - seen
        extra = seen - expected
        if missing:
            violations.append(
                Violation(
                    self.name,
                    f"matrix species missing from the tree: {sorted(missing)}",
                    {"missing": sorted(map(str, missing))},
                )
            )
        if extra:
            violations.append(
                Violation(
                    self.name,
                    f"tree leaves not in the matrix: {sorted(extra)}",
                    {"extra": sorted(map(str, extra))},
                )
            )
        return violations


class StructureOracle(Oracle):
    """The tree is a valid (binary) ultrametric tree."""

    name = "structure"

    def check(self, ctx: VerificationContext) -> List[Violation]:
        violations: List[Violation] = []
        for node in ctx.tree.root.walk():
            if node.is_leaf:
                if abs(node.height) > _TOL:
                    violations.append(
                        Violation(
                            self.name,
                            f"leaf {node.label!r} at height {node.height:g}"
                            " (must be 0)",
                            {"leaf": str(node.label), "height": node.height},
                        )
                    )
                continue
            if len(node.children) != 2:
                violations.append(
                    Violation(
                        self.name,
                        f"internal node at height {node.height:g} has "
                        f"{len(node.children)} children (must be binary)",
                        {"height": node.height, "arity": len(node.children)},
                    )
                )
            for child in node.children:
                if child.height > node.height + _TOL:
                    violations.append(
                        Violation(
                            self.name,
                            f"child height {child.height:g} above parent "
                            f"height {node.height:g} (negative edge)",
                            {
                                "child_height": child.height,
                                "parent_height": node.height,
                            },
                        )
                    )
        return violations


class FeasibilityOracle(Oracle):
    """The induced metric dominates the input: ``d_T >= M``."""

    name = "feasibility"

    def check(self, ctx: VerificationContext) -> List[Violation]:
        labels = ctx.matrix.labels
        if set(labels) != set(ctx.tree.leaf_labels):
            return []  # the labels oracle owns this failure
        induced = ctx.induced
        slack = induced.values - ctx.matrix.values
        if (slack >= -_TOL).all():
            return []
        i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
        return [
            Violation(
                self.name,
                f"d_T >= M violated: d_T({labels[i]}, {labels[j]}) = "
                f"{induced.values[i, j]:.9g} < M = "
                f"{ctx.matrix.values[i, j]:.9g}",
                {
                    "pair": [str(labels[i]), str(labels[j])],
                    "tree_distance": float(induced.values[i, j]),
                    "matrix_distance": float(ctx.matrix.values[i, j]),
                    "worst_slack": float(slack[i, j]),
                    "violating_pairs": int((slack < -_TOL).sum() // 2),
                },
            )
        ]


class CostOracle(Oracle):
    """The reported cost matches the recomputed ``omega(T)`` to 1e-9."""

    name = "cost"

    def check(self, ctx: VerificationContext) -> List[Violation]:
        if ctx.reported_cost is None:
            return []
        recomputed = ctx.tree.cost()
        reported = float(ctx.reported_cost)
        tolerance = COST_RTOL * max(1.0, abs(reported))
        if abs(recomputed - reported) <= tolerance:
            return []
        return [
            Violation(
                self.name,
                f"reported cost {reported:.12g} differs from recomputed "
                f"omega(T) {recomputed:.12g} by "
                f"{abs(recomputed - reported):.3g} (> {tolerance:.3g})",
                {
                    "reported": reported,
                    "recomputed": float(recomputed),
                    "tolerance": float(tolerance),
                },
            )
        ]


class NewickOracle(Oracle):
    """Serialize -> parse preserves topology, heights and cost."""

    name = "newick"

    #: Serialization precision used for the round trip; 12 fixed decimals
    #: keep the reconstruction error orders of magnitude below the
    #: comparison tolerance for any realistic height.
    precision = 12
    height_atol = 1e-6

    def check(self, ctx: VerificationContext) -> List[Violation]:
        from repro.tree.compare import robinson_foulds
        from repro.tree.newick import parse_newick, to_newick

        text = to_newick(ctx.tree, precision=self.precision)
        parsed = parse_newick(text)
        violations: List[Violation] = []
        if sorted(parsed.leaf_labels) != sorted(ctx.tree.leaf_labels):
            violations.append(
                Violation(
                    self.name,
                    "round trip changed the leaf set",
                    {"newick": text},
                )
            )
            return violations
        rf = robinson_foulds(ctx.tree, parsed)
        if rf != 0:
            violations.append(
                Violation(
                    self.name,
                    f"round trip changed the topology "
                    f"(Robinson-Foulds distance {rf})",
                    {"robinson_foulds": int(rf), "newick": text},
                )
            )
        # The largest drift over all pairs does not depend on their order.
        original = ctx.induced
        reparsed = parsed.distance_matrix(original.labels)
        drift = float(np.abs(original.values - reparsed.values).max())
        if drift > self.height_atol:
            violations.append(
                Violation(
                    self.name,
                    f"round trip drifted an induced distance by {drift:.3g}",
                    {"max_drift": drift, "newick": text},
                )
            )
        cost_drift = abs(parsed.cost() - ctx.tree.cost())
        cost_tol = self.height_atol * max(1.0, abs(ctx.tree.cost()))
        if cost_drift > cost_tol:
            violations.append(
                Violation(
                    self.name,
                    f"round trip drifted the cost by {cost_drift:.3g}",
                    {"cost_drift": float(cost_drift), "newick": text},
                )
            )
        return violations


DEFAULT_ORACLES: Sequence[Oracle] = (
    LabelsOracle(),
    StructureOracle(),
    FeasibilityOracle(),
    CostOracle(),
    NewickOracle(),
)

#: Names of the default oracles, in execution order.
ORACLE_NAMES = tuple(oracle.name for oracle in DEFAULT_ORACLES)


def run_oracles(
    tree: UltrametricTree,
    matrix: DistanceMatrix,
    *,
    reported_cost: Optional[float] = None,
    method: Optional[str] = None,
    oracles: Optional[Sequence[Oracle]] = None,
    recorder=None,
    metrics=None,
) -> List[Violation]:
    """Run every oracle over one construction result.

    Returns all violations found (empty means the result is clean).
    With a ``recorder`` each oracle executes inside a ``verify.oracle``
    span (attrs: ``oracle``, ``method``, ``violations``); with a
    ``metrics`` registry every violation bumps the
    ``verify.violations{oracle=...}`` counter -- the serving layer's
    always-on signal that an engine started lying.
    """
    from repro.obs.metrics import as_metrics
    from repro.obs.recorder import as_recorder

    rec = as_recorder(recorder)
    registry = as_metrics(metrics)
    ctx = VerificationContext(
        tree=tree, matrix=matrix, reported_cost=reported_cost, method=method
    )
    violations: List[Violation] = []
    counter = registry.counter(
        "verify.violations",
        "Oracle violations found by result verification.",
        labelnames=("oracle",),
    )
    for oracle in oracles if oracles is not None else DEFAULT_ORACLES:
        with rec.span(
            "verify.oracle", oracle=oracle.name, method=method or ""
        ) as span:
            found = oracle(ctx)
            if rec.enabled:
                span.attrs["violations"] = len(found)
        if found:
            counter.inc(len(found), oracle=oracle.name)
        violations.extend(found)
    return violations
