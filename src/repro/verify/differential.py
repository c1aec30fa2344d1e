"""Cross-engine differential verification.

Five engines can answer the same question (four exactly, one within a
proven bracket), which makes the repository its own oracle:

* the exact engines -- sequential Algorithm BBU with the
  branching kernel (``bnb``) and with the scalar reference loop
  (``bnb-scalar``), the simulated cluster (``parallel-bnb``) and the
  real multi-core engine (``multiprocess``) -- must agree on the
  optimal cost to 1e-9;
* the compact-set pipeline's cost must land in ``[exact, upgmm]``: it is
  exact inside every compact set, so it can never beat the optimum, and
  the paper proves it never loses to the UPGMM upper bound;
* every feasible method's cost must be at least the exact optimum;
* every method's tree must pass every single-tree oracle;
* on matrices of at most :data:`REFERENCE_MAX_SPECIES` species, every
  exact engine's cost must match the exhaustive-search optimum
  (:func:`repro.bnb.enumeration.brute_force_mut`), which uses no lower
  bound and no search loop of the engines' -- so a bound that prunes
  the optimum in every engine at once is still caught.

:func:`run_differential` runs a configurable set of methods over one
matrix and folds everything into a :class:`DifferentialReport` whose
``violations`` use the same :class:`~repro.verify.oracles.Violation`
vocabulary as the oracles (oracle names ``differential.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bnb.enumeration import brute_force_mut
from repro.core.api import METHODS, methods_of_kind, ultrametric
from repro.matrix.distance_matrix import DistanceMatrix
from repro.verify.oracles import Oracle, Violation, run_oracles

__all__ = [
    "EXACT_METHODS",
    "REFERENCE_MAX_SPECIES",
    "BRACKET_METHODS",
    "FEASIBLE_HEURISTICS",
    "DEFAULT_DIFFERENTIAL_METHODS",
    "MethodOutcome",
    "DifferentialReport",
    "run_differential",
]

#: Methods that must find the exact minimum ultrametric tree.
#: ``bnb`` bounds every position with the kernel's tables before it
#: builds a child (Python tables below
#: ``repro.bnb.search._KERNEL_MIN_SPECIES`` species, NumPy tables from
#: there) and ``bnb-scalar`` builds every child with the reference loop,
#: so every differential run, at any size, doubles as a kernel-vs-scalar
#: equivalence check.
EXACT_METHODS: Tuple[str, ...] = methods_of_kind("exact")

#: Methods whose cost is proven to land in ``[exact, upgmm]``.
BRACKET_METHODS: Tuple[str, ...] = methods_of_kind("bracket")

#: Heuristics that always return a *feasible* tree (``d_T >= M``), hence
#: an upper bound on the optimum.  UPGMA is deliberately absent: it is
#: the classical average-linkage heuristic and routinely violates
#: feasibility, which is the paper's very motivation for UPGMM.
FEASIBLE_HEURISTICS: Tuple[str, ...] = methods_of_kind("feasible")

#: The default differential matrix: all four engines plus the feasible
#: heuristics that define the bracket's upper end.
DEFAULT_DIFFERENTIAL_METHODS: Tuple[str, ...] = (
    EXACT_METHODS + BRACKET_METHODS[:1] + FEASIBLE_HEURISTICS[:1]
)

#: Relative agreement tolerance between exact engines ("to 1e-9").
EXACT_RTOL = 1e-9
#: Largest matrix whose exact costs are also checked against brute
#: force.  Exhaustive search takes about 0.01 s at 6 species, 0.1 s at 7
#: and 1 s at 8; the fuzz campaign draws up to 9 species per case.
REFERENCE_MAX_SPECIES = 7
#: Bracket checks allow a hair more slack for float accumulation.
BRACKET_RTOL = 1e-7


@dataclass
class MethodOutcome:
    """One method's result inside a differential run."""

    method: str
    cost: Optional[float] = None
    violations: List[Violation] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "cost": self.cost,
            "error": self.error,
            "violations": [v.to_json() for v in self.violations],
        }


@dataclass
class DifferentialReport:
    """Everything a differential run over one matrix established."""

    n_species: int
    outcomes: Dict[str, MethodOutcome]
    cross_violations: List[Violation] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        """Per-method oracle violations plus the cross-engine ones."""
        found: List[Violation] = []
        for outcome in self.outcomes.values():
            found.extend(outcome.violations)
        found.extend(self.cross_violations)
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exact_cost(self) -> Optional[float]:
        """The agreed exact optimum (first exact engine that ran)."""
        return next(iter(_costs(self.outcomes, EXACT_METHODS).values()), None)

    def to_json(self) -> dict:
        return {
            "n_species": self.n_species,
            "ok": self.ok,
            "exact_cost": self.exact_cost,
            "methods": {
                name: outcome.to_json()
                for name, outcome in self.outcomes.items()
            },
            "cross_violations": [
                v.to_json() for v in self.cross_violations
            ],
        }


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _costs(outcomes, methods: Sequence[str]) -> Dict[str, float]:
    """The cost of each of ``methods`` that ran and reported one."""
    return {m: outcomes[m].cost for m in methods
            if m in outcomes and outcomes[m].cost is not None}


def run_differential(
    matrix: DistanceMatrix,
    methods: Sequence[str] = DEFAULT_DIFFERENTIAL_METHODS,
    *,
    build_fn: Optional[Callable] = None,
    oracles: Optional[Sequence[Oracle]] = None,
    recorder=None,
    metrics=None,
) -> DifferentialReport:
    """Cross-check ``methods`` against each other on one matrix.

    ``build_fn`` defaults to :func:`repro.core.api.construct_tree`;
    tests inject corrupted builders here to prove the harness catches
    them.  ``recorder``/``metrics`` are forwarded to the oracle layer
    (``verify.oracle`` spans, ``verify.violations`` counters).
    """
    from repro.core.api import construct_tree

    build = build_fn or construct_tree
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(
            f"unknown methods {unknown}; choose from {METHODS}"
        )
    outcomes: Dict[str, MethodOutcome] = {}
    for method in methods:
        outcome = MethodOutcome(method)
        outcomes[method] = outcome
        try:
            result = build(matrix, method)
        except Exception as exc:  # noqa: BLE001 - engine isolation boundary
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.violations.append(
                Violation(
                    "differential.engine",
                    f"method {method!r} raised {outcome.error}",
                    {"method": method},
                )
            )
            continue
        outcome.cost = float(result.cost)
        if ultrametric(method):
            outcome.violations.extend(
                run_oracles(
                    result.tree,
                    matrix,
                    reported_cost=result.cost,
                    method=method,
                    oracles=oracles,
                    recorder=recorder,
                    metrics=metrics,
                )
            )

    certified = None
    if matrix.n <= REFERENCE_MAX_SPECIES and any(
        m in EXACT_METHODS for m in methods
    ):
        certified = brute_force_mut(matrix)[1]
    cross = _cross_checks(outcomes, certified)
    return DifferentialReport(
        n_species=matrix.n, outcomes=outcomes, cross_violations=cross
    )


def _cross_checks(
    outcomes: Dict[str, MethodOutcome], certified: Optional[float] = None
) -> List[Violation]:
    def slack(bound: float) -> float:
        return BRACKET_RTOL * max(1.0, abs(bound))

    violations: List[Violation] = []
    exact = _costs(outcomes, EXACT_METHODS)
    if len(exact) >= 2:
        reference_method, reference = next(iter(exact.items()))
        for method, cost in exact.items():
            if _relative_gap(cost, reference) > EXACT_RTOL:
                violations.append(
                    Violation(
                        "differential.exact_agreement",
                        f"exact engines disagree: {method}={cost:.12g} vs "
                        f"{reference_method}={reference:.12g}",
                        {
                            "method": method,
                            "cost": cost,
                            "reference_method": reference_method,
                            "reference_cost": reference,
                        },
                    )
                )
    if certified is not None:
        for method, cost in exact.items():
            if _relative_gap(cost, certified) > EXACT_RTOL:
                violations.append(
                    Violation(
                        "differential.reference",
                        f"{method} cost {cost:.12g} is not the brute-force "
                        f"optimum {certified:.12g}",
                        {
                            "method": method,
                            "cost": cost,
                            "reference_cost": certified,
                        },
                    )
                )
    optimum = min(exact.values()) if exact else None
    feasible = _costs(outcomes, FEASIBLE_HEURISTICS)
    upper_method, upper = next(iter(feasible.items()), (None, None))

    for m, cost in _costs(outcomes, BRACKET_METHODS).items():
        if optimum is not None and cost < optimum - slack(optimum):
            violations.append(
                Violation(
                    "differential.bracket",
                    f"{m} cost {cost:.12g} below the exact optimum "
                    f"{optimum:.12g} (infeasible or buggy)",
                    {"method": m, "cost": cost, "optimum": optimum},
                )
            )
        if upper is not None and cost > upper + slack(upper):
            violations.append(
                Violation(
                    "differential.bracket",
                    f"{m} cost {cost:.12g} above the {upper_method} "
                    f"upper bound {upper:.12g}",
                    {"method": m, "cost": cost, "upper": upper},
                )
            )

    if optimum is not None:
        for m, cost in feasible.items():
            if cost < optimum - slack(optimum):
                violations.append(
                    Violation(
                        "differential.optimality",
                        f"feasible heuristic {m} reported cost "
                        f"{cost:.12g} below the exact optimum "
                        f"{optimum:.12g}",
                        {"method": m, "cost": cost, "optimum": optimum},
                    )
                )
    return violations
