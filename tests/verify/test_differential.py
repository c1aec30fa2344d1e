"""Cross-engine differential harness tests.

The headline case is the PR's satellite requirement: the real
multi-core engine (``multiprocess``) pinned against the sequential
branch-and-bound (``bnb``) on five small matrices -- optimal costs agree
to 1e-9 relative and both trees pass every single-tree oracle.
"""

import pytest

import repro.bnb.search as search
import repro.verify.differential as differential
from repro.core.api import construct_tree
from repro.matrix.generators import (
    clustered_matrix,
    perturbed_ultrametric_matrix,
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.verify.differential import (
    BRACKET_METHODS,
    DEFAULT_DIFFERENTIAL_METHODS,
    EXACT_METHODS,
    DifferentialReport,
    MethodOutcome,
    run_differential,
)
from repro.verify.oracles import Violation, run_oracles

FIVE_MATRICES = [
    random_metric_matrix(5, seed=11),
    random_metric_matrix(6, seed=12, integer=False),
    clustered_matrix([3, 3], seed=13),
    random_ultrametric_matrix(6, seed=14),
    perturbed_ultrametric_matrix(7, seed=15, noise=0.2),
]


class TestMultiprocessAgainstExact:
    """Satellite: multiprocess vs bnb on 5 small matrices."""

    @pytest.mark.parametrize("index", range(len(FIVE_MATRICES)))
    def test_cost_agreement_and_oracles(self, index):
        matrix = FIVE_MATRICES[index]
        exact = construct_tree(matrix, "bnb")
        multi = construct_tree(matrix, "multiprocess")
        assert multi.cost == pytest.approx(exact.cost, rel=1e-9)
        for result, method in ((exact, "bnb"), (multi, "multiprocess")):
            assert run_oracles(
                result.tree,
                matrix,
                reported_cost=result.cost,
                method=method,
            ) == []


class TestDefaults:
    def test_method_sets(self):
        assert EXACT_METHODS == (
            "bnb", "bnb-scalar", "parallel-bnb", "multiprocess"
        )
        assert set(BRACKET_METHODS) == {"compact", "compact-parallel"}
        # All four exact engines (the batched kernel and its scalar
        # reference count separately), the compact pipeline and one
        # feasible upper-bound heuristic cross-check each other by
        # default.
        assert set(EXACT_METHODS) < set(DEFAULT_DIFFERENTIAL_METHODS)
        assert "compact" in DEFAULT_DIFFERENTIAL_METHODS
        assert "upgmm" in DEFAULT_DIFFERENTIAL_METHODS
        assert "upgma" not in DEFAULT_DIFFERENTIAL_METHODS  # infeasible

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            run_differential(FIVE_MATRICES[0], ["bnb", "nope"])


class TestCleanRun:
    def test_report_is_clean_and_structured(self):
        matrix = clustered_matrix([3, 3], seed=2)
        report = run_differential(matrix)
        assert report.ok
        assert report.violations == []
        assert set(report.outcomes) == set(DEFAULT_DIFFERENTIAL_METHODS)
        assert report.exact_cost == pytest.approx(
            report.outcomes["bnb"].cost
        )
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["n_species"] == 6
        assert set(payload["methods"]) == set(DEFAULT_DIFFERENTIAL_METHODS)
        import json

        json.dumps(payload)

    def test_bracket_holds(self):
        matrix = random_metric_matrix(7, seed=3)
        report = run_differential(matrix)
        optimum = report.exact_cost
        compact = report.outcomes["compact"].cost
        upgmm = report.outcomes["upgmm"].cost
        assert optimum - 1e-7 <= compact <= upgmm + 1e-7


def _corrupting_builder(method_to_break, factor):
    """A build_fn that inflates one method's reported cost."""

    def build(matrix, method, **kwargs):
        result = construct_tree(matrix, method, **kwargs)
        if method == method_to_break:
            result.cost = result.cost * factor
        return result

    return build


class TestMutationDetection:
    def test_exact_disagreement_caught(self):
        matrix = random_metric_matrix(6, seed=4)
        report = run_differential(
            matrix,
            EXACT_METHODS,
            build_fn=_corrupting_builder("parallel-bnb", 1.001),
        )
        assert not report.ok
        oracles = {v.oracle for v in report.violations}
        # Both the cross-check and the per-tree cost oracle fire.
        assert "differential.exact_agreement" in oracles
        assert "cost" in oracles

    def test_inflated_tail_bound_caught_only_by_reference(self, monkeypatch):
        # A lower bound that is too high prunes the optimum in every
        # exact engine at once (all of them take their bounds from the
        # one search core), so the engines still agree with each other;
        # only the brute-force reference sees the wrong optimum.
        real = search.search_context

        def inflated(matrix, lower_bound="minfront"):
            half, tails = real(matrix, lower_bound)
            return half, [2.0 * tail for tail in tails]

        monkeypatch.setattr(search, "search_context", inflated)
        # UPGMM (143.5) is not optimal here (137.5), and the inflated
        # bound prunes every improvement on it.
        matrix = random_metric_matrix(7, seed=10)
        report = run_differential(matrix, EXACT_METHODS)
        costs = {report.outcomes[m].cost for m in EXACT_METHODS}
        assert costs == {143.5}
        assert {v.oracle for v in report.violations} == {
            "differential.reference"
        }
        assert {v.details["method"] for v in report.violations} == set(
            EXACT_METHODS
        )
        assert all(
            v.details["reference_cost"] == pytest.approx(137.5)
            for v in report.violations
        )

    def test_reference_skipped_above_limit(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("brute force ran above the limit")

        monkeypatch.setattr(differential, "brute_force_mut", refuse)
        n = differential.REFERENCE_MAX_SPECIES + 1
        assert run_differential(
            random_metric_matrix(n, seed=1), ("bnb",)
        ).ok

    def test_crashing_engine_isolated(self):
        matrix = random_metric_matrix(5, seed=5)

        def build(m, method, **kwargs):
            if method == "multiprocess":
                raise RuntimeError("worker pool exploded")
            return construct_tree(m, method, **kwargs)

        report = run_differential(matrix, EXACT_METHODS, build_fn=build)
        outcome = report.outcomes["multiprocess"]
        assert outcome.error == "RuntimeError: worker pool exploded"
        assert any(
            v.oracle == "differential.engine" for v in outcome.violations
        )
        # The surviving engines still cross-checked cleanly.
        assert report.outcomes["bnb"].ok
        assert report.outcomes["parallel-bnb"].ok

    def test_bracket_breach_caught(self):
        matrix = random_metric_matrix(6, seed=6)
        report = run_differential(
            matrix,
            ("bnb", "compact", "upgmm"),
            build_fn=_corrupting_builder("compact", 0.5),
        )
        assert any(
            v.oracle == "differential.bracket" and "below the exact optimum"
            in v.message
            for v in report.violations
        )

    def test_heuristic_beating_optimum_caught(self):
        matrix = random_metric_matrix(6, seed=7)
        report = run_differential(
            matrix,
            ("bnb", "upgmm"),
            build_fn=_corrupting_builder("upgmm", 0.1),
        )
        assert any(
            v.oracle == "differential.optimality" for v in report.violations
        )


class TestOutcomeModel:
    def test_ok_property(self):
        outcome = MethodOutcome("bnb", cost=1.0)
        assert outcome.ok
        outcome.violations.append(Violation("cost", "off"))
        assert not outcome.ok

    def test_exact_cost_none_when_no_exact_engine(self):
        report = DifferentialReport(n_species=4, outcomes={})
        assert report.exact_cost is None
