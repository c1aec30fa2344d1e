"""Differential tests: vectorised agglomerative path vs the reference.

The production :func:`repro.heuristics.upgma.agglomerative_tree` is a
vectorised rewrite of :func:`agglomerative_tree_reference` (the original
pure-Python loop, kept as the oracle).  On matrices in *generic position*
(continuous distances, no tied pairs) both must merge the same clusters
in the same order and therefore produce trees of identical cost for
every linkage.  On matrices with ties the two may legally break ties
differently, so those cases assert the structural invariants instead.
"""

import numpy as np
import pytest

from repro.bnb.search import SearchCore
from repro.heuristics.upgma import (
    _average_linkage,
    _maximum_linkage,
    _minimum_linkage,
    agglomerative_tree,
    agglomerative_tree_reference,
    single_linkage,
    upgma,
    upgmm,
    upgmm_rows,
)
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import (
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.matrix.maxmin import apply_maxmin
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree
from tests.differential_inputs import DIFFERENTIAL_MATRICES

LINKAGES = {
    "upgma": _average_linkage,
    "upgmm": _maximum_linkage,
    "single": _minimum_linkage,
}


def _generic_matrix(n, seed):
    """A random metric matrix with continuous (tie-free) distances."""
    return random_metric_matrix(n, seed=seed, integer=False)


class TestDifferentialCost:
    @pytest.mark.parametrize("linkage", sorted(LINKAGES))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_cost(self, linkage, seed):
        m = _generic_matrix(6 + (seed % 9), seed)
        fast = agglomerative_tree(m, LINKAGES[linkage])
        ref = agglomerative_tree_reference(m, LINKAGES[linkage])
        assert fast.cost() == pytest.approx(ref.cost(), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_topology(self, seed):
        """Tie-free inputs: identical induced distances, not just cost."""
        m = _generic_matrix(10, seed)
        fast = upgmm(m).distance_matrix(m.labels)
        ref = agglomerative_tree_reference(
            m, _maximum_linkage
        ).distance_matrix(m.labels)
        assert np.allclose(fast.values, ref.values, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_custom_scalar_linkage_fallback(self, seed):
        """Unknown linkages take the element-wise path; still differential."""
        m = _generic_matrix(9, seed)
        mid = lambda a, b, sa, sb: 0.5 * (a + b)  # noqa: E731
        fast = agglomerative_tree(m, mid)
        ref = agglomerative_tree_reference(m, mid)
        assert fast.cost() == pytest.approx(ref.cost(), abs=1e-9)

    def test_ultrametric_input_recovered_by_both(self):
        m = random_ultrametric_matrix(12, seed=3)
        for build in (agglomerative_tree, agglomerative_tree_reference):
            induced = build(m, _maximum_linkage).distance_matrix(m.labels)
            assert np.allclose(induced.values, m.values, atol=1e-9)


class TestInvariantsUnderTies:
    """Integer matrices tie frequently; both paths stay feasible/valid."""

    @pytest.mark.parametrize("seed", range(5))
    def test_both_dominate_on_integer_matrices(self, seed):
        m = random_metric_matrix(12, seed=seed)
        for build in (agglomerative_tree, agglomerative_tree_reference):
            tree = build(m, _maximum_linkage)
            assert is_valid_ultrametric_tree(tree)
            assert dominates_matrix(tree, m)

    @pytest.mark.parametrize("seed", range(5))
    def test_cost_ladder_preserved(self, seed):
        m = _generic_matrix(11, seed)
        assert single_linkage(m).cost() <= upgma(m).cost() + 1e-9
        assert upgma(m).cost() <= upgmm(m).cost() + 1e-9


class TestEdgeCases:
    def test_two_species(self):
        m = DistanceMatrix([[0, 6], [6, 0]], labels=["x", "y"])
        assert agglomerative_tree(m, _maximum_linkage).cost() == 6.0
        assert agglomerative_tree_reference(m, _maximum_linkage).cost() == 6.0

    def test_reference_rejects_empty(self):
        m = DistanceMatrix(np.zeros((0, 0)), labels=[])
        with pytest.raises(ValueError):
            agglomerative_tree_reference(m, _maximum_linkage)
        with pytest.raises(ValueError):
            agglomerative_tree(m, _maximum_linkage)

    def test_all_labels_present_fast_path(self):
        m = _generic_matrix(20, 1)
        tree = upgmm(m)
        assert sorted(tree.leaf_labels) == sorted(m.labels)


def _shape(node):
    """Height bits, label and child order of a subtree, recursively."""
    return (
        node.height.hex(),
        node.label,
        tuple(_shape(child) for child in node.children),
    )


class TestRowSeedMatchesUpgmm:
    """:func:`upgmm_rows` (the branch-and-bound seed) against :func:`upgmm`."""

    @pytest.mark.parametrize(
        "matrix",
        [m for _, m in DIFFERENTIAL_MATRICES],
        ids=[name for name, _ in DIFFERENTIAL_MATRICES],
    )
    def test_same_tree_bits(self, matrix):
        for m in (matrix, apply_maxmin(matrix)[0]):
            rows = upgmm_rows(m.values.tolist(), m.labels)
            assert _shape(rows.root) == _shape(upgmm(m).root)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("use_maxmin", [True, False])
    def test_search_core_seed_is_upgmm(self, n, use_maxmin):
        # 16 species take the row-list seed, 17 the NumPy one.
        m = random_metric_matrix(n, seed=n, low=1, high=3)
        ordered = apply_maxmin(m)[0] if use_maxmin else m
        core = SearchCore.from_matrix(m, use_maxmin=use_maxmin)
        assert _shape(core.seed.root) == _shape(upgmm(ordered).root)

    def test_single_species(self):
        tree = upgmm_rows([[0.0]], ["x"])
        reference = upgmm(DistanceMatrix([[0.0]], ["x"]))
        assert _shape(tree.root) == _shape(reference.root)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            upgmm_rows([], [])
