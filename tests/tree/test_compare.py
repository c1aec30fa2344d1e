"""Tests for tree comparison metrics."""

import random

import pytest

from repro.bnb.sequential import exact_mut
from repro.core.pipeline import CompactSetTreeBuilder
from repro.heuristics.upgma import upgma, upgmm
from repro.matrix.generators import (
    hierarchical_matrix,
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.tree.compare import (
    clade_sets,
    clades,
    cophenetic_correlation,
    normalized_robinson_foulds,
    robinson_foulds,
    shared_clades,
)
from repro.tree.ultrametric import TreeNode, UltrametricTree
from tests.tree.random_trees import random_tree


def tree_from_nesting(spec, height=1.0):
    """Build a tree from nested tuples of labels, e.g. (("a","b"),"c")."""

    def build(node, h):
        if isinstance(node, str):
            return TreeNode(label=node)
        return TreeNode(h, [build(child, h / 2) for child in node])

    return UltrametricTree(build(spec, height))


class TestClades:
    def test_simple(self):
        t = tree_from_nesting((("a", "b"), "c"))
        assert clades(t) == {frozenset({"a", "b"})}

    def test_excludes_trivial(self):
        t = tree_from_nesting((("a", "b"), ("c", "d")))
        result = clades(t)
        assert frozenset({"a", "b", "c", "d"}) not in result
        assert all(len(c) > 1 for c in result)

    def test_count_for_binary_tree(self):
        # n-leaf rooted binary tree has n-2 non-trivial clades.
        t = upgmm(random_metric_matrix(8, seed=1))
        assert len(clades(t)) == 6

    @pytest.mark.parametrize("max_arity", [2, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_clade_sets_match_subtree_walks(self, seed, max_arity):
        # Reference: walk the whole subtree under every internal node.
        tree = random_tree(random.Random(seed), 1 + seed * 3, max_arity)
        expected = [
            (node, frozenset(leaf.label for leaf in node.leaves()))
            for node in tree.root.walk()
            if node.children
        ]
        found = clade_sets(tree.root)
        assert [node for node, _ in found] == [node for node, _ in expected]
        assert [members for _, members in found] == [
            members for _, members in expected
        ]
        n = tree.n_leaves
        assert clades(tree) == {
            members for _, members in expected if 1 < len(members) < n
        }

    def test_unary_node_repeats_its_child_clade(self):
        inner = TreeNode(1.0, [TreeNode(label="a"), TreeNode(label="b")])
        chain = TreeNode(2.0, [inner])
        tree = UltrametricTree(TreeNode(3.0, [chain, TreeNode(label="c")]))
        found = clade_sets(tree.root)
        assert [node for node, _ in found] == [tree.root, chain, inner]
        assert found[1][1] == found[2][1] == frozenset({"a", "b"})


class TestRobinsonFoulds:
    def test_identical_trees(self):
        t = upgmm(random_metric_matrix(8, seed=2))
        assert robinson_foulds(t, t.copy()) == 0
        assert normalized_robinson_foulds(t, t.copy()) == 0.0

    def test_different_topologies(self):
        a = tree_from_nesting((("a", "b"), "c"), height=4.0)
        b = tree_from_nesting((("a", "c"), "b"), height=4.0)
        assert robinson_foulds(a, b) == 2
        assert normalized_robinson_foulds(a, b) == 1.0

    def test_symmetry(self):
        x = upgma(random_metric_matrix(9, seed=3))
        y = upgmm(random_metric_matrix(9, seed=3))
        assert robinson_foulds(x, y) == robinson_foulds(y, x)

    def test_leaf_set_mismatch_rejected(self):
        a = tree_from_nesting((("a", "b"), "c"))
        b = tree_from_nesting((("a", "b"), "z"))
        with pytest.raises(ValueError):
            robinson_foulds(a, b)

    def test_two_leaf_trees(self):
        a = tree_from_nesting(("a", "b"))
        b = tree_from_nesting(("b", "a"))
        assert robinson_foulds(a, b) == 0
        assert normalized_robinson_foulds(a, b) == 0.0

    def test_shared_clades(self):
        a = tree_from_nesting(((("a", "b"), "c"), "d"), height=8.0)
        b = tree_from_nesting((("a", "b"), ("c", "d")), height=8.0)
        assert frozenset({"a", "b"}) in shared_clades(a, b)

    def test_compact_tree_close_to_optimal_topology(self):
        """The paper's 'precise relations are kept' claim, quantified."""
        m = hierarchical_matrix([[3, 2], [4]], seed=5)
        compact = CompactSetTreeBuilder().build(m).tree
        optimal = exact_mut(m).tree
        assert normalized_robinson_foulds(compact, optimal) <= 0.25


class TestCopheneticCorrelation:
    def test_perfect_on_ultrametric_input(self):
        m = random_ultrametric_matrix(9, seed=6)
        tree = upgmm(m)
        assert cophenetic_correlation(tree, m) == pytest.approx(1.0)

    def test_high_for_good_trees(self):
        m = random_metric_matrix(10, seed=7)
        tree = exact_mut(m).tree
        assert cophenetic_correlation(tree, m) > 0.5

    def test_better_tree_correlates_at_least_as_well_on_clustered(self):
        m = hierarchical_matrix([[3, 2], [3]], seed=8)
        good = exact_mut(m).tree
        assert cophenetic_correlation(good, m) > 0.9

    def test_label_mismatch_rejected(self):
        m = random_metric_matrix(5, seed=9)
        wrong = upgmm(random_metric_matrix(5, seed=9).with_labels(list("vwxyz")))
        with pytest.raises(ValueError):
            cophenetic_correlation(wrong, m)
