"""Tests for the UltrametricTree data structure."""

import random

import pytest

from repro.tree.ultrametric import TreeNode, UltrametricTree
from tests.tree.random_trees import random_tree


def build_caterpillar():
    """((a:1, b:1):3, c:4) -- heights: inner 1, root 4."""
    inner = TreeNode(1.0, [TreeNode(label="a"), TreeNode(label="b")])
    root = TreeNode(4.0, [inner, TreeNode(label="c")])
    return UltrametricTree(root)


class TestConstruction:
    def test_leaf(self):
        t = UltrametricTree.leaf("x")
        assert t.n_leaves == 1
        assert t.cost() == 0.0
        assert t.height() == 0.0

    def test_join(self):
        t = UltrametricTree.join(
            UltrametricTree.leaf("a"), UltrametricTree.leaf("b"), 2.5
        )
        assert t.height() == 2.5
        assert t.cost() == 5.0

    def test_join_rejects_low_height(self):
        tall = build_caterpillar()
        with pytest.raises(ValueError, match="below"):
            UltrametricTree.join(tall, UltrametricTree.leaf("z"), 1.0)

    def test_duplicate_leaf_rejected(self):
        root = TreeNode(1.0, [TreeNode(label="a"), TreeNode(label="a")])
        with pytest.raises(ValueError, match="duplicate"):
            UltrametricTree(root)

    def test_unlabeled_leaf_rejected(self):
        root = TreeNode(1.0, [TreeNode(label="a"), TreeNode()])
        with pytest.raises(ValueError, match="label"):
            UltrametricTree(root)


class TestQueries:
    def test_leaf_labels_order(self):
        t = build_caterpillar()
        assert t.leaf_labels == ["a", "b", "c"]

    def test_has_leaf(self):
        t = build_caterpillar()
        assert t.has_leaf("b")
        assert not t.has_leaf("z")

    def test_cost(self):
        t = build_caterpillar()
        # edges: root->inner (3), root->c (4), inner->a (1), inner->b (1)
        assert t.cost() == pytest.approx(9.0)

    def test_cost_equals_height_identity(self):
        """omega(T) = h(root) + sum of internal heights."""
        t = build_caterpillar()
        internal = [n.height for n in t.root.walk() if not n.is_leaf]
        assert t.cost() == pytest.approx(t.height() + sum(internal))

    def test_lca(self):
        t = build_caterpillar()
        assert t.lca("a", "b").height == 1.0
        assert t.lca("a", "c").height == 4.0

    def test_distance(self):
        t = build_caterpillar()
        assert t.distance("a", "b") == 2.0
        assert t.distance("b", "c") == 8.0
        assert t.distance("a", "a") == 0.0

    def test_distance_matrix(self):
        t = build_caterpillar()
        m = t.distance_matrix(["a", "b", "c"])
        assert m["a", "b"] == 2.0
        assert m["a", "c"] == 8.0
        assert m.is_ultrametric()

    def test_distance_matrix_default_labels(self):
        t = build_caterpillar()
        m = t.distance_matrix()
        assert set(m.labels) == {"a", "b", "c"}

    @pytest.mark.parametrize("max_arity", [2, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_distance_matrix_matches_pairwise_lca(self, seed, max_arity):
        # Reference: one LCA query per pair; absent labels and the
        # diagonal read 0.  Shuffled orders and subsets exercise the
        # gather from leaf order.
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 18), max_arity)
        everyone = tree.leaf_labels
        rng.shuffle(everyone)
        subset = everyone[: rng.randint(0, len(everyone))] + ["absent", "gone"]
        rng.shuffle(subset)
        for labels in (None, everyone, subset):
            matrix = tree.distance_matrix(labels)
            names = matrix.labels
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    known = tree.has_leaf(a) and tree.has_leaf(b)
                    expected = tree.distance(a, b) if known else 0.0
                    assert matrix.values[i, j] == expected, (a, b)


class TestCopy:
    def test_copy_is_deep(self):
        t = build_caterpillar()
        c = t.copy()
        c.root.height = 99.0
        assert t.root.height == 4.0

    def test_copy_preserves_cost(self):
        t = build_caterpillar()
        assert t.copy().cost() == t.cost()


class TestReplaceLeaf:
    def test_graft_subtree(self):
        t = build_caterpillar()
        sub = UltrametricTree.join(
            UltrametricTree.leaf("c1"), UltrametricTree.leaf("c2"), 0.5
        )
        merged = t.replace_leaf("c", sub)
        assert set(merged.leaf_labels) == {"a", "b", "c1", "c2"}
        assert merged.distance("c1", "c2") == 1.0
        # Grafting under the root: c1 is at root distance from a.
        assert merged.distance("a", "c1") == 8.0

    def test_graft_preserves_original(self):
        t = build_caterpillar()
        sub = UltrametricTree.leaf("z")
        merged = t.replace_leaf("c", sub)
        assert t.has_leaf("c")
        assert merged.has_leaf("z") and not merged.has_leaf("c")

    def test_graft_shares_no_nodes_with_its_inputs(self):
        t = build_caterpillar()
        sub = UltrametricTree.join(
            UltrametricTree.leaf("c1"), UltrametricTree.leaf("c2"), 0.5
        )
        merged = t.replace_leaf("c", sub)
        inputs = {id(node) for node in t.root.walk()}
        inputs |= {id(node) for node in sub.root.walk()}
        assert not inputs & {id(node) for node in merged.root.walk()}
        assert sub.root.parent is None
        assert sub.leaf_labels == ["c1", "c2"]
        assert t.leaf_labels == ["a", "b", "c"]

    def test_graft_too_tall_rejected(self):
        t = build_caterpillar()
        tall = UltrametricTree.join(
            UltrametricTree.leaf("x"), UltrametricTree.leaf("y"), 100.0
        )
        with pytest.raises(ValueError, match="graft"):
            t.replace_leaf("a", tall)

    def test_graft_onto_single_leaf_tree(self):
        t = UltrametricTree.leaf("only")
        sub = UltrametricTree.join(
            UltrametricTree.leaf("x"), UltrametricTree.leaf("y"), 1.0
        )
        merged = t.replace_leaf("only", sub)
        assert set(merged.leaf_labels) == {"x", "y"}

    def test_missing_leaf_raises(self):
        t = build_caterpillar()
        with pytest.raises(KeyError):
            t.replace_leaf("nope", UltrametricTree.leaf("z"))

    def test_cost_after_graft(self):
        t = build_caterpillar()
        sub = UltrametricTree.join(
            UltrametricTree.leaf("c1"), UltrametricTree.leaf("c2"), 0.5
        )
        merged = t.replace_leaf("c", sub)
        # Old cost 9, minus c's pendant edge 4, plus edge root->sub
        # (4 - 0.5 = 3.5) plus the subtree's internal cost 1.0.
        assert merged.cost() == pytest.approx(9.0 - 4.0 + 3.5 + 1.0)


class TestTreeNode:
    def test_walk_counts(self):
        t = build_caterpillar()
        assert len(list(t.root.walk())) == 5

    def test_leaves(self):
        t = build_caterpillar()
        assert [leaf.label for leaf in t.root.leaves()] == ["a", "b", "c"]

    def test_parent_links(self):
        t = build_caterpillar()
        for node in t.root.walk():
            for child in node.children:
                assert child.parent is node

    def test_repr(self):
        assert "leaf" in repr(TreeNode(label="a"))
        assert "children" in repr(build_caterpillar().root)
