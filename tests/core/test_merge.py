"""Tests for subtree merging."""

import pytest

from repro.bnb.sequential import exact_mut
from repro.core.merge import merge_group_tree
from repro.core.reduction import reduce_matrix
from repro.matrix.generators import clustered_matrix
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree
from repro.tree.newick import to_newick
from repro.tree.ultrametric import UltrametricTree


class TestMergeGroupTree:
    def test_merge_single_placeholder(self):
        group_tree = UltrametricTree.join(
            UltrametricTree.leaf("__g__"), UltrametricTree.leaf("c"), 10.0
        )
        sub = UltrametricTree.join(
            UltrametricTree.leaf("a"), UltrametricTree.leaf("b"), 1.0
        )
        merged = merge_group_tree(group_tree, {"__g__": sub})
        assert set(merged.leaf_labels) == {"a", "b", "c"}
        assert merged.distance("a", "b") == 2.0
        assert merged.distance("a", "c") == 20.0

    def test_merge_multiple_placeholders(self):
        group_tree = UltrametricTree.join(
            UltrametricTree.leaf("__g1__"), UltrametricTree.leaf("__g2__"), 8.0
        )
        g1 = UltrametricTree.join(
            UltrametricTree.leaf("a"), UltrametricTree.leaf("b"), 1.0
        )
        g2 = UltrametricTree.join(
            UltrametricTree.leaf("c"), UltrametricTree.leaf("d"), 2.0
        )
        merged = merge_group_tree(group_tree, {"__g1__": g1, "__g2__": g2})
        assert merged.n_leaves == 4
        assert merged.distance("a", "d") == 16.0
        assert is_valid_ultrametric_tree(merged)

    def test_missing_placeholder_raises(self):
        group_tree = UltrametricTree.leaf("x")
        with pytest.raises(KeyError, match="placeholder"):
            merge_group_tree(group_tree, {"y": UltrametricTree.leaf("z")})

    def test_no_placeholders_is_identity(self):
        tree = UltrametricTree.join(
            UltrametricTree.leaf("a"), UltrametricTree.leaf("b"), 1.0
        )
        assert merge_group_tree(tree, {}) is tree


class TestMergeSafetyTheorem:
    """The paper's central claim: merging solved compact-set subtrees into
    the maximum-reduction group tree yields a feasible ultrametric tree."""

    @pytest.mark.parametrize("seed", range(5))
    def test_merged_tree_dominates_original(self, seed):
        m = clustered_matrix([3, 3, 2], seed=seed)
        blocks = [[0, 1, 2], [3, 4, 5], [6, 7]]
        names = ["__a__", "__b__", "__c__"]
        reduced = reduce_matrix(m, blocks, names, mode="maximum")
        group_tree = exact_mut(reduced).tree
        subtrees = {
            name: exact_mut(m.submatrix(block)).tree
            for name, block in zip(names, blocks)
        }
        merged = merge_group_tree(group_tree, subtrees)
        assert is_valid_ultrametric_tree(merged)
        assert dominates_matrix(merged, m)

    @pytest.mark.parametrize("mode", ["maximum", "minimum", "average"])
    def test_graft_height_always_legal_for_compact_groups(self, mode):
        """Compactness keeps subtree roots below group-tree parents for
        all three reductions (feasibility differs, graftability doesn't)."""
        m = clustered_matrix([3, 3], seed=7)
        blocks = [[0, 1, 2], [3, 4, 5]]
        names = ["__a__", "__b__"]
        reduced = reduce_matrix(m, blocks, names, mode=mode)
        group_tree = exact_mut(reduced).tree
        subtrees = {
            name: exact_mut(m.submatrix(block)).tree
            for name, block in zip(names, blocks)
        }
        merged = merge_group_tree(group_tree, subtrees)  # must not raise
        assert is_valid_ultrametric_tree(merged)

    def test_minimum_reduction_can_lose_feasibility(self):
        """The documented trade-off of the minimum reduction."""
        found = False
        for seed in range(10):
            m = clustered_matrix([3, 3, 2], seed=seed)
            blocks = [[0, 1, 2], [3, 4, 5], [6, 7]]
            names = ["__a__", "__b__", "__c__"]
            reduced = reduce_matrix(m, blocks, names, mode="minimum")
            group_tree = exact_mut(reduced).tree
            subtrees = {
                name: exact_mut(m.submatrix(block)).tree
                for name, block in zip(names, blocks)
            }
            merged = merge_group_tree(group_tree, subtrees)
            if not dominates_matrix(merged, m):
                found = True
                break
        assert found


class TestOnePassMerge:
    """``merge_group_tree`` grafts every placeholder in one pass; the
    result must equal grafting them one at a time."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_newick_as_chained_replace_leaf(self, seed):
        m = clustered_matrix([3, 2, 4, 1, 3], seed=seed)
        blocks = [[0, 1, 2], [3, 4], [5, 6, 7, 8], [9], [10, 11, 12]]
        names = ["__a__", "__b__", "__c__", m.labels[9], "__e__"]
        reduced = reduce_matrix(m, blocks, names, mode="maximum")
        group_tree = exact_mut(reduced).tree
        subtrees = {
            name: exact_mut(m.submatrix(block)).tree
            for name, block in zip(names, blocks)
            if len(block) > 1
        }
        before = to_newick(group_tree, precision=12)
        chained = group_tree
        for name, subtree in subtrees.items():
            chained = chained.replace_leaf(name, subtree)
        # The merge consumes its inputs, so it gets copies of its own.
        merged = merge_group_tree(
            group_tree.copy(),
            {name: subtree.copy() for name, subtree in subtrees.items()},
        )
        assert to_newick(merged, precision=12) == to_newick(
            chained, precision=12
        )
        assert merged.leaf_labels == chained.leaf_labels
        assert merged.cost() == chained.cost()
        # Inputs are left as they were.
        assert to_newick(group_tree, precision=12) == before
        for subtree in subtrees.values():
            assert subtree.root.parent is None

    def test_duplicate_leaf_label_rejected(self):
        group_tree = UltrametricTree.join(
            UltrametricTree.leaf("__g__"), UltrametricTree.leaf("a"), 5.0
        )
        sub = UltrametricTree.join(
            UltrametricTree.leaf("a"), UltrametricTree.leaf("b"), 1.0
        )
        with pytest.raises(ValueError, match="duplicate"):
            merge_group_tree(group_tree, {"__g__": sub})


class TestMergeMovesSubtrees:
    """The merge moves solved subtrees into place instead of copying them,
    so a whole build constructs a number of nodes linear in its size."""

    def test_subtree_roots_are_moved_not_copied(self):
        group_tree = UltrametricTree.join(
            UltrametricTree.join(
                UltrametricTree.leaf("__g1__"), UltrametricTree.leaf("c"), 6.0
            ),
            UltrametricTree.leaf("__g2__"),
            8.0,
        )
        parents = {
            name: group_tree.lca(name, name).parent
            for name in ("__g1__", "__g2__")
        }
        subtrees = {
            "__g1__": UltrametricTree.join(
                UltrametricTree.leaf("a"), UltrametricTree.leaf("b"), 1.0
            ),
            "__g2__": UltrametricTree.join(
                UltrametricTree.leaf("d"), UltrametricTree.leaf("e"), 2.0
            ),
        }
        roots = {name: tree.root for name, tree in subtrees.items()}
        merged = merge_group_tree(group_tree, subtrees)
        in_merged = list(merged.root.walk())
        for name, root in roots.items():
            assert any(node is root for node in in_merged)
            assert root.parent is parents[name]
        assert merged.lca("a", "b") is roots["__g1__"]
        assert sorted(merged.leaf_labels) == ["a", "b", "c", "d", "e"]
        assert is_valid_ultrametric_tree(merged)

    def test_nested_chain_builds_linearly_many_nodes(self, monkeypatch):
        from repro.core.api import construct_tree
        from repro.tree import ultrametric
        from tests.differential_inputs import nested_chain

        n = 300
        m = nested_chain(n)
        built = [0]
        init = ultrametric.TreeNode.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ultrametric.TreeNode, "__init__", counting_init)
        result = construct_tree(m, "compact")
        assert result.tree.n_leaves == n
        # Copying each solved subtree at every level builds ~n^2 / 2.
        assert built[0] <= 4 * n, built[0]
