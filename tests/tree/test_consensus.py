"""Tests for majority-rule consensus trees."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bnb.sequential import exact_mut
from repro.matrix.generators import random_metric_matrix
from repro.tree.compare import clades
from repro.tree.consensus import clade_support, majority_consensus
from repro.tree.checks import is_valid_ultrametric_tree
from repro.tree.ultrametric import TreeNode, UltrametricTree


def tree_from_nesting(spec, height=8.0):
    def build(node, h):
        if isinstance(node, str):
            return TreeNode(label=node)
        return TreeNode(h, [build(child, h / 2) for child in node])

    return UltrametricTree(build(spec, height))


@pytest.fixture
def three_trees():
    """Two trees agree on {a,b}; they disagree about c/d placement."""
    t1 = tree_from_nesting((("a", "b"), ("c", "d")))
    t2 = tree_from_nesting(((("a", "b"), "c"), "d"))
    t3 = tree_from_nesting(((("a", "c"), "b"), "d"))
    return [t1, t2, t3]


class TestCladeSupport:
    def test_fractions(self, three_trees):
        support = clade_support(three_trees)
        assert support[frozenset({"a", "b"})] == pytest.approx(2 / 3)
        assert support[frozenset({"c", "d"})] == pytest.approx(1 / 3)

    def test_identical_trees_full_support(self):
        t = tree_from_nesting((("a", "b"), ("c", "d")))
        support = clade_support([t, t.copy(), t.copy()])
        assert all(v == 1.0 for v in support.values())

    def test_leaf_set_mismatch_rejected(self):
        a = tree_from_nesting(("a", "b"))
        b = tree_from_nesting(("a", "z"))
        with pytest.raises(ValueError):
            clade_support([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clade_support([])


class TestMajorityConsensus:
    def test_majority_clades_kept(self, three_trees):
        consensus = majority_consensus(three_trees)
        assert frozenset({"a", "b"}) in clades(consensus)
        assert frozenset({"c", "d"}) not in clades(consensus)

    def test_all_leaves_present(self, three_trees):
        consensus = majority_consensus(three_trees)
        assert set(consensus.leaf_labels) == {"a", "b", "c", "d"}

    def test_result_is_valid_nonbinary_tree(self, three_trees):
        consensus = majority_consensus(three_trees)
        assert is_valid_ultrametric_tree(consensus, binary=False)

    def test_identical_trees_reproduce_topology(self):
        t = tree_from_nesting(((("a", "b"), "c"), "d"))
        consensus = majority_consensus([t, t.copy(), t.copy()])
        assert clades(consensus) == clades(t)

    def test_strict_consensus_drops_majority_only_clades(self, three_trees):
        strict = majority_consensus(three_trees, threshold=1.0)
        # {a, b} appears in 2/3 trees only -> dropped at threshold 1.
        assert frozenset({"a", "b"}) not in clades(strict)

    def test_heights_averaged(self):
        tall = tree_from_nesting((("a", "b"), "c"), height=10.0)
        short = tree_from_nesting((("a", "b"), "c"), height=6.0)
        consensus = majority_consensus([tall, short])
        assert consensus.height() == pytest.approx(8.0)
        inner = consensus.lca("a", "b")
        assert inner.height == pytest.approx((5.0 + 3.0) / 2)

    def test_threshold_validated(self, three_trees):
        with pytest.raises(ValueError):
            majority_consensus(three_trees, threshold=0.3)
        with pytest.raises(ValueError):
            majority_consensus(three_trees, threshold=1.5)

    def test_consensus_of_all_optimal_trees(self):
        """Works on the solver's 'results set' output directly."""
        for seed in range(6):
            m = random_metric_matrix(7, seed=seed)
            result = exact_mut(m, collect_all=True)
            if len(result.all_trees) >= 2:
                consensus = majority_consensus(result.all_trees)
                assert set(consensus.leaf_labels) == set(m.labels)
                assert is_valid_ultrametric_tree(consensus, binary=False)
                return
        pytest.skip("no multi-optimum instance found in the seed range")


_CONSENSUS_SCRIPT = """
from repro.bnb.sequential import exact_mut
from repro.matrix.generators import random_metric_matrix
from repro.tree.consensus import majority_consensus
from repro.tree.newick import to_newick

tree = exact_mut(random_metric_matrix(8, seed=3, integer=True)).tree
print(to_newick(majority_consensus([tree])))
"""


def test_consensus_bytes_do_not_depend_on_hash_seed():
    # Same-size clades come out of a set; their order in the consensus
    # must not follow string hashing.
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        outputs.add(subprocess.run(
            [sys.executable, "-c", _CONSENSUS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert len(outputs) == 1
