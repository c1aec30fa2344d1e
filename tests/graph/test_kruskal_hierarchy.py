"""The one-pass Kruskal hierarchy against the set-by-set construction.

``kruskal_hierarchy`` builds the compact-set tree and every node's
maximum-reduced matrix while it scans the sorted edges.  It must give
the tree that :meth:`CompactSetHierarchy.from_sets` arranges from the
discovered sets, node for node and child order included, and reduced
matrices (row lists) equal to :func:`reduce_matrix` bit for bit.
"""

import numpy as np
import pytest

from repro.core.reduction import reduce_matrix
from repro.graph.compact_linear import find_compact_sets_fast, kruskal_hierarchy
from repro.graph.compact_sets import find_compact_sets
from repro.graph.hierarchy import CompactSetHierarchy
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import hierarchical_matrix
from tests.differential_inputs import DIFFERENTIAL_MATRICES, nested_chain

HIERARCHICAL = [
    (f"hier{seed}", hierarchical_matrix(spec, seed=seed, jitter=jitter))
    for seed, (spec, jitter) in enumerate(
        [
            ([[3, 2], [4]], 0.15),
            ([[6, 6]] * 5, 0.3),
            ([[[2, 3], 2], [4, [2, 2]]], 0.3),
            ([[3, 3], [3, 3]], 0.0),
            ([2, [3, [2, [2, 2]]]], 0.25),
        ]
    )
]

CASES = DIFFERENTIAL_MATRICES + HIERARCHICAL + [("chain150", nested_chain(150))]


def assert_same_tree(fast, reference):
    fast_nodes = list(fast.walk())
    reference_nodes = list(reference.walk())
    assert len(fast_nodes) == len(reference_nodes)
    for node, expected in zip(fast_nodes, reference_nodes):
        assert node.members == expected.members
        assert [c.members for c in node.children] == [
            c.members for c in expected.children
        ]


@pytest.mark.parametrize("name,matrix", CASES, ids=[name for name, _ in CASES])
def test_matches_from_sets_and_reduce_matrix(name, matrix):
    root, sets = kruskal_hierarchy(matrix, reduce=True)
    assert_same_tree(root, CompactSetHierarchy.from_sets(sets, matrix.n).root)
    for node in root.walk():
        if node.is_leaf:
            assert node.reduced is None
            continue
        groups = [sorted(child.members) for child in node.children]
        labels = [f"g{k}" for k in range(len(groups))]
        expected = reduce_matrix(matrix, groups, labels).values
        reduced = np.asarray(node.reduced)
        assert reduced.shape == expected.shape
        assert reduced.tobytes() == expected.tobytes()


SYMMETRIC = [
    (name, matrix)
    for name, matrix in CASES
    if np.array_equal(matrix.values, matrix.values.T)
]


@pytest.mark.parametrize(
    "name,matrix", SYMMETRIC, ids=[name for name, _ in SYMMETRIC]
)
def test_sets_match_the_literal_scan(name, matrix):
    """On exactly symmetric inputs the pass finds the scan's sets, in the
    scan's order.  (The scan reads both triangles of a near-symmetric
    matrix, the pass only the upper one.)"""
    assert find_compact_sets_fast(matrix) == find_compact_sets(matrix)


def test_without_reduce_nodes_carry_no_matrix():
    root, _ = kruskal_hierarchy(HIERARCHICAL[0][1])
    assert all(node.reduced is None for node in root.walk())


@pytest.mark.parametrize("n", [0, 1])
def test_trivial_sizes(n):
    root, sets = kruskal_hierarchy(DistanceMatrix(np.zeros((n, n))))
    assert root.members == frozenset(range(n))
    assert root.is_leaf and sets == []


def test_deep_chain_walks_and_measures_without_recursion():
    hierarchy = CompactSetHierarchy.from_matrix(nested_chain(1200))
    assert hierarchy.depth() == 1199
    assert sum(1 for _ in hierarchy.nodes()) == 2 * 1200 - 1
    assert hierarchy.max_subproblem_size() == 2
