"""Tests for the partial-topology branching structure."""


import pytest

from repro.bnb.bounds import half_matrix
from repro.bnb.topology import PartialTopology
from repro.matrix.generators import random_metric_matrix
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree


def topology_for(matrix):
    return PartialTopology.initial(half_matrix(matrix.values.tolist()))


def all_completions(matrix):
    """Exhaustively enumerate every complete topology."""
    done = []
    stack = [topology_for(matrix)]
    while stack:
        t = stack.pop()
        if t.is_complete:
            done.append(t)
            continue
        for pos in range(len(t.parent)):
            stack.append(t.child(pos))
    return done


class TestInitial:
    def test_two_leaves(self, tiny_matrix):
        t = topology_for(tiny_matrix)
        assert t.num_leaves == 2
        assert t.next_species == 2
        assert not t.is_complete

    def test_initial_cost(self, tiny_matrix):
        t = topology_for(tiny_matrix)
        # Root height = M[0,1]/2 = 1; omega = 2 * 1.
        assert t.cost == pytest.approx(2.0)

    def test_positions(self, tiny_matrix):
        assert topology_for(tiny_matrix).num_positions() == 3

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            PartialTopology.initial([[0.0]])


class TestBranching:
    def test_child_count_formula(self):
        """k-leaf topology has 2k - 1 graft positions."""
        m = random_metric_matrix(6, seed=0)
        t = topology_for(m)
        for k in range(2, 6):
            assert t.num_positions() == 2 * k - 1
            assert len(t.parent) == 2 * k - 1
            t = t.child(0)

    def test_enumeration_counts_double_factorial(self):
        """(2n-3)!! complete topologies for n leaves."""
        for n, expected in ((3, 3), (4, 15), (5, 105)):
            m = random_metric_matrix(n, seed=1)
            assert len(all_completions(m)) == expected

    def test_signatures_all_distinct(self):
        m = random_metric_matrix(5, seed=2)
        completions = all_completions(m)
        signatures = {t.signature() for t in completions}
        assert len(signatures) == len(completions)

    def test_child_does_not_mutate_parent(self, tiny_matrix):
        t = topology_for(tiny_matrix)
        before = (list(t.parent), list(t.height), t.cost)
        t.child(0)
        assert (list(t.parent), list(t.height), t.cost) == before

    def test_complete_cannot_branch(self, tiny_matrix):
        t = topology_for(tiny_matrix).child(0)
        assert t.is_complete
        with pytest.raises(ValueError):
            t.child(0)

    def test_bad_position_rejected(self, tiny_matrix):
        with pytest.raises(ValueError):
            topology_for(tiny_matrix).child(99)


class TestMinimalRealization:
    def test_cost_matches_recomputed_heights(self):
        """Incremental heights equal a from-scratch minimal realization."""
        m = random_metric_matrix(7, seed=3)
        half = half_matrix(m.values.tolist())
        for t in all_completions(m)[:50]:
            # Recompute each node height from the leaf partition.
            for node in range(len(t.parent)):
                if t.species[node] != -1:
                    assert t.height[node] == 0.0
                    continue
                a, b = t.child_a[node], t.child_b[node]
                pairs_max = max(
                    (
                        half[i][j]
                        for i in _bits(t.leafset[a])
                        for j in _bits(t.leafset[b])
                    ),
                    default=0.0,
                )
                expected = max(t.height[a], t.height[b], pairs_max)
                assert t.height[node] == pytest.approx(expected)

    def test_complete_tree_dominates_matrix(self):
        m = random_metric_matrix(6, seed=4)
        for t in all_completions(m)[:60]:
            tree = t.to_tree(m.labels)
            assert dominates_matrix(tree, m)
            assert is_valid_ultrametric_tree(tree)

    def test_to_tree_cost_matches(self):
        m = random_metric_matrix(6, seed=5)
        for t in all_completions(m)[:60]:
            assert t.to_tree(m.labels).cost() == pytest.approx(t.cost)

    def test_cost_monotone_under_insertion(self):
        """Grafting a species never lowers the realized cost."""
        m = random_metric_matrix(7, seed=6)
        t = topology_for(m)
        while not t.is_complete:
            child = t.child(t.num_leaves % t.num_positions())
            assert child.cost >= t.cost - 1e-12
            t = child


class TestSharedHalf:
    """The ``M / 2`` matrix is read-only search state shared by reference.

    Regression: ``initial()`` and ``from_payload()`` used to deep-copy
    ``half`` into every topology -- O(n^2) waste per solve that also hid
    any accidental mutation of the shared context.
    """

    def test_initial_shares_half_by_reference(self):
        half = half_matrix(random_metric_matrix(6, seed=8).values.tolist())
        assert PartialTopology.initial(half).half is half

    def test_children_share_the_same_half(self):
        half = half_matrix(random_metric_matrix(6, seed=8).values.tolist())
        t = PartialTopology.initial(half)
        assert t.child(0).half is half
        assert t.child(0).child(1).half is half

    def test_from_payload_shares_half(self):
        half = half_matrix(random_metric_matrix(6, seed=8).values.tolist())
        t = PartialTopology.initial(half).child(2)
        rebuilt = PartialTopology.from_payload(t.to_payload(), half)
        assert rebuilt.half is half
        assert rebuilt.cost == t.cost

    def test_solve_leaves_core_half_unchanged(self, monkeypatch):
        # Every node of a search shares its core's half rows by reference.
        from repro.bnb import sequential

        built = []

        class RecordingCore(sequential.SearchCore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.half, [list(row) for row in self.half]))

        monkeypatch.setattr(sequential, "SearchCore", RecordingCore)
        sequential.exact_mut(random_metric_matrix(7, seed=9))
        [(half, snapshot)] = built
        assert half == snapshot


class TestLca:
    def test_lca_of_initial_pair(self, tiny_matrix):
        t = topology_for(tiny_matrix)
        assert t.lca_node(0, 1) == t.root

    def test_lca_heights_give_distances(self):
        m = random_metric_matrix(6, seed=7)
        t = topology_for(m)
        while not t.is_complete:
            t = t.child(0)
        tree = t.to_tree(m.labels)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                assert 2 * t.lca_height(i, j) == pytest.approx(
                    tree.distance(m.labels[i], m.labels[j])
                )

    def test_unplaced_species_rejected(self, tiny_matrix):
        t = topology_for(tiny_matrix)
        with pytest.raises(ValueError):
            t.lca_node(0, 2)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
