"""Tests for the 3-3 relationship constraint."""

import pytest

from repro.bnb.bounds import half_matrix
from repro.bnb.relationship import insertion_is_consistent, triple_is_consistent
from repro.bnb.topology import PartialTopology
from repro.bnb.sequential import BranchAndBoundSolver
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix, random_ultrametric_matrix


def matrix_ab_close():
    """a-b strictly closest; c farther from both."""
    return DistanceMatrix(
        [[0, 2, 8], [2, 0, 9], [8, 9, 0]], labels=["a", "b", "c"]
    )


def topologies_for_third_species(matrix):
    """All three placements of species 2 into the initial topology."""
    root = PartialTopology.initial(half_matrix(matrix.values.tolist()))
    return [root.child(pos) for pos in range(3)]


class TestTripleConsistency:
    def test_correct_placement_accepted(self):
        m = matrix_ab_close()
        values = [list(row) for row in m.values]
        consistent = [
            t
            for t in topologies_for_third_species(m)
            if triple_is_consistent(t, values, 0, 1, 2)
        ]
        # Only the "c above (a, b)" placement keeps a-b as the deep pair.
        assert len(consistent) == 1
        t = consistent[0]
        assert t.lca_node(0, 1) != t.lca_node(0, 2)

    def test_tied_triples_unconstrained(self):
        m = DistanceMatrix(
            [[0, 5, 5], [5, 0, 5], [5, 5, 0]], labels=["a", "b", "c"]
        )
        values = [list(row) for row in m.values]
        for t in topologies_for_third_species(m):
            assert triple_is_consistent(t, values, 0, 1, 2)

    def test_each_closest_pair_selects_one_topology(self):
        # Rotate which pair is closest; exactly one of the three
        # placements should survive each time.
        base = [[0, 2, 8], [2, 0, 9], [8, 9, 0]]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            values = [row[:] for row in base]
            # Make (a, b) the strictly closest pair.
            for i in range(3):
                for j in range(3):
                    if i != j:
                        values[i][j] = 9.0
            values[a][b] = values[b][a] = 2.0
            m = DistanceMatrix(values)
            survivors = [
                t
                for t in topologies_for_third_species(m)
                if triple_is_consistent(t, [list(r) for r in m.values], 0, 1, 2)
            ]
            assert len(survivors) == 1


class TestInsertionConsistency:
    def test_initial_step_only_by_default(self):
        m = matrix_ab_close()
        values = [list(row) for row in m.values]
        for t in topologies_for_third_species(m):
            # Species index other than 2 is never constrained.
            assert insertion_is_consistent(t, values, 1)

    def test_generalized_checks_all_pairs(self):
        m = random_ultrametric_matrix(6, seed=3)
        values = [list(row) for row in m.values]
        root = PartialTopology.initial(half_matrix(m.values.tolist()))
        # Grow a full tree; on ultrametric input the optimal (UPGMM-like)
        # insertions pass, but at least one wrong graft must fail.
        level = [root]
        any_rejected = False
        while level and not level[0].is_complete:
            nxt = []
            for t in level[:6]:
                s = t.next_species
                for pos in range(len(t.parent)):
                    child = t.child(pos)
                    if insertion_is_consistent(
                        child, values, s, check_all_pairs=True
                    ):
                        nxt.append(child)
                    else:
                        any_rejected = True
            level = nxt
        assert any_rejected
        assert level  # something always survives on ultrametric input


class TestSolverIntegration:
    @pytest.mark.parametrize("seed", range(4))
    def test_33_preserves_optimal_cost(self, seed):
        """Paper's observation: 3-3 trees are a subset with same result."""
        m = random_metric_matrix(8, seed=seed)
        plain = BranchAndBoundSolver().solve(m)
        with_33 = BranchAndBoundSolver(relationship_33=True).solve(m)
        assert with_33.cost == pytest.approx(plain.cost)

    @pytest.mark.parametrize("seed", range(4))
    def test_33_never_explores_more(self, seed):
        m = random_metric_matrix(9, seed=seed)
        plain = BranchAndBoundSolver().solve(m)
        with_33 = BranchAndBoundSolver(relationship_33=True).solve(m)
        assert (
            with_33.stats.nodes_expanded <= plain.stats.nodes_expanded
        )

    def test_enforce_all_on_ultrametric_input_is_exact(self):
        m = random_ultrametric_matrix(8, seed=5)
        plain = BranchAndBoundSolver().solve(m)
        strict = BranchAndBoundSolver(enforce_all_33=True).solve(m)
        assert strict.cost == pytest.approx(plain.cost)

    def test_filter_counter_increments(self):
        # On at least one instance that the search actually explores the
        # 3-3 filter must reject some child.
        filtered = 0
        for seed in range(8):
            m = random_metric_matrix(9, seed=seed)
            result = BranchAndBoundSolver(enforce_all_33=True).solve(m)
            filtered += result.stats.nodes_filtered_33
        assert filtered >= 1
