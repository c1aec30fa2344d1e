"""Differential pins: batched branching kernel vs the scalar reference.

Every assertion here uses ``==`` on floats on purpose: the kernel's
contract (documented in :mod:`repro.bnb.kernel`) is *bit-identical*
costs and lower bounds, not approximate agreement -- that is what lets
the solvers switch branching paths without perturbing a single search
decision.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnb import search
from repro.bnb.bounds import LOWER_BOUNDS, half_matrix
from repro.bnb.kernel import (
    MAX_BATCH_SPECIES,
    BranchEvaluation,
    BranchKernel,
    expand_positions,
)
from repro.bnb.search import _KERNEL_MIN_SPECIES, SearchCore, SearchStats
from repro.bnb.sequential import exact_mut
from repro.bnb.topology import PartialTopology
from repro.core.api import construct_tree
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import (
    hierarchical_matrix,
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.tree.newick import to_newick


def all_ties_matrix(n, value=4.0):
    """Every off-diagonal distance identical: the tie-breaking extreme."""
    values = [
        [0.0 if i == j else value for j in range(n)] for i in range(n)
    ]
    return DistanceMatrix(values)


#: The matrix families the kernel must match the scalar path on:
#: random metric (int and float entries), all-ties (every candidate
#: cost equal), exactly ultrametric, and near-ultrametric.
MATRICES = [
    random_metric_matrix(8, seed=0),
    random_metric_matrix(8, seed=1, integer=False),
    all_ties_matrix(7),
    random_ultrametric_matrix(8, seed=2),
    hierarchical_matrix([[3, 2], [3]], seed=3, jitter=0.05),
]


def run_method(matrix, method, options):
    """The engine result behind ``construct_tree(matrix, method)``."""
    return construct_tree(matrix, method, **options).details


def walk_topologies(matrix, limit=30):
    """A bounded, deterministic sample of incomplete partial topologies."""
    seen = []
    stack = [PartialTopology.initial(half_matrix(matrix.values.tolist()))]
    while stack and len(seen) < limit:
        topo = stack.pop()
        if topo.is_complete:
            continue
        seen.append(topo)
        positions = {0, topo.num_positions() // 2, topo.num_positions() - 1}
        for position in sorted(positions):
            stack.append(topo.child(position))
    return seen


class TestEvaluateMatchesScalar:
    @pytest.mark.parametrize("index", range(len(MATRICES)))
    def test_exact_mode_bit_identical(self, index):
        matrix = MATRICES[index]
        kernel = BranchKernel(half_matrix(matrix.values.tolist()))
        for topo in walk_topologies(matrix):
            evaluation = kernel.evaluate(topo, lower_tail=0.5)
            assert isinstance(evaluation, BranchEvaluation)
            assert evaluation.species == topo.next_species
            for position in range(topo.num_positions()):
                child = topo.child(position, 0.5)
                assert evaluation.costs[position] == child.cost
                assert evaluation.lower_bounds[position] == child.lower_bound

    @pytest.mark.parametrize("index", range(len(MATRICES)))
    def test_child_via_tables_field_identical(self, index):
        matrix = MATRICES[index]
        kernel = BranchKernel(half_matrix(matrix.values.tolist()))
        for topo in walk_topologies(matrix, limit=10):
            evaluation = kernel.evaluate(topo, lower_tail=0.25)
            for position in range(topo.num_positions()):
                reference = topo.child(position, 0.25)
                fast = topo.child_via_tables(position, evaluation.g, 0.25)
                assert fast.parent == reference.parent
                assert fast.child_a == reference.child_a
                assert fast.child_b == reference.child_b
                assert fast.height == reference.height
                assert fast.leafset == reference.leafset
                assert fast.species == reference.species
                assert fast.root == reference.root
                assert fast.num_leaves == reference.num_leaves
                assert fast.internal_sum == reference.internal_sum
                assert fast.cost == reference.cost
                assert fast.lower_bound == reference.lower_bound


class TestThresholdScreening:
    def thresholds_for(self, topo, lower_tail):
        """Thresholds that exercise exact ties, near-misses and extremes."""
        bounds = sorted(
            {topo.child(p, lower_tail).lower_bound
             for p in range(topo.num_positions())}
        )
        picked = [bounds[0] - 1.0, bounds[-1] + 1.0]
        for bound in bounds:
            picked.extend((bound, bound - 1e-12))
        for low, high in zip(bounds, bounds[1:]):
            picked.append((low + high) / 2.0)
        return picked

    @pytest.mark.parametrize("index", range(len(MATRICES)))
    def test_survivors_match_scalar(self, index):
        matrix = MATRICES[index]
        kernel = BranchKernel(half_matrix(matrix.values.tolist()))
        lower_tail = 0.5
        for topo in walk_topologies(matrix, limit=8):
            for threshold in self.thresholds_for(topo, lower_tail):
                fast, fast_pruned = expand_positions(
                    topo, lower_tail, threshold, kernel
                )
                slow, slow_pruned = expand_positions(
                    topo, lower_tail, threshold, None
                )
                assert fast_pruned == slow_pruned
                assert len(fast) == len(slow)
                for a, b in zip(fast, slow):
                    assert a.cost == b.cost
                    assert a.lower_bound == b.lower_bound
                    assert a.parent == b.parent
                    assert a.species == b.species

    @pytest.mark.parametrize("index", range(len(MATRICES)))
    def test_kept_lanes_bit_identical_to_exact_mode(self, index):
        """A threshold above every cost keeps all lanes; the per-lane
        Python walk must then reproduce the vectorised exact mode."""
        matrix = MATRICES[index]
        kernel = BranchKernel(half_matrix(matrix.values.tolist()))
        for topo in walk_topologies(matrix, limit=8):
            exact = kernel.evaluate(topo, lower_tail=0.5)
            generous = float(np.max(exact.lower_bounds)) + 1.0
            screened = kernel.evaluate(
                topo, lower_tail=0.5, threshold=generous
            )
            np.testing.assert_array_equal(screened.costs, exact.costs)
            np.testing.assert_array_equal(
                screened.lower_bounds, exact.lower_bounds
            )

    def test_screened_out_lanes_report_inf(self):
        matrix = MATRICES[0]
        kernel = BranchKernel(half_matrix(matrix.values.tolist()))
        topo = PartialTopology.initial(half_matrix(matrix.values.tolist()))
        evaluation = kernel.evaluate(topo, 0.0, threshold=-1.0)
        assert np.isinf(evaluation.costs).all()
        assert np.isinf(evaluation.lower_bounds).all()


@pytest.fixture
def kernel_at_every_size(monkeypatch):
    """Let ``use_kernel=True`` build NumPy tables below the crossover too,
    so a small search compares NumPy tables with scalar, not Python
    tables with scalar."""
    monkeypatch.setattr(search, "_KERNEL_MIN_SPECIES", 0)


class TestKernelSelection:
    """Engines bound before they clone at every size; NumPy tables only
    from the measured crossover."""

    def test_python_tables_below_crossover(self):
        for n in range(3, _KERNEL_MIN_SPECIES):
            kernel = SearchCore.from_matrix(random_metric_matrix(n, seed=n)).kernel
            assert isinstance(kernel, BranchKernel)
            assert not kernel.vectorised

    def test_kernel_at_and_above_crossover(self):
        for n in (_KERNEL_MIN_SPECIES, _KERNEL_MIN_SPECIES + 3):
            core = SearchCore.from_matrix(random_metric_matrix(n, seed=n))
            assert isinstance(core.kernel, BranchKernel)
            assert core.kernel.vectorised

    def test_use_kernel_false_is_scalar_everywhere(self):
        for n in (3, _KERNEL_MIN_SPECIES, _KERNEL_MIN_SPECIES + 3):
            core = SearchCore.from_matrix(random_metric_matrix(n, seed=n), use_kernel=False)
            assert core.kernel is None

    def test_fixture_drives_kernel_below_crossover(self, kernel_at_every_size):
        core = SearchCore.from_matrix(all_ties_matrix(_KERNEL_MIN_SPECIES - 1))
        assert isinstance(core.kernel, BranchKernel)
        assert core.kernel.vectorised

    def test_below_crossover_only_survivors_are_built(self, monkeypatch):
        """Bound before clone: no ``child`` call at all, and one
        ``child_via_tables`` call per child the bound keeps."""
        kept = []
        built = []
        expand = search.expand_positions
        via_tables = PartialTopology.child_via_tables

        def counting_expand(*args):
            children, pruned = expand(*args)
            kept.append(len(children))
            return children, pruned

        def counting_via_tables(self, *args):
            built.append(args[0])
            return via_tables(self, *args)

        def no_child(self, *args):
            raise AssertionError("child() called below the crossover")

        monkeypatch.setattr(search, "expand_positions", counting_expand)
        monkeypatch.setattr(PartialTopology, "child_via_tables", counting_via_tables)
        monkeypatch.setattr(PartialTopology, "child", no_child)
        assert 8 < _KERNEL_MIN_SPECIES
        result = exact_mut(random_metric_matrix(8, seed=3))
        assert result.stats.nodes_expanded == len(kept) > 0
        assert len(built) == sum(kept)
        assert result.stats.nodes_pruned > 0


STATS_FIELDS = tuple(
    f.name for f in dataclasses.fields(SearchStats)
    if f.name != "elapsed_seconds"
)


def assert_same_search(fast, slow):
    assert fast.cost == slow.cost
    assert to_newick(fast.tree) == to_newick(slow.tree)
    for name in STATS_FIELDS:
        assert getattr(fast.stats, name) == getattr(slow.stats, name), name
    assert sorted(map(to_newick, fast.all_trees)) == sorted(
        map(to_newick, slow.all_trees)
    )


@pytest.mark.usefixtures("kernel_at_every_size")
class TestSolverEquivalence:
    """Full searches with NumPy tables and scalar, at any size: NumPy
    tables are forced on below the crossover (see the fixture)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_full_search_identical(self, seed):
        matrix = random_metric_matrix(9, seed=seed)
        assert_same_search(
            exact_mut(matrix), exact_mut(matrix, use_kernel=False)
        )

    def test_all_ties_tie_breaking_identical(self):
        matrix = all_ties_matrix(7)
        assert_same_search(
            exact_mut(matrix), exact_mut(matrix, use_kernel=False)
        )

    def test_collect_all_identical(self):
        matrix = random_metric_matrix(7, seed=5)
        fast = exact_mut(matrix, collect_all=True)
        slow = exact_mut(matrix, use_kernel=False, collect_all=True)
        assert_same_search(fast, slow)
        assert fast.all_trees

    def test_relationship_33_identical(self):
        matrix = random_ultrametric_matrix(8, seed=6)
        fast = exact_mut(matrix, relationship_33=True)
        slow = exact_mut(matrix, relationship_33=True, use_kernel=False)
        assert_same_search(fast, slow)


FAMILIES = {
    "metric": lambda n, seed: random_metric_matrix(n, seed=seed),
    "float": lambda n, seed: random_metric_matrix(n, seed=seed, integer=False),
    "ultrametric": lambda n, seed: random_ultrametric_matrix(n, seed=seed),
    "ties": lambda n, seed: all_ties_matrix(n, value=float(1 + seed % 5)),
}


class TestPythonTablesProperty:
    """``bnb`` against ``bnb-scalar`` on small searches, where ``bnb``
    builds its tables in Python: the same cost, Newick and every
    ``SearchStats`` field under each lower bound, with the 3-3 filter
    off, on for the third species and on for every insertion, with
    ``collect_all`` and without the max-min order."""

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(3, 8),
        seed=st.integers(0, 2**16),
        family=st.sampled_from(sorted(FAMILIES)),
        lower_bound=st.sampled_from(sorted(LOWER_BOUNDS)),
        filter_33=st.sampled_from(
            [{}, {"relationship_33": True}, {"enforce_all_33": True}]
        ),
        collect_all=st.booleans(),
        use_maxmin=st.booleans(),
    )
    def test_matches_scalar_reference(
        self, n, seed, family, lower_bound, filter_33, collect_all,
        use_maxmin,
    ):
        assert n < _KERNEL_MIN_SPECIES
        if family == "ties" and collect_all:
            # Every tree of an all-ties matrix is optimal: collecting
            # the 135,135 trees of 8 species takes seconds per path.
            n = min(n, 6)
        matrix = FAMILIES[family](n, seed)
        options = dict(
            lower_bound=lower_bound, collect_all=collect_all,
            use_maxmin=use_maxmin, **filter_33
        )
        assert_same_search(
            run_method(matrix, "bnb", options),
            run_method(matrix, "bnb-scalar", options),
        )


class TestOversizedFallback:
    def oversized(self):
        n = MAX_BATCH_SPECIES + 4
        return [
            [0.0 if i == j else 1.0 + ((i * 7 + j) % 5)
             for j in range(n)]
            for i in range(n)
        ]

    def test_supported_flag(self):
        assert BranchKernel(half_matrix(MATRICES[0].values.tolist())).supported
        kernel = BranchKernel(self.oversized())
        assert not kernel.supported

    def test_evaluate_rejected_when_unsupported(self):
        half = self.oversized()
        kernel = BranchKernel(half)
        topo = PartialTopology.initial(half)
        with pytest.raises(ValueError, match="at most"):
            kernel.evaluate(topo)

    def test_expand_positions_falls_back_to_scalar(self):
        half = self.oversized()
        kernel = BranchKernel(half)
        topo = PartialTopology.initial(half)
        fast, fast_pruned = expand_positions(topo, 0.0, 1e9, kernel)
        slow, slow_pruned = expand_positions(topo, 0.0, 1e9, None)
        assert fast_pruned == slow_pruned
        assert [c.cost for c in fast] == [c.cost for c in slow]

    def test_solver_falls_back_silently(self):
        matrix = random_metric_matrix(MAX_BATCH_SPECIES + 4, seed=1)
        fast = exact_mut(matrix, node_limit=5)
        slow = exact_mut(matrix, use_kernel=False, node_limit=5)
        assert fast.cost == slow.cost
        assert fast.stats.nodes_expanded == slow.stats.nodes_expanded
        assert fast.stats.nodes_created == slow.stats.nodes_created


def test_bench_records_the_table_switch():
    """``_KERNEL_MIN_SPECIES`` is set from the crossover sweep that
    ``benchmarks/bench_bnb.py`` records in ``BENCH_bnb.json``."""
    bench = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCH_bnb.json").read_text()
    )
    assert bench["crossover"]["kernel_min_species"] == _KERNEL_MIN_SPECIES
