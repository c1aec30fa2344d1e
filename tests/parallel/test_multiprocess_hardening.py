"""Hardening tests for the multiprocess engine.

Covers the production-shape guarantees: start-method portability
(fork *and* spawn give the sequential optimum), exact (non-lossy) result
transport, and process cleanup.  Liveness supervision (a dead worker
raises instead of hanging the master forever) is shared with the
service's worker slots and tested for both in ``test_supervision.py``.
"""

import multiprocessing

import pytest

from repro.bnb.bounds import search_context
from repro.bnb.sequential import exact_mut
from repro.bnb.topology import PartialTopology
from repro.matrix.generators import random_metric_matrix
from repro.matrix.maxmin import apply_maxmin
from repro.parallel.multiprocess import multiprocess_mut, select_start_method

AVAILABLE = multiprocessing.get_all_start_methods()
START_METHODS = [m for m in ("fork", "spawn") if m in AVAILABLE]


class TestStartMethodSelection:
    def test_default_is_supported(self):
        assert select_start_method() in AVAILABLE

    def test_fork_preferred_when_available(self):
        if "fork" in AVAILABLE:
            assert select_start_method() == "fork"

    def test_explicit_method_passes_through(self):
        for method in START_METHODS:
            assert select_start_method(method) == method

    def test_unavailable_method_rejected(self):
        with pytest.raises(ValueError):
            select_start_method("no-such-start-method")


class TestStartMethodEquality:
    """multiprocess_mut == BranchAndBoundSolver under fork *and* spawn."""

    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_matches_sequential(self, method, n):
        m = random_metric_matrix(n, seed=n)
        result = multiprocess_mut(m, n_workers=2, start_method=method)
        assert result.start_method == method
        assert result.cost == pytest.approx(exact_mut(m).cost, abs=1e-9)
        # Exact transport: the materialised tree realises the reported
        # cost bit-for-bit (modulo float summation), not to 12 digits.
        assert abs(result.tree.cost() - result.cost) < 1e-9


class TestExactTransport:
    def test_payload_roundtrip_bit_exact(self):
        ordered, _ = apply_maxmin(random_metric_matrix(9, seed=1, integer=False))
        half, tails = search_context(ordered.values.tolist())
        topo = PartialTopology.initial(half)
        while not topo.is_complete:
            topo = topo.child(0, tails[min(topo.next_species + 1, len(tails) - 1)])
        clone = PartialTopology.from_payload(topo.to_payload(), half)
        assert clone.cost == topo.cost  # exact equality, no tolerance
        assert clone.signature() == topo.signature()
        tree = clone.to_tree(ordered.labels)
        assert tree.cost() == pytest.approx(topo.cost, abs=1e-12)


class TestSupervision:
    def test_processes_cleaned_up_after_run(self):
        m = random_metric_matrix(9, seed=11)
        multiprocess_mut(m, n_workers=3)
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("Process-")
        ] or all(not p.is_alive() for p in multiprocessing.active_children())


class TestPicklableUnderSpawn:
    @pytest.mark.skipif("spawn" not in AVAILABLE, reason="needs spawn")
    def test_spawn_with_33_constraint(self):
        m = random_metric_matrix(8, seed=13)
        result = multiprocess_mut(
            m, n_workers=2, start_method="spawn", relationship_33=True
        )
        assert result.cost == pytest.approx(exact_mut(m).cost, abs=1e-9)
