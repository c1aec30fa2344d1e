"""The one branch-and-bound search step every exact engine runs.

Algorithm BBU expands a BBT node by grafting the next species onto every
position, cutting children whose lower bound exceeds the upper bound and
applying the optional 3-3 filter.  The sequential solver (a DFS stack),
the simulated cluster (GP/LP pools) and the multiprocess engine (DFS in
worker processes) differ only in how they order their frontier and
share the upper bound, so all of them drive one :class:`SearchCore`,
which also owns the per-solve setup and one :class:`SearchStats`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bnb.bounds import search_context
from repro.bnb.kernel import MAX_BATCH_SPECIES, BranchKernel, expand_positions
from repro.bnb.relationship import insertion_is_consistent
from repro.bnb.topology import PartialTopology
from repro.heuristics.upgma import upgmm, upgmm_rows
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.maxmin import maxmin_order

__all__ = ["SearchStats", "Prebranch", "SearchCore"]

_EPS = 1e-9
#: Largest search whose UPGMM seed is built from row lists (measured
#: crossover with :func:`~repro.heuristics.upgma.upgmm`; see
#: ``docs/algorithms.md``).
_ROW_SEED_MAX_SPECIES = 16
#: Smallest search whose kernel builds its tables with NumPy.  Below it
#: Python tables are faster: NumPy's dispatch per expansion outweighs
#: the few positions it batches.  Both make bit-identical decisions.
#: Measured crossover: the ``crossover`` table of ``BENCH_bnb.json``
#: (``benchmarks/bench_bnb.py``; see ``docs/algorithms.md``).
_KERNEL_MIN_SPECIES = 40


@dataclass
class SearchStats:
    """Counters describing one branch-and-bound run."""

    nodes_created: int = 0
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    nodes_filtered_33: int = 0
    ub_updates: int = 0
    initial_upper_bound: float = 0.0
    best_cost: float = float("inf")
    elapsed_seconds: float = 0.0
    max_open_size: int = 0
    node_limit_hit: bool = False

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another run's counters (used by the pipeline).

        ``best_cost`` folds as a minimum (the best tree any merged run
        found) and ``initial_upper_bound`` as a sum over subproblems --
        dropping them (the old behaviour) made pipeline-aggregated stats
        report a ``0.0`` seed bound and an ``inf`` best cost.
        """
        self.nodes_created += other.nodes_created
        self.nodes_expanded += other.nodes_expanded
        self.nodes_pruned += other.nodes_pruned
        self.nodes_filtered_33 += other.nodes_filtered_33
        self.ub_updates += other.ub_updates
        self.initial_upper_bound += other.initial_upper_bound
        self.best_cost = min(self.best_cost, other.best_cost)
        self.elapsed_seconds += other.elapsed_seconds
        self.max_open_size = max(self.max_open_size, other.max_open_size)
        self.node_limit_hit = self.node_limit_hit or other.node_limit_hit


@dataclass
class Prebranch:
    """The master's pre-branched frontier (see :meth:`SearchCore.prebranch`)."""

    #: Open nodes, sorted by lower bound.
    frontier: List[PartialTopology]
    #: The seed cost, or the cheapest complete tree the pre-branch found.
    upper_bound: float
    #: That complete tree, or ``None`` when the seed was not beaten.
    best: Optional[PartialTopology]
    #: One entry per node popped, in order: its leaf count when it was
    #: expanded, ``None`` when it was pruned.  The simulator charges its
    #: clock from this.
    popped: List[Optional[int]]


class SearchCore:
    """Per-solve search state and the shared expansion step.

    Built once per solve from a matrix's row lists and labels (at least
    3 species); :meth:`from_matrix` takes a :class:`DistanceMatrix`.
    Everything a worker needs to expand nodes is plain data, so the core
    pickles for ``spawn`` worker processes.

    ``use_kernel=True`` branches with a
    :class:`~repro.bnb.kernel.BranchKernel`, bounding every position
    before building a child: with Python tables below
    ``_KERNEL_MIN_SPECIES`` species and with NumPy tables from there up
    to the kernel's species limit.  ``use_kernel=False`` takes the scalar
    reference loop (:attr:`kernel` is ``None``).  Every path makes
    bit-identical decisions.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[float]],
        labels: Sequence[str],
        *,
        lower_bound: str = "minfront",
        use_maxmin: bool = True,
        relationship_33: bool = False,
        enforce_all_33: bool = False,
        use_kernel: bool = True,
    ) -> None:
        # The setup runs on plain row lists: most searches are
        # 3-5 species compact-set subproblems, where NumPy's per-call
        # dispatch would cost more than the search itself.
        if use_maxmin:
            order = maxmin_order(rows)
            rows = [[rows[i][j] for j in order] for i in order]
            labels = [labels[i] for i in order]
        self.n = len(rows)
        self.labels: Sequence[str] = labels
        self.values = rows
        self.half, self.tails = search_context(rows, lower_bound)
        self.check_33 = relationship_33 or enforce_all_33
        self.enforce_all_33 = enforce_all_33
        vectorised = _KERNEL_MIN_SPECIES <= self.n <= MAX_BATCH_SPECIES
        self.kernel = BranchKernel(self.half, vectorised) if use_kernel else None
        # The row-list seed's O(n^3) Python scans lose to the vectorised
        # merges above about 16 species; both build the same tree.
        if self.n <= _ROW_SEED_MAX_SPECIES:
            self.seed = upgmm_rows(rows, labels)
        else:
            self.seed = upgmm(DistanceMatrix(rows, labels, validate=False))
        self.root = PartialTopology.initial(self.half)
        self.root.lower_bound = self.root.cost + self.tails[2]
        self.stats = SearchStats(
            nodes_created=1, initial_upper_bound=self.seed.cost()
        )

    @classmethod
    def from_matrix(cls, matrix: DistanceMatrix, **options) -> "SearchCore":
        """The core of a search over ``matrix``."""
        return cls(matrix.values.tolist(), matrix.labels, **options)

    def expand(
        self, node: PartialTopology, threshold: float
    ) -> Tuple[Sequence[PartialTopology], Sequence[PartialTopology]]:
        """Branch ``node`` and keep the children within ``threshold``.

        Returns ``(open_children, complete_trees)`` in position order;
        one of the two is always empty.  Counts the expansion, every
        position created, the positions the bound cut and the children
        the 3-3 filter removed.
        """
        stats = self.stats
        stats.nodes_expanded += 1
        stats.nodes_created += node.num_positions()
        s = node.next_species
        children, pruned = expand_positions(
            node, self.tails[s + 1], threshold, self.kernel
        )
        stats.nodes_pruned += pruned
        if self.check_33:
            kept = [
                child for child in children
                if insertion_is_consistent(
                    child, self.values, s, check_all_pairs=self.enforce_all_33
                )
            ]
            stats.nodes_filtered_33 += len(children) - len(kept)
            children = kept
        if node.num_leaves + 1 == self.n:
            return (), children
        return children, ()

    def prebranch(self, target: int) -> Prebranch:
        """Expand best-lower-bound-first until ``target`` nodes are open.

        This is the parallel master's pre-branching (Steps 1-5 of the
        papers' listing).  A heap keyed by lower bound orders the
        expansion; ties pop the most recently created child first.
        """
        stats = self.stats
        upper_bound = stats.initial_upper_bound
        best: Optional[PartialTopology] = None
        popped: List[Optional[int]] = []
        queue: List[Tuple[float, int, PartialTopology]] = [
            (self.root.lower_bound, 0, self.root)
        ]
        heap_seq = 0
        while queue and len(queue) < target:
            _, _, node = heapq.heappop(queue)
            threshold = upper_bound - _EPS
            if node.lower_bound > threshold:
                stats.nodes_pruned += 1
                popped.append(None)
                continue
            popped.append(node.num_leaves)
            children, complete = self.expand(node, threshold)
            for child in complete:
                if child.cost < upper_bound - _EPS:
                    upper_bound = child.cost
                    best = child
                    stats.ub_updates += 1
            for child in children:
                heap_seq -= 1
                heapq.heappush(queue, (child.lower_bound, heap_seq, child))
        frontier = sorted(
            (entry[2] for entry in queue), key=lambda t: t.lower_bound
        )
        return Prebranch(frontier, upper_bound, best, popped)
