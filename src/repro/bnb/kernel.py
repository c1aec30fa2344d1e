"""Branching kernel: bound every insertion position before building any.

The scalar branching path (:meth:`PartialTopology.child`) clones eight
O(k) lists per candidate position and walks a leaf bitmask one bit at a
time to compute ``max(M[s, l] / 2 for l below node)`` -- then most of
those fully-built children are immediately pruned by the lower-bound
cut.  This module computes the cost and lower bound of **all** ``2k - 1``
children of a parent node from one per-node table, so the solver only
materialises :class:`PartialTopology` objects for positions that survive
the ``LB <= UB`` cut (and the 3-3 filter).

Bit-exactness
-------------
The kernel's costs are **bit-identical** to the scalar reference, not
merely close, which is what lets the solvers switch on the kernel without
perturbing a single search decision (pruning, tie-breaking and incumbent
updates all compare floats).  Two facts make this possible:

1. *The upward propagation is a running max.*  Inserting species ``s``
   above node ``c`` creates a new internal node of height
   ``h_u = max(height[c], maxhalf[c])`` where ``maxhalf[v]`` is
   ``max(M[s, l] / 2 for leaf l below v)``.  The scalar walk then sets
   each ancestor ``a`` to ``max(height[a], child_height, required)``
   with ``required`` the max half-distance over the leaves of ``a`` *not*
   below the previous level.  Because ``child_height`` already dominates
   the max half-distance over the leaves it covers (by induction from
   ``h_u >= maxhalf[c]``), that triple max equals
   ``max(child_height, g[a])`` with ``g[a] = max(height[a], maxhalf[a])``
   -- the same value, computed from per-node tables instead of bitmask
   walks.  ``max`` is exact in IEEE floats, so every propagated height is
   bit-identical to the scalar one.
2. *The additions happen in the scalar order.*  The scalar path folds
   ``internal_sum + h_u`` first, then adds each level's
   ``new_height - old_height`` bottom-up, then adds the root height.
   The per-position walk (:func:`_walk_costs`) performs the same float
   operations in the same order.  (A level where the height does not
   change contributes ``+ 0.0``, which is exact for the non-negative
   heights involved.)

The ``g`` table is shared by all ``2k - 1`` candidates of a parent --
this is the "incremental across sibling branches" part: the scalar path
recomputed those maxima per child via bitmask walks; the kernel computes
the table once per expansion.

Which path runs
---------------
Every path keeps a position exactly when its lower bound, computed with
the same float operations in the same order, does not exceed the
threshold, and emits the kept children in position order with the same
fields (``child_via_tables`` against ``child``, pinned in
``tests/bnb/test_kernel.py``).  So the choice of path changes no cost,
tree or :class:`~repro.bnb.search.SearchStats` field, only speed.
:class:`~repro.bnb.search.SearchCore` builds a kernel for every search
with ``use_kernel=True`` and picks how it fills ``g`` by size:

* *Python tables* below ``_KERNEL_MIN_SPECIES`` species: each placed
  leaf pushes its half-distance up its ancestor path, stopping at the
  first ancestor that already holds as much.  The compact pipeline's
  subproblems (2 to about 8 species) all run here, where NumPy's
  per-call dispatch would cost more than the few positions it batches.
* *NumPy tables* from ``_KERNEL_MIN_SPECIES`` species: the leaf
  bitmasks are unpacked into an ``(m, n)`` boolean matrix and reduced
  along species, and a vectorised screen (:meth:`BranchKernel.screen`)
  drops most positions before the exact walk.  Bitmasks are unpacked
  through ``uint64``, so this supports ``n <= 62`` species
  (:attr:`BranchKernel.supported`); larger searches use Python tables.

``use_kernel=False`` (method ``bnb-scalar``) keeps the clone-every-
position :meth:`PartialTopology.child` loop as the differential
reference.  :func:`expand_positions` implements "children of ``node``
whose lower bound clears ``threshold``" for every path.  Its one caller
is :meth:`repro.bnb.search.SearchCore.expand`, the expansion step every
exact engine runs, so the engines cannot drift.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bnb.topology import PartialTopology

__all__ = ["BranchEvaluation", "BranchKernel", "expand_positions"]

#: Leaf bitmasks are unpacked through uint64; one bit per species.
MAX_BATCH_SPECIES = 62


class BranchEvaluation:
    """Per-position arrays for one parent expansion.

    ``costs[p]`` / ``lower_bounds[p]`` are the cost and lower bound the
    child grafted at position ``p`` would have -- bit-identical to
    ``parent.child(p, tail).cost`` / ``.lower_bound``.  ``g[v]`` is the
    per-node propagation table ``max(height[v], maxhalf[v])`` that
    :meth:`PartialTopology.child_via_tables` consumes to materialise a
    surviving child without bitmask walks.
    """

    __slots__ = ("species", "costs", "lower_bounds", "g")

    def __init__(
        self,
        species: int,
        costs: np.ndarray,
        lower_bounds: np.ndarray,
        g: List[float],
    ) -> None:
        self.species = species
        self.costs = costs
        self.lower_bounds = lower_bounds
        self.g = g


class BranchKernel:
    """Bound-before-clone branching over a shared ``M / 2`` matrix.

    One kernel is built per solve (the half matrix is per-solve state)
    and reused across every expansion.  ``vectorised`` selects NumPy
    tables and the vectorised screen; otherwise the tables are built in
    plain Python (see the module docstring for which path runs).
    """

    __slots__ = ("half", "n", "vectorised", "half_np", "supported", "_bits")

    def __init__(
        self, half: Sequence[Sequence[float]], vectorised: bool = True
    ) -> None:
        self.half = half
        self.n = len(half)
        self.vectorised = vectorised
        self.supported = self.n >= 2 and (
            not vectorised or self.n <= MAX_BATCH_SPECIES
        )
        self.half_np = (
            np.asarray(half, dtype=np.float64)
            if vectorised and self.supported else None
        )
        #: Cached bit positions for the leafset unpack (one per species).
        self._bits = (
            np.arange(self.n, dtype=np.uint64) if self.half_np is not None
            else None
        )

    # ------------------------------------------------------------------
    def _numpy_tables(self, topo: PartialTopology) -> np.ndarray:
        """``g`` as an array for one expansion of ``topo``.

        ``maxhalf`` is computed for every node at once by unpacking the
        per-node leaf bitmasks into an ``(m, n)`` matrix and reducing the
        species' half-distance row over it.  Heights and half-distances
        are non-negative, so 0.0 is a neutral element for the max.
        """
        heights = np.fromiter(topo.height, dtype=np.float64)
        leafsets = np.array(topo.leafset, dtype=np.uint64)
        below = (leafsets[:, None] >> self._bits[None, :]) & np.uint64(1)
        row = self.half_np[topo.next_species]
        maxhalf = np.where(below, row[None, :], 0.0).max(axis=1)
        return np.maximum(heights, maxhalf)

    def _python_tables(self, topo: PartialTopology) -> List[float]:
        """``g`` as a list, built without NumPy.

        Each placed leaf pushes its half-distance to ``s`` up its
        ancestor path.  A walk stops at the first ancestor already
        holding at least as much: some earlier walk went through it and
        raised every ancestor above it too, so every node ends with the
        maximum over its leaves.  ``maxhalf`` only rises on a strict
        ``<`` from 0.0, as the scalar bitmask walk's does, and ``g[v]``
        keeps ``height[v]`` on a tie, as the scalar ``max`` does.
        """
        row = self.half[topo.next_species]
        parent = topo.parent
        leaf_of = topo.leaf_of
        maxhalf = [0.0] * len(parent)
        for species in range(topo.num_leaves):
            d = row[species]
            v = leaf_of[species]
            while v >= 0 and maxhalf[v] < d:
                maxhalf[v] = d
                v = parent[v]
        return [h if h >= m else m for h, m in zip(topo.height, maxhalf)]

    def screen(
        self,
        topo: PartialTopology,
        lower_tail: float = 0.0,
        threshold: Optional[float] = None,
    ) -> Tuple[List[float], Sequence[int]]:
        """``(g, candidates)``: the table and the positions worth walking.

        Without a ``threshold``, or with Python tables, every position is
        a candidate.  With NumPy tables and a ``threshold`` (the solver's
        ``UB`` cut), positions whose *cheap screening bound* already
        exceeds it are dropped before the exact walk.  The screen is sound
        because a child's cost is at least ``internal_sum + g[c]`` (the
        new node's own height) plus a final root height of at least
        ``max(g[c], height[root])``; a small absolute+relative margin
        keeps float rounding from ever screening out a position the exact
        walk would keep.
        """
        if topo.next_species >= topo.n:
            raise ValueError("topology is already complete")
        if not self.vectorised:
            g = self._python_tables(topo)
            return g, range(len(g))
        g = self._numpy_tables(topo)
        if threshold is None:
            return g.tolist(), range(len(g))
        h_root = topo.height[topo.root]
        screen = topo.internal_sum + g + np.maximum(g, h_root) + lower_tail
        margin = 1e-6 * (1.0 + abs(threshold))
        kept = np.nonzero(screen <= threshold + margin)[0]
        return g.tolist(), kept.tolist()

    def evaluate(
        self,
        topo: PartialTopology,
        lower_tail: float = 0.0,
        threshold: Optional[float] = None,
    ) -> BranchEvaluation:
        """Costs and lower bounds of every child of ``topo`` at once.

        With ``threshold=None`` every position's cost is exact.  With a
        ``threshold``, positions the :meth:`screen` drops are reported as
        ``+inf`` instead of their exact value -- they are provably above
        the threshold either way, so the caller's keep/prune decisions
        are unchanged.
        """
        if not self.supported:
            raise ValueError(
                f"batched branching supports at most {MAX_BATCH_SPECIES} "
                f"species (got {self.n}); use the scalar path"
            )
        g, candidates = self.screen(topo, lower_tail, threshold)
        costs = np.full(len(g), np.inf)
        costs[list(candidates)] = _walk_costs(topo, g, candidates)
        return BranchEvaluation(
            topo.next_species, costs, costs + lower_tail, g
        )


def _walk_costs(
    topo: PartialTopology, g: Sequence[float], candidates: Sequence[int]
) -> List[float]:
    """The exact cost of grafting at each candidate position.

    Each position's walk runs up its ancestor path in the reference
    float-op order (see the module docstring): ``h_u = g[c]`` joins
    ``internal_sum`` first, then each ancestor's height change, then
    the root height.
    """
    parent = topo.parent
    height = topo.height
    internal_sum = topo.internal_sum
    costs = []
    for c in candidates:
        cur_h = g[c]
        partial = internal_sum + cur_h
        cur = parent[c]
        while cur >= 0:
            g_cur = g[cur]
            new_h = cur_h if cur_h >= g_cur else g_cur
            partial += new_h - height[cur]
            cur_h = new_h
            cur = parent[cur]
        costs.append(partial + cur_h)
    return costs


def expand_positions(
    node: PartialTopology,
    lower_tail: float,
    threshold: float,
    kernel: Optional[BranchKernel] = None,
) -> Tuple[List[PartialTopology], int]:
    """Children of ``node`` whose lower bound does not exceed ``threshold``.

    Returns ``(children, pruned)`` with ``children`` in position order
    (preserving the engines' tie-breaking) and ``pruned`` the number of
    positions cut by the bound.  With a usable ``kernel`` every
    position is bounded first and only survivors are materialised (via
    :meth:`PartialTopology.child_via_tables`); otherwise every child is
    built with the scalar :meth:`PartialTopology.child` reference.  All
    paths make bit-identical decisions.
    """
    children: List[PartialTopology] = []
    if kernel is not None and kernel.supported:
        g, candidates = kernel.screen(node, lower_tail, threshold)
        for position, cost in zip(
            candidates, _walk_costs(node, g, candidates)
        ):
            if cost + lower_tail > threshold:
                continue
            children.append(node.child_via_tables(position, g, lower_tail))
        return children, len(node.parent) - len(children)
    pruned = 0
    for position in range(len(node.parent)):
        child = node.child(position, lower_tail)
        if child.lower_bound > threshold:
            pruned += 1
            continue
        children.append(child)
    return children, pruned
