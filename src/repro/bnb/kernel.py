"""Batched branching kernel: evaluate every insertion position at once.

The scalar branching path (:meth:`PartialTopology.child`) clones eight
O(k) lists per candidate position and walks a leaf bitmask one bit at a
time to compute ``max(M[s, l] / 2 for l below node)`` -- then most of
those fully-built children are immediately pruned by the lower-bound
cut.  This module computes the cost and lower bound of **all** ``2k - 1``
children of a parent node as NumPy array operations, so the solver only
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
   The kernel performs the same float operations in the same order,
   vectorised across candidates: the level loop below advances every
   candidate's walk one ancestor per iteration, so candidate ``j``'s
   partial sum sees exactly the adds the scalar code would give it.
   (A level where the height does not change contributes ``+ 0.0``,
   which is exact for the non-negative heights involved.)

The ``maxhalf`` table itself is shared by all ``2k - 1`` candidates of a
parent -- this is the "incremental across sibling branches" part: the
scalar path recomputed those maxima per child via bitmask walks; the
kernel computes the table once per expansion by unpacking the leaf
bitmasks into an ``(m, n)`` boolean matrix and reducing along species.

Leaf bitmasks are unpacked through ``uint64``, so the batched path
supports ``n <= 62`` species (far beyond exact-search reach anyway);
:attr:`BranchKernel.supported` is ``False`` above that and callers fall
back to the scalar loop.

:func:`expand_positions` implements "children of ``node`` whose lower
bound clears ``threshold``" for both the batched and the scalar path.
Its one caller is :meth:`repro.bnb.search.SearchCore.expand`, the
expansion step every exact engine runs, so the engines cannot drift.

Which path runs
---------------
Both paths keep a position exactly when its lower bound, computed with
the same float operations in the same order, does not exceed the
threshold, and both emit the kept children in position order with the
same fields (``child_via_tables`` against ``child``, pinned in
``tests/bnb/test_kernel.py``).  So the choice of path changes no cost,
tree or :class:`~repro.bnb.search.SearchStats` field, only speed, and
:class:`~repro.bnb.search.SearchCore` picks by size: a search builds a
kernel only from ``_KERNEL_MIN_SPECIES`` species, the measured point
where the batched arrays start to beat the kernel's per-expansion NumPy
dispatch.  The compact pipeline's subproblems are almost all below it.
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
        g: np.ndarray,
    ) -> None:
        self.species = species
        self.costs = costs
        self.lower_bounds = lower_bounds
        self.g = g


class BranchKernel:
    """Vectorised branching over a shared ``M / 2`` matrix.

    One kernel is built per solve (the half matrix is per-solve state)
    and reused across every expansion; :meth:`evaluate` allocates only
    per-expansion arrays.
    """

    __slots__ = ("half", "n", "half_np", "supported", "_bits")

    def __init__(self, half: Sequence[Sequence[float]]) -> None:
        self.half = half
        self.n = len(half)
        self.supported = 2 <= self.n <= MAX_BATCH_SPECIES
        self.half_np = (
            np.asarray(half, dtype=np.float64) if self.supported else None
        )
        #: Cached bit positions for the leafset unpack (one per species).
        self._bits = (
            np.arange(self.n, dtype=np.uint64) if self.supported else None
        )

    # ------------------------------------------------------------------
    def _tables(
        self, topo: PartialTopology
    ) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """``(s, m, heights, g)`` for one expansion of ``topo``.

        ``g[v] = max(height[v], maxhalf[v])`` with ``maxhalf[v]`` the
        half-distance from the incoming species ``s`` to the leaves below
        ``v`` -- computed for every node at once by unpacking the per-node
        leaf bitmasks into an ``(m, n)`` matrix and reducing the species'
        half-distance row over it.  Heights and half-distances are
        non-negative, so 0.0 is a neutral element for the max.
        """
        s = topo.next_species
        if s >= topo.n:
            raise ValueError("topology is already complete")
        m = len(topo.parent)
        heights = np.fromiter(topo.height, dtype=np.float64, count=m)
        leafsets = np.array(topo.leafset, dtype=np.uint64)
        below = (leafsets[:, None] >> self._bits[None, :]) & np.uint64(1)
        maxhalf = np.where(below, self.half_np[s][None, :], 0.0).max(axis=1)
        g = np.maximum(heights, maxhalf)
        return s, m, heights, g

    def evaluate(
        self,
        topo: PartialTopology,
        lower_tail: float = 0.0,
        threshold: Optional[float] = None,
    ) -> BranchEvaluation:
        """Costs and lower bounds of every child of ``topo`` at once.

        With ``threshold=None`` every position's cost is exact.  With a
        ``threshold`` (the solver's ``UB`` cut), positions whose *cheap
        screening bound* already exceeds it are reported as ``+inf``
        instead of their exact value -- they are provably above the
        threshold either way, so the caller's keep/prune decisions are
        unchanged, and the expensive upward walk only runs for the few
        positions that might survive.  The screen is sound because a
        child's cost is at least ``internal_sum + g[c]`` (the new node's
        own height) plus a final root height of at least
        ``max(g[c], height[root])``; a small absolute+relative margin
        keeps float rounding from ever screening out a position the
        exact walk would keep.
        """
        if not self.supported:
            raise ValueError(
                f"batched branching supports at most {MAX_BATCH_SPECIES} "
                f"species (got {self.n}); use the scalar path"
            )
        s, m, heights, g = self._tables(topo)
        internal_sum = topo.internal_sum

        # For candidate position c the new internal node's height is
        # h_u = max(height[c], maxhalf[c]) = g[c]; the scalar path then
        # adds it to internal_sum before walking upward.
        partial = internal_sum + g

        if threshold is not None:
            h_root = topo.height[topo.root]
            screen = partial + np.maximum(g, h_root) + lower_tail
            margin = 1e-6 * (1.0 + abs(threshold))
            kept = np.nonzero(screen <= threshold + margin)[0]
            costs = np.full(m, np.inf)
            lower_bounds = np.full(m, np.inf)
            if kept.size:
                # Exact per-lane walk, in the reference float-op order
                # (see module docstring): Python floats and numpy float64
                # share IEEE double semantics, so max / + / - here are
                # bit-identical to the vectorised exact path below.
                g_list = g.tolist()
                par_list = topo.parent
                h_list = topo.height
                for c in kept.tolist():
                    h_u = g_list[c]
                    partial_c = internal_sum + h_u
                    cur_h = h_u
                    cur = par_list[c]
                    while cur >= 0:
                        g_cur = g_list[cur]
                        new_h = cur_h if cur_h >= g_cur else g_cur
                        partial_c += new_h - h_list[cur]
                        cur_h = new_h
                        cur = par_list[cur]
                    cost = partial_c + cur_h
                    costs[c] = cost
                    lower_bounds[c] = cost + lower_tail
            return BranchEvaluation(s, costs, lower_bounds, g)

        # Exact mode: walk every candidate's ancestor path in lockstep,
        # one level per iteration: cur[j] is candidate j's current
        # ancestor (or -1 once its walk passed the root), cur_h[j] the
        # propagated height below it.  Candidates inserting at the root
        # never enter the loop and keep cur_h = g[root] = h_u, matching
        # the scalar special case.
        par = np.fromiter(topo.parent, dtype=np.int64, count=m)
        cur_h = g.copy()
        cur = par.copy()
        while True:
            active = cur >= 0
            if not active.any():
                break
            a = np.where(active, cur, 0)
            new_h = np.maximum(cur_h, g[a])
            partial = partial + np.where(active, new_h - heights[a], 0.0)
            cur_h = np.where(active, new_h, cur_h)
            cur = np.where(active, par[a], np.int64(-1))

        # cost = new internal_sum + new root height; LB = cost + tail.
        costs = partial + cur_h
        lower_bounds = costs + lower_tail
        return BranchEvaluation(s, costs, lower_bounds, g)


def expand_positions(
    node: PartialTopology,
    lower_tail: float,
    threshold: float,
    kernel: Optional[BranchKernel] = None,
) -> Tuple[List[PartialTopology], int]:
    """Children of ``node`` whose lower bound does not exceed ``threshold``.

    Returns ``(children, pruned)`` with ``children`` in position order
    (preserving the engines' tie-breaking) and ``pruned`` the number of
    positions cut by the bound.  With a usable ``kernel`` the bound test
    runs on the batched arrays and only survivors are materialised (via
    :meth:`PartialTopology.child_via_tables`); otherwise every child is
    built with the scalar :meth:`PartialTopology.child` reference.  Both
    paths make bit-identical decisions.
    """
    children: List[PartialTopology] = []
    pruned = 0
    if kernel is not None and kernel.supported:
        evaluation = kernel.evaluate(node, lower_tail, threshold)
        lower_bounds = evaluation.lower_bounds
        g = evaluation.g
        for position in range(len(node.parent)):
            if lower_bounds[position] > threshold:
                pruned += 1
                continue
            children.append(node.child_via_tables(position, g, lower_tail))
        return children, pruned
    for position in range(len(node.parent)):
        child = node.child(position, lower_tail)
        if child.lower_bound > threshold:
            pruned += 1
            continue
        children.append(child)
    return children, pruned
