"""Partial tree topologies for the branch-and-bound search.

A node of the branch-and-bound tree (BBT) is a *partial topology*: a
binary ultrametric tree over the first ``k`` species (in max-min order)
realised at minimal cost.  Branching grafts species ``k`` onto one of the
``2k - 1`` positions of the current tree -- every edge plus "above the
root" -- which generates the ``(2n - 3)!!`` topologies the papers count
(``A(20) > 10^21`` ...).

The implementation is flat-array based for speed: parallel lists for
parent/children/height, and a *bitmask* per node recording which species
sit below it, so the height constraints a new species imposes
(``height(LCA(new, old)) >= M[new, old] / 2``) can be pushed up the
insertion path in one walk.  The minimal-cost realization invariant is
maintained incrementally:

    height(v) = max(height(children), max{ M[i, j] / 2 : LCA(i, j) = v })
    omega(T)  = height(root) + sum of internal heights
"""

from __future__ import annotations

from typing import List, Sequence

from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = ["PartialTopology"]

_NO_NODE = -1


class PartialTopology:
    """A minimal-cost ultrametric realization of a partial leaf topology.

    Instances are created by :meth:`initial` (the two-leaf BBT root),
    :meth:`child` or :meth:`child_via_tables` (graft the next species)
    and :meth:`from_payload`; each sets every slot itself, with no
    constructor call.  They should be treated as immutable once created.
    ``half`` is the shared ``M / 2`` matrix as a list of row lists,
    indexed by species id after max-min relabeling.
    """

    __slots__ = (
        "half",
        "n",
        "num_leaves",
        "parent",
        "child_a",
        "child_b",
        "height",
        "leafset",
        "species",
        "leaf_of",
        "root",
        "internal_sum",
        "lower_bound",
    )

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, half: Sequence[Sequence[float]]) -> "PartialTopology":
        """The BBT root: the unique topology over species 0 and 1."""
        n = len(half)
        if n < 2:
            raise ValueError("a partial topology needs at least two species")
        topo = cls.__new__(cls)
        # Shared by reference: ``half`` is read-only search-context state
        # (see :func:`repro.bnb.bounds.search_context`); copying it here
        # was O(n^2) waste per solve.
        topo.half = half
        topo.n = n
        topo.num_leaves = 2
        h = float(half[0][1])
        # node 0 = leaf(species 0), node 1 = leaf(species 1), node 2 = root
        topo.parent = [2, 2, _NO_NODE]
        topo.child_a = [_NO_NODE, _NO_NODE, 0]
        topo.child_b = [_NO_NODE, _NO_NODE, 1]
        topo.height = [0.0, 0.0, h]
        topo.leafset = [1, 2, 3]
        topo.species = [0, 1, _NO_NODE]
        topo.leaf_of = [0, 1] + [_NO_NODE] * (n - 2)
        topo.root = 2
        topo.internal_sum = h
        topo.lower_bound = 0.0
        return topo

    # ------------------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        """All ``n`` species placed?"""
        return self.num_leaves == self.n

    @property
    def next_species(self) -> int:
        """The species the next branching step inserts."""
        return self.num_leaves

    @property
    def cost(self) -> float:
        """Minimal ultrametric cost of this (partial) topology."""
        return self.internal_sum + self.height[self.root]

    def num_positions(self) -> int:
        """Number of graft positions: ``2k - 1`` for ``k`` leaves."""
        return 2 * self.num_leaves - 1

    # ------------------------------------------------------------------
    def _max_half_distance(self, species: int, mask: int) -> float:
        """``max{ M[species, l] / 2 : l in mask }`` (0 for empty mask)."""
        row = self.half[species]
        best = 0.0
        while mask:
            low = mask & -mask
            d = row[low.bit_length() - 1]
            if d > best:
                best = d
            mask ^= low
        return best

    def child(self, position: int, lower_tail: float = 0.0) -> "PartialTopology":
        """Graft the next species at ``position`` and return the new node.

        ``position`` indexes an existing tree node ``c``: the new species
        is inserted on the edge above ``c`` (a new internal node adopts
        ``c`` and the new leaf); when ``c`` is the root the new internal
        node becomes the new root.  ``lower_tail`` is the precomputed
        lower-bound completion for the *remaining* species (see
        :mod:`repro.bnb.bounds`); the child's ``lower_bound`` is set to
        ``cost + lower_tail``.
        """
        s = self.next_species
        if s >= self.n:
            raise ValueError("topology is already complete")
        c = position
        if not 0 <= c < len(self.parent):
            raise ValueError(f"position {position} out of range")

        clone = PartialTopology.__new__(PartialTopology)
        clone.half = self.half
        clone.n = self.n
        clone.num_leaves = self.num_leaves + 1
        clone.parent = list(self.parent)
        clone.child_a = list(self.child_a)
        clone.child_b = list(self.child_b)
        clone.height = list(self.height)
        clone.leafset = list(self.leafset)
        clone.species = list(self.species)
        clone.leaf_of = list(self.leaf_of)
        clone.root = self.root
        clone.internal_sum = self.internal_sum

        bit = 1 << s
        leaf_idx = len(clone.parent)
        internal_idx = leaf_idx + 1

        # New leaf node for species s.
        clone.parent.append(internal_idx)
        clone.child_a.append(_NO_NODE)
        clone.child_b.append(_NO_NODE)
        clone.height.append(0.0)
        clone.leafset.append(bit)
        clone.species.append(s)
        clone.leaf_of[s] = leaf_idx

        # New internal node u adopting c and the new leaf.
        old_mask_c = clone.leafset[c]
        h_u = max(clone.height[c], self._max_half_distance(s, old_mask_c))
        clone.parent.append(clone.parent[c])
        clone.child_a.append(c)
        clone.child_b.append(leaf_idx)
        clone.height.append(h_u)
        clone.leafset.append(old_mask_c | bit)
        clone.species.append(_NO_NODE)
        clone.internal_sum += h_u

        p = clone.parent[c]
        clone.parent[c] = internal_idx
        if p == _NO_NODE:
            clone.root = internal_idx
        else:
            if clone.child_a[p] == c:
                clone.child_a[p] = internal_idx
            else:
                clone.child_b[p] = internal_idx
            # Push the new species' constraints up the path to the root.
            below_mask = old_mask_c  # leaves already charged to h_u
            child_height = h_u
            node = p
            while node != _NO_NODE:
                other = clone.leafset[node] & ~below_mask
                required = self._max_half_distance(s, other)
                new_height = clone.height[node]
                if child_height > new_height:
                    new_height = child_height
                if required > new_height:
                    new_height = required
                if new_height != clone.height[node]:
                    clone.internal_sum += new_height - clone.height[node]
                    clone.height[node] = new_height
                below_mask = clone.leafset[node]
                clone.leafset[node] |= bit
                child_height = clone.height[node]
                node = clone.parent[node]

        clone.lower_bound = clone.cost + lower_tail
        return clone

    def child_via_tables(
        self, position: int, g: Sequence[float], lower_tail: float = 0.0
    ) -> "PartialTopology":
        """Graft the next species at ``position`` using kernel tables.

        ``g`` is the per-node propagation table from
        :meth:`repro.bnb.kernel.BranchKernel.evaluate`:
        ``g[v] = max(height[v], max(M[s, l] / 2 for leaf l below v))``
        for the species ``s`` being inserted.  The result is field-for-
        field identical to :meth:`child` (heights bit-exact; see the
        kernel module docstring for the proof), but each ancestor step is
        O(1) instead of a bitmask walk -- the table already holds every
        max-half-distance the walk would recompute.
        """
        s = self.next_species
        if s >= self.n:
            raise ValueError("topology is already complete")
        c = position
        if not 0 <= c < len(self.parent):
            raise ValueError(f"position {position} out of range")

        clone = PartialTopology.__new__(PartialTopology)
        clone.half = self.half
        clone.n = self.n
        clone.num_leaves = self.num_leaves + 1
        clone.parent = list(self.parent)
        clone.child_a = list(self.child_a)
        clone.child_b = list(self.child_b)
        clone.height = list(self.height)
        clone.leafset = list(self.leafset)
        clone.species = list(self.species)
        clone.leaf_of = list(self.leaf_of)
        clone.root = self.root
        clone.internal_sum = self.internal_sum

        bit = 1 << s
        leaf_idx = len(clone.parent)
        internal_idx = leaf_idx + 1

        clone.parent.append(internal_idx)
        clone.child_a.append(_NO_NODE)
        clone.child_b.append(_NO_NODE)
        clone.height.append(0.0)
        clone.leafset.append(bit)
        clone.species.append(s)
        clone.leaf_of[s] = leaf_idx

        # h_u = max(height[c], maxhalf[c]) = g[c].
        h_u = float(g[c])
        clone.parent.append(clone.parent[c])
        clone.child_a.append(c)
        clone.child_b.append(leaf_idx)
        clone.height.append(h_u)
        clone.leafset.append(clone.leafset[c] | bit)
        clone.species.append(_NO_NODE)
        clone.internal_sum += h_u

        p = clone.parent[c]
        clone.parent[c] = internal_idx
        if p == _NO_NODE:
            clone.root = internal_idx
        else:
            if clone.child_a[p] == c:
                clone.child_a[p] = internal_idx
            else:
                clone.child_b[p] = internal_idx
            child_height = h_u
            node = p
            while node != _NO_NODE:
                # max(old, child, required-over-other) == max(child, g)
                # because child_height covers the leaves g's max adds.
                new_height = float(g[node])
                if child_height > new_height:
                    new_height = child_height
                if new_height != clone.height[node]:
                    clone.internal_sum += new_height - clone.height[node]
                    clone.height[node] = new_height
                clone.leafset[node] |= bit
                child_height = new_height
                node = clone.parent[node]

        clone.lower_bound = clone.cost + lower_tail
        return clone

    # ------------------------------------------------------------------
    def to_payload(self) -> tuple:
        """Compact picklable state *excluding* the shared ``half`` matrix.

        Workers and the master both hold ``half`` already, so shipping a
        topology across a process boundary only needs the flat arrays.
        Heights travel as native floats (bit-exact through pickle), which
        is what lets the multiprocess engine assert the re-materialised
        tree's cost equals the reported cost to 1e-9.
        """
        return (
            self.n,
            self.num_leaves,
            list(self.parent),
            list(self.child_a),
            list(self.child_b),
            list(self.height),
            list(self.leafset),
            list(self.species),
            list(self.leaf_of),
            self.root,
            self.internal_sum,
            self.lower_bound,
        )

    @classmethod
    def from_payload(
        cls, payload: tuple, half: Sequence[Sequence[float]]
    ) -> "PartialTopology":
        """Rebuild a topology from :meth:`to_payload` plus the shared
        ``M / 2`` matrix (inverse of :meth:`to_payload`, bit-exact)."""
        topo = cls.__new__(cls)
        (
            topo.n,
            topo.num_leaves,
            topo.parent,
            topo.child_a,
            topo.child_b,
            topo.height,
            topo.leafset,
            topo.species,
            topo.leaf_of,
            topo.root,
            topo.internal_sum,
            topo.lower_bound,
        ) = payload
        # Shared by reference, like :meth:`initial`: the multiprocess
        # master re-materialises one payload per worker result, and each
        # deep copy of ``half`` was O(n^2) for no benefit -- the matrix
        # is read-only throughout the search.
        topo.half = half
        return topo

    # ------------------------------------------------------------------
    def lca_node(self, species_a: int, species_b: int) -> int:
        """Index of the LCA node of two *placed* species."""
        leaf = self.leaf_of[species_a]
        if leaf == _NO_NODE or self.leaf_of[species_b] == _NO_NODE:
            raise ValueError("both species must be placed")
        bit = 1 << species_b
        node = leaf
        while not self.leafset[node] & bit:
            node = self.parent[node]
            if node == _NO_NODE:  # pragma: no cover - leaves share a root
                raise RuntimeError("species not connected")
        return node

    def lca_height(self, species_a: int, species_b: int) -> float:
        """Height of the LCA of two placed species."""
        return self.height[self.lca_node(species_a, species_b)]

    # ------------------------------------------------------------------
    def to_tree(self, labels: Sequence[str]) -> UltrametricTree:
        """Materialise as an :class:`UltrametricTree` with species names."""

        leaves: List[TreeNode] = []

        def build(index: int) -> TreeNode:
            if self.species[index] != _NO_NODE:
                leaf = TreeNode(0.0, label=labels[self.species[index]])
                leaves.append(leaf)
                return leaf
            return TreeNode(
                self.height[index],
                [build(self.child_a[index]), build(self.child_b[index])],
            )

        return UltrametricTree.over_leaves(build(self.root), leaves)

    def signature(self) -> tuple:
        """A hashable canonical form of the topology (tests/dedup).

        Each subtree maps to a sorted tuple of its children signatures,
        so two topologies over the same species compare equal exactly when
        they are the same unordered tree.
        """

        def sig(index: int):
            if self.species[index] != _NO_NODE:
                return self.species[index]
            a = sig(self.child_a[index])
            b = sig(self.child_b[index])
            return (a, b) if repr(a) <= repr(b) else (b, a)

        return sig(self.root)

    def __repr__(self) -> str:
        return (
            f"PartialTopology(k={self.num_leaves}/{self.n}, "
            f"cost={self.cost:.4g}, lb={self.lower_bound:.4g})"
        )
