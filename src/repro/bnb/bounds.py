"""Lower bounds for the branch-and-bound search.

For a BBT node ``v`` whose partial topology places the first ``k``
species (max-min order), any complete ultrametric tree below ``v`` costs
at least

    LB(v) = omega(T_v) + tail(k)

where ``tail(k)`` charges every still-unplaced species for the pendant
edge it must eventually contribute.  Peeling leaves off a complete tree in
reverse insertion order shows that species ``j`` contributes an edge of
length at least ``min_{i < j} M[i, j] / 2`` (its sibling subtree at
removal time only contains earlier species), giving the *minfront* tail --
the bound of Wu, Chao & Tang that both papers use.  Two weaker tails are
provided for the ablation study:

* ``trivial``  -- ``tail = 0`` (prune on realised cost only);
* ``minlink``  -- charge ``min_{l != j} M[j, l] / 2`` (valid but smaller);
* ``minfront`` -- the paper's bound (default).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "half_matrix",
    "trivial_tails",
    "minlink_tails",
    "minfront_tails",
    "LOWER_BOUNDS",
    "search_context",
]

#: A distance matrix as row lists (``DistanceMatrix.values.tolist()``).
#: Everything here works on plain rows, which is what
#: :class:`~repro.bnb.search.SearchCore` builds its whole setup from.
Rows = Sequence[Sequence[float]]


def half_matrix(rows: Rows) -> List[List[float]]:
    """``M / 2`` as plain row lists (fast scalar access in the hot loop)."""
    return [[x * 0.5 for x in row] for row in rows]


def trivial_tails(rows: Rows) -> List[float]:
    """``tail(k) = 0`` for every level: no look-ahead at all."""
    return [0.0] * (len(rows) + 1)


def _suffix_sums(per_species: Sequence[float], n: int) -> List[float]:
    tails = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = tails[k + 1] + per_species[k]
    return tails


def minlink_tails(rows: Rows) -> List[float]:
    """Charge each unplaced species half its minimum link to *anyone*.

    ``tail(k) = sum_{j >= k} min_{l != j} M[j, l] / 2``.  Valid because a
    leaf's pendant edge is at least half its distance to some other leaf;
    weaker than :func:`minfront_tails` because the minimum ranges over all
    species instead of only the earlier ones.
    """
    n = len(rows)
    if n < 2:
        return [0.0] * (n + 1)
    per = [min(row[:j] + row[j + 1:]) / 2.0 for j, row in enumerate(rows)]
    # Species 0 and 1 are part of the initial topology; their pendant
    # edges are already inside omega(T_v) at every level >= 2, and tails
    # are only ever read at levels >= 2, so per-species values for 0 and 1
    # never contribute.  Keep them anyway for completeness of tail(0..1).
    return _suffix_sums(per, n)


def minfront_tails(rows: Rows) -> List[float]:
    """The Wu-Chao-Tang bound: charge half the min distance to earlier species.

    ``tail(k) = sum_{j >= k} min_{i < j} M[i, j] / 2`` with the ``j = 0``
    term defined as 0.  Requires the matrix to already be in the insertion
    (max-min) order the solver will use.
    """
    n = len(rows)
    per = [0.0] * n
    for j, column in enumerate(zip(*rows)):
        if j:
            per[j] = min(column[:j]) / 2.0
    return _suffix_sums(per, n)


#: Registry used by the solver and the bound ablation benchmark.
LOWER_BOUNDS: Dict[str, Callable[[Rows], List[float]]] = {
    "trivial": trivial_tails,
    "minlink": minlink_tails,
    "minfront": minfront_tails,
}


def search_context(
    rows: Rows, lower_bound: str = "minfront"
) -> Tuple[List[List[float]], List[float]]:
    """``(half_matrix, tails)`` for ``rows``: the bound state of a search.

    ``lower_bound`` names an entry of :data:`LOWER_BOUNDS`.  This is the
    one place :class:`~repro.bnb.search.SearchCore` takes its bounds
    from.  Callers must treat the returned lists as read-only:
    :class:`~repro.bnb.topology.PartialTopology` shares ``half`` by
    reference.
    """
    if lower_bound not in LOWER_BOUNDS:
        raise ValueError(
            f"unknown lower bound {lower_bound!r}; "
            f"choose from {sorted(LOWER_BOUNDS)}"
        )
    return half_matrix(rows), LOWER_BOUNDS[lower_bound](rows)
