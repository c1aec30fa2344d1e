"""Branch-and-bound construction of minimum ultrametric trees.

This package is Algorithm BBU of Wu, Chao & Tang (1999) as both papers
describe it: species are relabelled into max-min order, the root of the
branch-and-bound tree (BBT) is the unique two-leaf topology, UPGMM seeds
the upper bound, and each BBT node branches by grafting the next species
onto every edge of the current topology (plus above the root).  Lower
bounds prune; the optional 3-3 relationship constraint prunes further.
"""

from repro.bnb.topology import PartialTopology
from repro.bnb.kernel import BranchEvaluation, BranchKernel, expand_positions
from repro.bnb.bounds import (
    LOWER_BOUNDS,
    half_matrix,
    minfront_tails,
    minlink_tails,
    search_context,
)
from repro.bnb.search import SearchCore
from repro.bnb.sequential import (
    BranchAndBoundSolver,
    BBUResult,
    SearchStats,
    exact_mut,
)
from repro.bnb.relationship import triple_is_consistent
from repro.bnb.enumeration import (
    count_topologies,
    enumerate_topologies,
    brute_force_mut,
)

__all__ = [
    "PartialTopology",
    "BranchEvaluation",
    "BranchKernel",
    "expand_positions",
    "LOWER_BOUNDS",
    "half_matrix",
    "minfront_tails",
    "minlink_tails",
    "search_context",
    "SearchCore",
    "BranchAndBoundSolver",
    "BBUResult",
    "SearchStats",
    "exact_mut",
    "triple_is_consistent",
    "count_topologies",
    "enumerate_topologies",
    "brute_force_mut",
]
