"""Exact search-statistics pins for the sequential solver.

Every :class:`~repro.bnb.sequential.SearchStats` field except the wall
time is pinned for two seeded integer matrices (both with UPGMM seeds
the search improves on, and with tied optima) across the solver's
search options, including the two weaker lower bounds and the search
without a max-min order.  Node counts, incumbent updates and the open-list peak
all follow from the exact order in which the search expands and prunes,
so any change to that order -- in the expansion step, the 3-3 filter,
the bound cut or the DFS frontier -- fails here, not just a change of
optimum.
"""

import dataclasses

import pytest

from repro.bnb.sequential import BranchAndBoundSolver
from repro.matrix.generators import random_metric_matrix

MATRICES = {
    "random11s1": lambda: random_metric_matrix(11, seed=1),
    "random12s24": lambda: random_metric_matrix(12, seed=24),
}

OPTIONS = {
    "kernel": {},
    "scalar": {"use_kernel": False},
    "relationship_33": {"relationship_33": True},
    "enforce_all_33": {"enforce_all_33": True},
    "collect_all": {"collect_all": True},
    "collect_all_scalar": {"collect_all": True, "use_kernel": False},
    "node_limit": {"node_limit": 30},
    "trivial_bound": {"lower_bound": "trivial"},
    "minlink_bound": {"lower_bound": "minlink"},
    "no_maxmin": {"use_maxmin": False},
}

FIELDS = (
    "nodes_created", "nodes_expanded", "nodes_pruned", "nodes_filtered_33",
    "ub_updates", "initial_upper_bound", "best_cost", "max_open_size",
    "node_limit_hit",
)

#: (matrix, options) -> (FIELDS values..., len(all_trees))
PINS = {
    ("random11s1", "kernel"): (1381, 116, 1262, 0, 2, 108.5, 105.5, 23, False, 0),
    ("random11s1", "scalar"): (1381, 116, 1262, 0, 2, 108.5, 105.5, 23, False, 0),
    ("random11s1", "relationship_33"): (1276, 103, 1168, 2, 2, 108.5, 105.5, 21, False, 0),
    ("random11s1", "enforce_all_33"): (25, 4, 9, 12, 0, 108.5, 108.5, 1, False, 0),
    ("random11s1", "collect_all"): (1852, 149, 1696, 0, 2, 108.5, 105.5, 27, False, 3),
    ("random11s1", "collect_all_scalar"): (1852, 149, 1696, 0, 2, 108.5, 105.5, 27, False, 3),
    ("random11s1", "node_limit"): (333, 30, 297, 0, 0, 108.5, 108.5, 14, True, 0),
    ("random11s1", "trivial_bound"): (15323, 1164, 14156, 0, 2, 108.5, 105.5, 40, False, 0),
    ("random11s1", "minlink_bound"): (2771, 236, 2532, 0, 2, 108.5, 105.5, 33, False, 0),
    ("random11s1", "no_maxmin"): (8188008, 457251, 7730755, 0, 2, 108.5, 105.5, 73, False, 0),
    ("random12s24", "kernel"): (813, 56, 751, 0, 5, 229.5, 225.0, 13, False, 0),
    ("random12s24", "scalar"): (813, 56, 751, 0, 5, 229.5, 225.0, 13, False, 0),
    ("random12s24", "relationship_33"): (319, 24, 291, 1, 2, 229.5, 226.5, 12, False, 0),
    ("random12s24", "enforce_all_33"): (9, 2, 3, 4, 0, 229.5, 229.5, 1, False, 0),
    ("random12s24", "collect_all"): (951, 64, 874, 0, 5, 229.5, 225.0, 13, False, 3),
    ("random12s24", "collect_all_scalar"): (951, 64, 874, 0, 5, 229.5, 225.0, 13, False, 3),
    ("random12s24", "node_limit"): (377, 30, 340, 0, 2, 229.5, 226.5, 13, True, 0),
    ("random12s24", "trivial_bound"): (38853, 2896, 35951, 0, 5, 229.5, 225.0, 45, False, 0),
    ("random12s24", "minlink_bound"): (6241, 526, 5709, 0, 5, 229.5, 225.0, 32, False, 0),
    ("random12s24", "no_maxmin"): (1995509, 110586, 1884920, 0, 3, 229.5, 225.0, 67, False, 0),
}


@pytest.mark.parametrize("matrix_name, option_name", sorted(PINS))
def test_search_stats_pinned(matrix_name, option_name):
    result = BranchAndBoundSolver(**OPTIONS[option_name]).solve(
        MATRICES[matrix_name]()
    )
    stats = dataclasses.asdict(result.stats)
    got = tuple(stats[name] for name in FIELDS) + (len(result.all_trees),)
    assert got == PINS[matrix_name, option_name]
    assert result.optimal == (not result.stats.node_limit_hit)
