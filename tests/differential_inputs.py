"""Matrices for the differential tests of the per-search setup.

The row-list max-min order, bounds and UPGMM seed must match the NumPy
code they replaced bit for bit, so the inputs cover what breaks ties
differently: integer distances, heavy ties (values 1..3), an all-zero
matrix, continuous distances, and matrices that are symmetric only
within the validation tolerance (``M[i, j] != M[j, i]`` by < 1e-9), at
2-10 species and at 20, 35 and 51.

:func:`nested_chain` is the deepest compact-set hierarchy there is: one
compact set per size, ``{0, 1} < {0, 1, 2} < ...``.
"""

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix


def _near_symmetric(n, seed):
    base = random_metric_matrix(n, seed=seed, low=1, high=3).values
    noise = np.random.default_rng(seed).uniform(-4e-10, 4e-10, size=(n, n))
    np.fill_diagonal(noise, 0.0)
    return DistanceMatrix(base + noise)


def nested_chain(n):
    """``M[i, j] = max(i, j) + 1``: its hierarchy is ``n - 1`` levels deep."""
    index = np.arange(n)
    values = np.maximum.outer(index, index) + 1.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values)


def _families():
    yield "zeros4", DistanceMatrix(np.zeros((4, 4)))
    for n in range(2, 11):
        for seed in range(3):
            yield f"int{n}s{seed}", random_metric_matrix(n, seed=seed)
            yield f"float{n}s{seed}", random_metric_matrix(
                n, seed=seed, integer=False
            )
            yield f"ties{n}s{seed}", random_metric_matrix(
                n, seed=seed, low=1, high=3
            )
            yield f"asym{n}s{seed}", _near_symmetric(n, seed)
    for n in (20, 35, 51):
        yield f"int{n}", random_metric_matrix(n, seed=n)
        yield f"float{n}", random_metric_matrix(n, seed=n, integer=False)
        yield f"ties{n}", random_metric_matrix(n, seed=n, low=1, high=3)
        yield f"asym{n}", _near_symmetric(n, n)


#: ``(name, matrix)`` pairs; use the names as test ids.
DIFFERENTIAL_MATRICES = list(_families())
