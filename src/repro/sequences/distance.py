"""Pairwise sequence distances.

Both papers take "the edit distance for any two of species" as the matrix
entry.  We implement that plus the two distances biologists actually
favour for aligned mitochondrial data:

* **p-distance** -- the fraction (or count) of differing sites;
* **Jukes-Cantor distance** -- the p-distance corrected for multiple
  hits, ``-3/4 ln(1 - 4p/3)``;
* **edit distance** -- Levenshtein DP for unaligned sequences.

p-distance and edit distance are metrics outright; the Jukes-Cantor
correction can break the triangle inequality, so the matrix builder
finishes with a shortest-path closure.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.repair import metric_closure

__all__ = [
    "p_distance",
    "jukes_cantor_distance",
    "edit_distance",
    "distance_matrix_from_sequences",
    "saturated_pairs",
    "resolve_method",
    "SATURATION_THRESHOLD",
]

#: p-distance at or above this is "saturated": the Jukes-Cantor
#: correction diverges and the site signal is mostly noise.
SATURATION_THRESHOLD = 0.75


def p_distance(a: str, b: str, *, normalized: bool = True) -> float:
    """Hamming distance between equal-length sequences.

    With ``normalized`` (default) the result is the differing fraction of
    sites; otherwise the raw count.
    """
    if len(a) != len(b):
        raise ValueError(
            f"p-distance needs aligned sequences (lengths {len(a)} vs {len(b)})"
        )
    if not a:
        return 0.0
    diff = sum(1 for x, y in zip(a, b) if x != y)
    return diff / len(a) if normalized else float(diff)


def jukes_cantor_distance(a: str, b: str) -> float:
    """Jukes-Cantor corrected distance between aligned sequences.

    ``d = -3/4 * ln(1 - 4p/3)`` where ``p`` is the p-distance.  For
    ``p >= 3/4`` (saturation) the correction diverges; we clamp to the
    value at ``p = 0.749`` so the matrix stays finite, which is the usual
    software convention.
    """
    return _jukes_cantor(p_distance(a, b))


def _jukes_cantor(p: float) -> float:
    cap = 0.749
    if p >= 0.75:
        p = cap
    return -0.75 * math.log(1.0 - 4.0 * p / 3.0)


def edit_distance(a: str, b: str, *, band: Optional[int] = None) -> int:
    """Levenshtein distance with an optional diagonal band.

    The banded variant (``band`` = maximum explored diagonal offset)
    matches how large mitochondrial sequences are compared in practice;
    it returns the exact distance whenever that distance is at most
    ``band``.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    n, m = len(a), len(b)
    if band is None:
        previous = list(range(m + 1))
        for i in range(1, n + 1):
            current = [i] + [0] * m
            ai = a[i - 1]
            for j in range(1, m + 1):
                cost = 0 if ai == b[j - 1] else 1
                current[j] = min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + cost,
                )
            previous = current
        return previous[m]

    if band < abs(n - m):
        band = abs(n - m)
    infinity = n + m
    previous = {j: j for j in range(0, min(m, band) + 1)}
    for i in range(1, n + 1):
        current: Dict[int, int] = {}
        lo = max(0, i - band)
        hi = min(m, i + band)
        for j in range(lo, hi + 1):
            if j == 0:
                current[j] = i
                continue
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = previous.get(j - 1, infinity) + cost
            up = previous.get(j, infinity) + 1
            left = current.get(j - 1, infinity) + 1
            current[j] = min(best, up, left)
        previous = current
    return previous.get(m, infinity)


_METHODS = ("p", "p-count", "jukes-cantor", "edit")

#: Short spellings accepted everywhere a distance method is named.
_ALIASES = {"jc": "jukes-cantor", "levenshtein": "edit", "hamming": "p-count"}


def resolve_method(method: str) -> str:
    """Canonicalise a distance-method name (``"jc"`` -> ``"jukes-cantor"``).

    Raises ``ValueError`` for names that are neither canonical nor an
    alias, listing the canonical choices.
    """
    canonical = _ALIASES.get(method, method)
    if canonical not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(_METHODS)}"
        )
    return canonical


def saturated_pairs(
    sequences: Mapping[str, str],
    *,
    order: Optional[Sequence[str]] = None,
    threshold: float = SATURATION_THRESHOLD,
) -> list:
    """Aligned label pairs whose p-distance is at or past saturation.

    Returns ``[(label_a, label_b, p), ...]`` for every unordered pair
    with ``p >= threshold``.  At such divergence the Jukes-Cantor
    correction has blown up (we clamp it) and even the raw p-distance
    carries little phylogenetic signal, so the ingestion pipeline flags
    -- but does not reject -- these pairs in its manifest.
    """
    labels = list(order) if order is not None else sorted(sequences)
    seqs = [sequences[name] for name in labels]
    p = _p_distances(seqs, _mismatch_counts(seqs))
    return _flag_saturated(labels, p, threshold)


def _mismatch_counts(seqs: Sequence[str]) -> np.ndarray:
    """Symmetric ``(n, n)`` integer matrix of Hamming counts.

    The sequences are encoded once as an ``(n, L)`` array of UTF-32
    code points, so the comparison is exact for any string, and each
    row costs one vectorised comparison against the rows below it.
    Raises the same ``ValueError`` as :func:`p_distance` on the first
    pair whose lengths differ.
    """
    n = len(seqs)
    length = len(seqs[0]) if n else 0
    for seq in seqs:
        if len(seq) != length:
            raise ValueError(
                "p-distance needs aligned sequences "
                f"(lengths {length} vs {len(seq)})"
            )
    counts = np.zeros((n, n), dtype=np.int64)
    if n < 2 or length == 0:
        return counts
    joined = "".join(seqs).encode("utf-32-le", "surrogatepass")
    codes = np.frombuffer(joined, dtype="<u4").reshape(n, length)
    for i in range(n - 1):
        row = np.count_nonzero(codes[i + 1 :] != codes[i], axis=1)
        counts[i, i + 1 :] = row
        counts[i + 1 :, i] = row
    return counts


def _p_distances(seqs: Sequence[str], counts: np.ndarray) -> np.ndarray:
    """Counts as differing fractions; empty sequences are 0 apart."""
    length = len(seqs[0]) if seqs else 0
    return counts / length if length else np.zeros(counts.shape)


def _flag_saturated(
    labels: Sequence[str], p: np.ndarray, threshold: float
) -> list:
    rows = p.tolist()
    return [
        (a, labels[j], rows[i][j])
        for i, a in enumerate(labels)
        for j in range(i + 1, len(labels))
        if rows[i][j] >= threshold
    ]


def _pairwise_values(
    seqs: Sequence[str],
    method: str,
    scale: float,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The raw ``(n, n)`` matrix for a canonical ``method``.

    The Hamming-based methods read ``counts`` (computed here when not
    given); Jukes-Cantor applies the scalar correction entry by entry,
    so every value matches :func:`jukes_cantor_distance` to the bit.
    """
    n = len(seqs)
    if method == "edit":
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d = float(edit_distance(seqs[i], seqs[j])) * scale
                values[i, j] = values[j, i] = d
        return values
    if counts is None:
        counts = _mismatch_counts(seqs)
    if method == "p-count":
        values = counts.astype(float) * scale
    elif method == "p":
        values = _p_distances(seqs, counts) * scale
    else:
        corrected = [
            [_jukes_cantor(p) for p in row]
            for row in _p_distances(seqs, counts).tolist()
        ]
        values = np.array(corrected, dtype=float).reshape(n, n) * scale
    np.fill_diagonal(values, 0.0)
    return values


def _matrix_and_saturation(
    sequences: Mapping[str, str], *, method: str, scale: float, aligned: bool
) -> Tuple[DistanceMatrix, list]:
    """The raw matrix over sorted labels plus :func:`saturated_pairs`.

    ``method`` is canonical and ``aligned`` says whether all lengths
    agree; the caller has already checked both.  One mismatch-count
    pass feeds the matrix and the flags.  Saturation is only defined
    for aligned input, so unaligned input (``edit``) flags nothing.
    """
    labels = sorted(sequences)
    seqs = [sequences[name] for name in labels]
    counts = _mismatch_counts(seqs) if aligned else None
    values = _pairwise_values(seqs, method, scale, counts)
    matrix = DistanceMatrix(values, labels, validate=False)
    if not aligned:
        return matrix, []
    p = _p_distances(seqs, counts)
    return matrix, _flag_saturated(labels, p, SATURATION_THRESHOLD)


def distance_matrix_from_sequences(
    sequences: Mapping[str, str],
    *,
    method: str = "p-count",
    scale: float = 1.0,
    order: Optional[Sequence[str]] = None,
    repair: bool = True,
) -> DistanceMatrix:
    """Build a :class:`DistanceMatrix` from labelled sequences.

    ``method`` is one of ``"p"``, ``"p-count"``, ``"jukes-cantor"`` or
    ``"edit"`` (aliases ``"jc"``, ``"levenshtein"``, ``"hamming"``);
    ``scale`` multiplies every entry (the papers work with integer-ish
    distances, so scaling a p-distance by the sequence length or by 100
    keeps the numbers in their range).  With ``repair`` (the default)
    the result is run through a metric closure so downstream solvers
    always see a metric; ``repair=False`` returns the raw pairwise
    matrix so callers -- the ingestion pipeline's repair stage -- can
    measure how much the closure perturbs it.
    """
    method = resolve_method(method)
    labels = list(order) if order is not None else sorted(sequences)
    missing = [name for name in labels if name not in sequences]
    if missing:
        raise KeyError(f"sequences missing for {missing}")
    seqs = [sequences[name] for name in labels]
    values = _pairwise_values(seqs, method, scale)
    raw = DistanceMatrix(values, labels, validate=False)
    return metric_closure(raw) if repair else raw
