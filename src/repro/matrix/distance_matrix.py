"""The :class:`DistanceMatrix` container.

A distance matrix is the paper's only input model (PaCT 2005, Figure 1): a
symmetric ``n x n`` matrix with a zero diagonal whose entry ``M[i, j]`` is
the evolutionary distance between species ``i`` and ``j``.  The class wraps
a ``numpy`` array, carries optional species labels, and implements the
predicates of Definitions 1-3 of the companion paper:

* *distance matrix*  -- symmetric, non-negative, zero diagonal;
* *metric*           -- additionally satisfies the triangle inequality;
* *ultrametric*      -- ``M[i, j] <= max(M[i, k], M[j, k])`` for all triples.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["DistanceMatrix", "MatrixValidationError"]

#: Numerical slack used by the validation predicates.  Distances in the
#: paper are small integers, but our generators produce floats.
DEFAULT_TOLERANCE = 1e-9

Key = Union[int, str]


class MatrixValidationError(ValueError):
    """Raised when a matrix fails a structural validation check."""


class DistanceMatrix:
    """A symmetric species-by-species distance matrix.

    Parameters
    ----------
    values:
        Square array-like of distances.  Copied, stored as ``float64`` and
        frozen: the stored array is marked read-only, so the matrix is
        immutable after construction.  :meth:`digest` is memoised and
        content-addressed result caches key on it, so a matrix whose
        entries changed in place would be served a stale result; any
        attempted write to :attr:`values` raises instead.
    labels:
        Optional species names; defaults to ``"s0", "s1", ...``.
    validate:
        When true (the default), reject inputs that are not valid distance
        matrices (non-square, asymmetric, negative entries, non-zero
        diagonal).  Metricity is *not* enforced here -- use
        :meth:`require_metric` -- because several intermediate products of
        the pipeline (e.g. *minimum* reduced matrices) are legitimately
        non-metric.
    """

    def __init__(
        self,
        values: Iterable[Iterable[float]],
        labels: Optional[Sequence[str]] = None,
        *,
        validate: bool = True,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        # One copy, also for list input: the stored array never aliases
        # the caller's.
        array = np.array(values, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise MatrixValidationError(
                f"distance matrix must be square, got shape {array.shape}"
            )
        # Freeze: the memoised digest depends on the values never
        # changing after construction.
        array.setflags(write=False)
        self._values = array
        self._tolerance = float(tolerance)
        if labels is None:
            labels = [f"s{i}" for i in range(array.shape[0])]
        labels = list(labels)
        if len(labels) != array.shape[0]:
            raise MatrixValidationError(
                f"{len(labels)} labels for a {array.shape[0]}-species matrix"
            )
        if len(set(labels)) != len(labels):
            raise MatrixValidationError("species labels must be unique")
        self._labels: List[str] = labels
        self._index = {name: i for i, name in enumerate(labels)}
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of species."""
        return self._values.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def values(self) -> np.ndarray:
        """The underlying ``(n, n)`` float array.

        Not a copy: the array is shared but frozen
        (``writeable=False``), so in-place mutation raises a numpy
        ``ValueError``.  Build a new :class:`DistanceMatrix` to change
        distances.
        """
        return self._values

    @property
    def labels(self) -> List[str]:
        """Species names, in index order."""
        return list(self._labels)

    def index_of(self, key: Key) -> int:
        """Resolve a species label (or pass through an integer index)."""
        if isinstance(key, str):
            try:
                return self._index[key]
            except KeyError:
                raise KeyError(f"unknown species label {key!r}") from None
        return int(key)

    def __getitem__(self, pair: Tuple[Key, Key]) -> float:
        i, j = pair
        return float(self._values[self.index_of(i), self.index_of(j)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash
        return id(self)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, labels={self._labels[:4]}...)"

    def digest(self) -> str:
        """Content address of the matrix: a sha256 hex digest.

        Covers the shape, the labels (length-prefixed, so ``["ab", "c"]``
        and ``["a", "bc"]`` differ) and the raw little-endian float64
        entries.  Two matrices have equal digests exactly when ``==``
        holds, so the digest is a safe cache key across processes and
        restarts (unlike ``hash()``, which is identity-based).  Computed
        lazily and memoised: the values array is frozen, so the digest
        can never go stale.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            h = hashlib.sha256()
            h.update(b"repro.DistanceMatrix.v1\x00")
            h.update(str(self.n).encode("ascii"))
            for label in self._labels:
                raw = label.encode("utf-8")
                h.update(str(len(raw)).encode("ascii") + b":" + raw)
            h.update(b"\x00values\x00")
            h.update(np.ascontiguousarray(self._values, dtype="<f8").tobytes())
            cached = self._digest = h.hexdigest()
        return cached

    # ------------------------------------------------------------------
    # validation predicates (Definitions 1-3)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the Definition-1 structural requirements.

        Raises :class:`MatrixValidationError` on the first violation found.
        Each rule is one array reduction; once every entry is finite, the
        symmetry rule is exactly ``np.allclose(v, v.T, atol=tol, rtol=0)``.
        """
        tol = self._tolerance
        v = self._values
        if not np.isfinite(v).all():
            raise MatrixValidationError("matrix contains non-finite entries")
        if (np.abs(v.diagonal()) > tol).any():
            raise MatrixValidationError("diagonal entries must be zero")
        if (v < -tol).any():
            raise MatrixValidationError("distances must be non-negative")
        if not (np.abs(v - v.T) <= tol).all():
            raise MatrixValidationError("matrix must be symmetric")

    def is_metric(self) -> bool:
        """Definition 2: does the matrix satisfy the triangle inequality?"""
        v = self._values
        tol = self._tolerance
        # M[i, k] <= M[i, j] + M[j, k] for all triples, vectorised: for
        # every j, the matrix of M[i, j] + M[j, k] must dominate M.
        for j in range(self.n):
            slack = v[:, j][:, None] + v[j, :][None, :] - v
            if np.any(slack < -tol):
                return False
        return True

    def require_metric(self) -> "DistanceMatrix":
        """Return ``self`` after asserting metricity."""
        if not self.is_metric():
            raise MatrixValidationError("matrix violates the triangle inequality")
        return self

    def is_ultrametric(self) -> bool:
        """Definition 3: ``M[i, j] <= max(M[i, k], M[j, k])`` for all triples.

        Equivalently, among the three pairwise distances of any triple the
        two largest are equal.
        """
        v = self._values
        tol = self._tolerance
        n = self.n
        for k in range(n):
            bound = np.maximum(v[:, k][:, None], v[k, :][None, :])
            mask = ~np.eye(n, dtype=bool)
            mask[:, k] = False
            mask[k, :] = False
            if np.any(v[mask] > bound[mask] + tol):
                return False
        return True

    # ------------------------------------------------------------------
    # derived matrices
    # ------------------------------------------------------------------
    def submatrix(self, keys: Sequence[Key]) -> "DistanceMatrix":
        """Restrict the matrix to ``keys`` (indices or labels), in order."""
        idx = [self.index_of(k) for k in keys]
        values = self._values[np.ix_(idx, idx)]
        labels = [self._labels[i] for i in idx]
        return DistanceMatrix(values, labels, validate=False)

    def relabeled(self, permutation: Sequence[int]) -> "DistanceMatrix":
        """Reorder species so that new position ``p`` holds old species
        ``permutation[p]`` (used to apply a max-min permutation)."""
        if sorted(permutation) != list(range(self.n)):
            raise MatrixValidationError(
                "relabeling requires a permutation of range(n)"
            )
        return self.submatrix(list(permutation))

    def with_labels(self, labels: Sequence[str]) -> "DistanceMatrix":
        """Return a copy of the matrix carrying new species names."""
        return DistanceMatrix(self._values, labels, validate=False)

    # ------------------------------------------------------------------
    # convenience queries used throughout the pipeline
    # ------------------------------------------------------------------
    def max_pair(self) -> Tuple[int, int, float]:
        """The farthest pair ``(i, j, distance)`` with ``i < j``."""
        if self.n < 2:
            raise MatrixValidationError("need at least two species")
        v = self._values
        iu = np.triu_indices(self.n, k=1)
        flat = int(np.argmax(v[iu]))
        i, j = int(iu[0][flat]), int(iu[1][flat])
        return i, j, float(v[i, j])

    def min_pair(self) -> Tuple[int, int, float]:
        """The closest distinct pair ``(i, j, distance)`` with ``i < j``."""
        if self.n < 2:
            raise MatrixValidationError("need at least two species")
        v = self._values
        iu = np.triu_indices(self.n, k=1)
        flat = int(np.argmin(v[iu]))
        i, j = int(iu[0][flat]), int(iu[1][flat])
        return i, j, float(v[i, j])

    def max_distance(self) -> float:
        """Largest pairwise distance in the matrix."""
        return self.max_pair()[2]

    def min_link(self, species: Key) -> float:
        """``min_j M[species, j]`` over all other species ``j``."""
        i = self.index_of(species)
        row = np.delete(self._values[i], i)
        return float(row.min()) if row.size else 0.0

    def pairs(self) -> Iterable[Tuple[int, int, float]]:
        """Iterate over all unordered pairs as ``(i, j, distance)``."""
        v = self._values
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j, float(v[i, j])
