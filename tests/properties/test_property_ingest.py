"""Property-based tests (hypothesis) for the ingestion distance layer.

The pipeline's correctness rests on three mathematical facts: sequence
distances are honest premetrics (symmetric, zero on the diagonal,
bounded), the Jukes-Cantor correction is a monotone transform of the
p-distance below saturation, and whatever matrix leaves the repair
stage satisfies the full metric axioms the compact-set construction
assumes.  Each gets a property here over hypothesis-generated inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matrix.distance_matrix import DistanceMatrix
from repro.sequences.distance import (
    SATURATION_THRESHOLD,
    distance_matrix_from_sequences,
    edit_distance,
    jukes_cantor_distance,
    p_distance,
    resolve_method,
    saturated_pairs,
)

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


@st.composite
def aligned_pairs(draw, min_length=1, max_length=40):
    length = draw(st.integers(min_length, max_length))
    fixed = st.text(alphabet="ACGT", min_size=length, max_size=length)
    return draw(fixed), draw(fixed)


@st.composite
def aligned_families(draw, min_n=3, max_n=6):
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(4, 30))
    fixed = st.text(alphabet="ACGT", min_size=length, max_size=length)
    seqs = draw(
        st.lists(fixed, min_size=n, max_size=n, unique=True)
    )
    return {f"s{i}": seq for i, seq in enumerate(seqs)}


class TestPremetricAxioms:
    @RELAXED
    @given(aligned_pairs())
    def test_p_distance_symmetric_bounded(self, pair):
        a, b = pair
        d = p_distance(a, b)
        assert d == p_distance(b, a)
        assert 0.0 <= d <= 1.0
        assert p_distance(a, a) == 0.0

    @RELAXED
    @given(dna, dna)
    def test_edit_distance_symmetric_bounded(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert 0 <= d <= max(len(a), len(b))
        assert edit_distance(a, a) == 0

    @RELAXED
    @given(dna, dna, dna)
    def test_edit_distance_triangle(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @RELAXED
    @given(aligned_pairs())
    def test_jc_symmetric_nonnegative(self, pair):
        a, b = pair
        d = jukes_cantor_distance(a, b)
        assert d == jukes_cantor_distance(b, a)
        assert d >= 0.0
        assert jukes_cantor_distance(a, a) == 0.0


class TestJukesCantor:
    def test_monotone_in_p_below_saturation(self):
        # JC is a closed-form monotone transform of p; check it on a
        # dense sweep right up to the saturation threshold.
        grid = np.linspace(0.0, SATURATION_THRESHOLD - 1e-6, 200)
        corrected = [
            -0.75 * math.log1p(-4.0 * p / 3.0) for p in grid
        ]
        assert all(b > a for a, b in zip(corrected, corrected[1:]))
        # And JC always dominates p (correction only stretches).
        assert all(c >= p for p, c in zip(grid, corrected))

    @RELAXED
    @given(aligned_pairs(min_length=8))
    def test_jc_dominates_p_on_sequences(self, pair):
        a, b = pair
        p = p_distance(a, b)
        if p >= SATURATION_THRESHOLD:
            return  # saturated: JC is undefined/clamped there
        assert jukes_cantor_distance(a, b) >= p

    @RELAXED
    @given(aligned_families())
    def test_saturated_pairs_agree_with_p_distance(self, family):
        order = sorted(family)
        flagged = saturated_pairs(family, order=order, threshold=0.5)
        expected = {
            (a, b)
            for i, a in enumerate(order)
            for b in order[i + 1:]
            if p_distance(family[a], family[b]) >= 0.5
        }
        assert {(a, b) for a, b, _ in flagged} == expected


class TestPipelineMatrix:
    @RELAXED
    @given(aligned_families(), st.sampled_from(["p", "jc", "edit"]))
    def test_repaired_matrix_is_metric(self, family, method):
        matrix = distance_matrix_from_sequences(
            family, method=resolve_method(method), repair=True
        )
        assert isinstance(matrix, DistanceMatrix)
        assert matrix.is_metric()
        np.testing.assert_allclose(matrix.values, matrix.values.T)
        assert np.all(np.diag(matrix.values) == 0.0)

    @RELAXED
    @given(aligned_families())
    def test_raw_vs_repaired_perturbation_is_bounded(self, family):
        raw = distance_matrix_from_sequences(family, method="p", repair=False)
        fixed = distance_matrix_from_sequences(family, method="p", repair=True)
        # Repair never moves an entry past the largest raw distance.
        assert np.max(np.abs(fixed.values - raw.values)) <= np.max(raw.values) + 1e-12

    @pytest.mark.parametrize("alias,canonical", [
        ("jc", "jukes-cantor"), ("levenshtein", "edit"), ("hamming", "p-count"),
        ("p", "p"), ("edit", "edit"),
    ])
    def test_method_aliases_resolve(self, alias, canonical):
        assert resolve_method(alias) == canonical

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            resolve_method("manhattan")


# ----------------------------------------------------------------------
# The matrix builder and saturated_pairs count mismatches with NumPy;
# these references are the pair-by-pair scalar loops they replaced, and
# every entry must agree to the bit.
# ----------------------------------------------------------------------
def reference_matrix(family, order, method, scale):
    fn = {
        "p": p_distance,
        "p-count": lambda a, b: p_distance(a, b, normalized=False),
        "jc": jukes_cantor_distance,
    }[method]
    n = len(order)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = fn(family[order[i]], family[order[j]]) * scale
            values[i, j] = values[j, i] = d
    return values


def reference_saturated(family, order, threshold):
    flagged = []
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            p = p_distance(family[a], family[b])
            if p >= threshold:
                flagged.append((a, b, p))
    return flagged


#: Lowercase, gaps, ambiguity codes and non-ASCII (including a
#: character outside the BMP): the count pass must compare code points
#: exactly, whatever the encoding.
SITES = "ACGTacgt-.Né中\U0001F9EC"


@st.composite
def mixed_families(draw, max_n=6, max_length=12):
    n = draw(st.integers(0, max_n))
    length = draw(st.integers(0, max_length))
    alphabet = draw(st.sampled_from(["AC", "ACGT", SITES]))
    fixed = st.text(alphabet=alphabet, min_size=length, max_size=length)
    seqs = draw(st.lists(fixed, min_size=n, max_size=n))
    return {f"s{i}": seq for i, seq in enumerate(seqs)}


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


class TestCountPassEquivalence:
    @RELAXED
    @given(
        mixed_families(),
        st.sampled_from(["p", "p-count", "jc"]),
        st.sampled_from([0.5, 3.0, 100.0, 1.0 / 3.0]),
        st.randoms(use_true_random=False),
    )
    def test_matrix_equals_scalar_loop(self, family, method, scale, rnd):
        order = sorted(family)
        rnd.shuffle(order)
        got = distance_matrix_from_sequences(
            family, method=method, scale=scale, order=order, repair=False
        )
        assert got.labels == order
        assert_bit_identical(
            got.values, reference_matrix(family, order, method, scale)
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("method", ["p", "p-count", "jc"])
    def test_small_and_empty_families(self, n, method):
        for length in (0, 5):
            family = {f"s{i}": "ACGTN"[i:] + "ACGTN"[:i] for i in range(n)}
            family = {k: v[:length] for k, v in family.items()}
            order = sorted(family)
            got = distance_matrix_from_sequences(
                family, method=method, scale=2.5, repair=False
            )
            assert_bit_identical(
                got.values, reference_matrix(family, order, method, 2.5)
            )

    @pytest.mark.parametrize("differing,length", [
        (2, 4), (1499, 2000), (3, 4), (4, 4),
    ])
    def test_jc_at_and_past_saturation(self, differing, length):
        # p = 0.5, 0.7495 (between the 0.749 cap and the 0.75 clamp
        # boundary: not clamped), 0.75 and 1.0.
        family = {
            "a": "A" * length,
            "b": "C" * differing + "A" * (length - differing),
            "c": "A" * length,
        }
        order = ["b", "a", "c"]
        got = distance_matrix_from_sequences(
            family, method="jc", scale=7.0, order=order, repair=False
        )
        assert_bit_identical(
            got.values, reference_matrix(family, order, "jc", 7.0)
        )

    @RELAXED
    @given(
        mixed_families(),
        st.sampled_from([0.0, 0.25, 0.5, SATURATION_THRESHOLD, 1.0]),
        st.randoms(use_true_random=False),
    )
    def test_saturated_pairs_equals_scalar_loop(self, family, threshold, rnd):
        order = sorted(family)
        rnd.shuffle(order)
        got = saturated_pairs(family, order=order, threshold=threshold)
        assert got == reference_saturated(family, order, threshold)
        assert all(type(p) is float for _, _, p in got)

    @pytest.mark.parametrize("method", ["p", "p-count", "jc"])
    def test_unaligned_input_names_both_lengths(self, method):
        family = {"a": "ACGT", "b": "ACGT", "c": "ACG"}
        with pytest.raises(ValueError, match=r"lengths 4 vs 3"):
            distance_matrix_from_sequences(family, method=method)
        with pytest.raises(ValueError, match=r"lengths 4 vs 3"):
            saturated_pairs(family)
