"""Tests for the DNA alphabet helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences.alphabet import (
    DNA_ALPHABET,
    DNA_AMBIGUITY,
    GAP_CHARS,
    PROTEIN_ALPHABET,
    PROTEIN_AMBIGUITY,
    ambiguity_fraction,
    classify_sequence,
    detect_alphabet,
    random_sequence,
    validate_sequence,
)


class TestAlphabet:
    def test_alphabet(self):
        assert DNA_ALPHABET == "ACGT"

    def test_random_sequence_length(self):
        assert len(random_sequence(100, seed=0)) == 100

    def test_random_sequence_alphabet(self):
        assert set(random_sequence(500, seed=1)) <= set("ACGT")

    def test_random_sequence_deterministic(self):
        assert random_sequence(50, seed=2) == random_sequence(50, seed=2)

    def test_random_sequence_varies_with_seed(self):
        assert random_sequence(50, seed=2) != random_sequence(50, seed=3)

    def test_empty_sequence(self):
        assert random_sequence(0) == ""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(-1)

    def test_validate_uppercases(self):
        assert validate_sequence("acgt") == "ACGT"

    def test_validate_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="non-DNA"):
            validate_sequence("ACGX")

    def test_all_bases_appear_in_long_sequence(self):
        assert set(random_sequence(1000, seed=4)) == set("ACGT")


# ----------------------------------------------------------------------
# classify_sequence / ambiguity_fraction count with str.count; these
# references are the per-character loops they replaced.
# ----------------------------------------------------------------------
_DNA_FULL = frozenset(DNA_ALPHABET + DNA_AMBIGUITY + GAP_CHARS + "U")
_PROTEIN_FULL = frozenset(PROTEIN_ALPHABET + PROTEIN_AMBIGUITY + GAP_CHARS)


def reference_classify(sequence):
    upper = sequence.upper()
    chars = set(upper)
    if not chars:
        return "unknown"
    if chars <= _DNA_FULL:
        residues = [c for c in upper if c not in GAP_CHARS]
        if not residues:
            return "unknown"
        acgt = sum(1 for c in residues if c in DNA_ALPHABET)
        if acgt * 2 >= len(residues):
            return "dna"
        if chars <= frozenset(DNA_AMBIGUITY + GAP_CHARS):
            if chars - frozenset("N" + GAP_CHARS) == set():
                return "dna"
        return "protein" if chars <= _PROTEIN_FULL else "unknown"
    if chars <= _PROTEIN_FULL:
        return "protein"
    return "unknown"


def reference_ambiguity(sequence):
    upper = sequence.upper()
    if not upper:
        return 1.0
    kind = reference_classify(upper)
    core = PROTEIN_ALPHABET if kind == "protein" else DNA_ALPHABET
    return sum(1 for c in upper if c not in core) / len(upper)


#: Both cases, gaps, every IUPAC and amino-acid code, junk, and
#: non-ASCII letters whose upper case is ASCII (dotless i, long s) or
#: longer than one character (sharp s).
SYMBOLS = (
    DNA_ALPHABET + DNA_ALPHABET.lower() + DNA_AMBIGUITY + "nu" + GAP_CHARS
    + PROTEIN_ALPHABET + PROTEIN_AMBIGUITY + "*1 \u0131\u017f\u00df\u00e9"
)


@st.composite
def sequences(draw):
    pool = draw(st.text(alphabet=SYMBOLS, min_size=1, max_size=8))
    return draw(st.text(alphabet=pool, max_size=40))


class TestClassificationMatchesCharLoop:
    @settings(max_examples=300, deadline=None)
    @given(sequences())
    def test_classify_and_ambiguity(self, sequence):
        assert classify_sequence(sequence) == reference_classify(sequence)
        assert ambiguity_fraction(sequence) == reference_ambiguity(sequence)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(sequences(), max_size=5))
    def test_detect_alphabet(self, batch):
        seen = {reference_classify(s) for s in batch} - {"unknown"}
        expected = (
            "unknown" if not seen else "mixed" if len(seen) > 1 else seen.pop()
        )
        assert detect_alphabet(batch) == expected

    @pytest.mark.parametrize("sequence,kind,ambiguity", [
        ("", "unknown", 1.0),
        ("--..", "unknown", 1.0),
        ("acgtn-", "dna", 2 / 6),
        ("NNNN", "dna", 1.0),
        ("MKVLWQ", "protein", 0.0),
        ("ACGT*", "unknown", 0.2),
    ])
    def test_known_cases(self, sequence, kind, ambiguity):
        assert classify_sequence(sequence) == kind
        assert ambiguity_fraction(sequence) == ambiguity
