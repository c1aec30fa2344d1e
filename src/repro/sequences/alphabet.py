"""Sequence alphabets: DNA, IUPAC ambiguity codes, protein.

The synthetic generators only ever emit clean ``ACGT``, but real FASTA
uploads arrive with IUPAC ambiguity codes (``N``, ``R``, ``Y``, ...),
alignment gaps, protein sequences and outright garbage.  The ingestion
pipeline (:mod:`repro.ingest`) QC-gates on the classifications this
module provides:

* :func:`classify_sequence` -- ``"dna"`` / ``"protein"`` / ``"unknown"``
  for one sequence;
* :func:`detect_alphabet` -- the consensus over a whole batch (``"mixed"``
  when records disagree);
* :func:`ambiguity_fraction` -- how much of a sequence is ambiguity
  codes or gaps, the QC gate for saturation-prone inputs.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

__all__ = [
    "DNA_ALPHABET",
    "DNA_AMBIGUITY",
    "PROTEIN_ALPHABET",
    "PROTEIN_AMBIGUITY",
    "GAP_CHARS",
    "ambiguity_fraction",
    "classify_sequence",
    "detect_alphabet",
    "random_sequence",
    "validate_sequence",
]

#: The nucleotide alphabet, in the conventional order.
DNA_ALPHABET = "ACGT"

#: IUPAC nucleotide ambiguity codes (any-of sets over ``ACGT``).
DNA_AMBIGUITY = "RYSWKMBDHVN"

#: The twenty standard amino acids.
PROTEIN_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"

#: Amino-acid ambiguity/rare codes (B = D/N, Z = E/Q, J = I/L, X = any,
#: plus the non-standard U (selenocysteine) and O (pyrrolysine)).
PROTEIN_AMBIGUITY = "BJOUXZ"

#: Alignment gap characters tolerated in aligned FASTA.
GAP_CHARS = "-."

_DNA_FULL = frozenset(DNA_ALPHABET + DNA_AMBIGUITY + GAP_CHARS + "U")
_PROTEIN_FULL = frozenset(PROTEIN_ALPHABET + PROTEIN_AMBIGUITY + GAP_CHARS)

RngLike = Union[int, np.random.Generator, None]


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_sequence(length: int, seed: RngLike = None) -> str:
    """A uniformly random DNA sequence of the given length."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = _rng(seed)
    indices = rng.integers(0, len(DNA_ALPHABET), size=length)
    return "".join(DNA_ALPHABET[i] for i in indices)


def validate_sequence(sequence: str) -> str:
    """Return ``sequence`` upper-cased after checking its alphabet."""
    upper = sequence.upper()
    bad = set(upper) - set(DNA_ALPHABET)
    if bad:
        raise ValueError(f"sequence contains non-DNA symbols: {sorted(bad)}")
    return upper


def classify_sequence(sequence: str) -> str:
    """Classify one sequence as ``"dna"``, ``"protein"`` or ``"unknown"``.

    Case-insensitive.  Every ``ACGT`` string is also a legal protein
    string, so DNA is checked first: a sequence over the nucleotide
    alphabet plus IUPAC ambiguity codes (and gaps) whose unambiguous
    fraction is mostly ``ACGT`` is DNA.  Anything over the amino-acid
    alphabet (plus ``BJOUXZ`` and gaps) is protein; anything else --
    digits, ``*`` stops, punctuation -- is ``"unknown"`` and fails QC.
    An empty sequence is ``"unknown"`` (there is nothing to classify).
    """
    upper = sequence.upper()
    chars = set(upper)
    if not chars:
        return "unknown"
    if chars <= _DNA_FULL:
        residues = len(upper) - _count(upper, GAP_CHARS)
        if not residues:
            return "unknown"
        acgt = _count(upper, DNA_ALPHABET)
        # Mostly unambiguous nucleotides: DNA.  An all-N smear (or an
        # ambiguity-dominated read) is still DNA-shaped; only when the
        # letters could equally be amino acids do we need the majority
        # test, and every DNA ambiguity code *is* an amino-acid letter,
        # so the 50% rule keeps e.g. "NHWKDS..." protein out of "dna".
        if acgt * 2 >= residues:
            return "dna"
        if chars <= frozenset(DNA_AMBIGUITY + GAP_CHARS):
            # No ACGT at all but pure ambiguity codes -- an N-run.
            if chars - frozenset("N" + GAP_CHARS) == set():
                return "dna"
        return "protein" if chars <= _PROTEIN_FULL else "unknown"
    if chars <= _PROTEIN_FULL:
        return "protein"
    return "unknown"


def ambiguity_fraction(sequence: str) -> float:
    """Fraction of a sequence that is ambiguity codes or gaps.

    For DNA this is everything outside ``ACGT``; for protein everything
    outside the twenty standard residues.  Unknown-alphabet sequences
    report the DNA fraction (the caller has already rejected them).
    Empty sequences report 1.0 -- maximally uninformative.
    """
    upper = sequence.upper()
    return _ambiguity_fraction(upper, classify_sequence(upper))


def _count(text: str, symbols: str) -> int:
    """Occurrences in ``text`` of any of the distinct ``symbols``."""
    return sum(map(text.count, symbols))


def _ambiguity_fraction(upper: str, kind: str) -> float:
    """:func:`ambiguity_fraction` of an upper-cased sequence of ``kind``."""
    if not upper:
        return 1.0
    core = PROTEIN_ALPHABET if kind == "protein" else DNA_ALPHABET
    return (len(upper) - _count(upper, core)) / len(upper)


def detect_alphabet(sequences: Iterable[str]) -> str:
    """Consensus alphabet over a batch of sequences.

    Returns ``"dna"`` or ``"protein"`` when every classifiable sequence
    agrees, ``"mixed"`` when they disagree, and ``"unknown"`` when no
    sequence classifies at all (or the batch is empty).
    """
    return _consensus(map(classify_sequence, sequences))


def _consensus(kinds: Iterable[str]) -> str:
    """:func:`detect_alphabet` over already-classified sequences."""
    seen = set(kinds) - {"unknown"}
    if not seen:
        return "unknown"
    if len(seen) > 1:
        return "mixed"
    return seen.pop()
