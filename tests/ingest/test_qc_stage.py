"""Unit tests for the QC stage's per-record classification."""

import pytest

from repro.ingest import stages
from repro.ingest.stages import QCConfig, StageFailure, stage_qc
from repro.sequences.fasta import FastaRecord

MIXED = [
    FastaRecord("c", "ACGTACGTAC", lineno=1),
    FastaRecord("a", "MKVLWQEFPH", lineno=3),
    FastaRecord("b", "ACGTTGCAAC", lineno=5),
    FastaRecord("d", "", lineno=7),
]


def test_mixed_alphabet_rejection_detail_is_pinned():
    with pytest.raises(StageFailure) as info:
        stage_qc(MIXED, QCConfig(), mode="lenient")
    last = info.value.rejections[-1]
    assert last.code == "mixed-alphabet"
    assert last.detail == (
        "batch mixes DNA and protein records (a=protein, b=dna, c=dna)"
    )


def test_each_record_is_classified_once(monkeypatch):
    calls = []
    real = stages.classify_sequence

    def counting(sequence):
        calls.append(sequence)
        return real(sequence)

    monkeypatch.setattr(stages, "classify_sequence", counting)
    records = [
        FastaRecord(f"r{i}", seq, lineno=i)
        for i, seq in enumerate(["ACGTAC", "ACGTTT", "ACGNNA", "ACCCTA"])
    ]
    survivors, alphabet, verdicts, _ = stage_qc(
        records, QCConfig(max_ambiguity=0.5)
    )
    assert sorted(calls) == sorted(r.sequence for r in records)
    assert alphabet == "dna"
    assert len(survivors) == 4
    assert [v.ambiguity for v in verdicts] == [0.0, 0.0, 2 / 6, 0.0]
