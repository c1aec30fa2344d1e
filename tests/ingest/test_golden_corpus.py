"""Golden-corpus tests for the ingestion pipeline.

Every fixture under ``tests/data/fasta/`` encodes one real-world input
shape.  The clean ones must sail through all five stages and reproduce
the checked-in manifest pin byte for byte (modulo the volatile fields
``strip_volatile`` removes); every malformed one must fail at *its*
stage with a structured, JSON-safe rejection -- never a traceback.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ingest import (
    MIN_SEQUENCES,
    STAGE_NAMES,
    IngestRejection,
    Manifest,
    QCConfig,
    run_pipeline,
    strip_volatile,
)
from repro.matrix.distance_matrix import DistanceMatrix

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fasta"

CLEAN = ["clean_dna.fasta", "protein.fasta", "crlf_wrapped.fasta"]

#: fixture -> (failing stage index, rejection code seen there)
MALFORMED = {
    "truncated.fasta": (0, "truncated-record"),
    "ambiguous.fasta": (1, "ambiguity-fraction"),
    "duplicate_id.fasta": (1, "duplicate-id"),
    "empty_sequence.fasta": (1, "empty-sequence"),
    "unaligned.fasta": (2, "unaligned"),
}


def run_fixture(name, **kwargs):
    return run_pipeline(str(FIXTURES / name), **kwargs)


class TestCleanCorpus:
    @pytest.mark.parametrize("name", CLEAN)
    def test_clean_fixture_passes_end_to_end(self, name):
        outcome = run_fixture(name, verify=True)
        manifest = outcome.manifest
        assert manifest.status == "ok"
        assert outcome.exit_code == 0
        assert not manifest.rejections
        assert [s.name for s in manifest.stages] == list(STAGE_NAMES)
        assert all(s.status == "completed" for s in manifest.stages)
        assert manifest.result["verified_ok"] is True
        assert manifest.result["newick"].endswith(";")
        assert isinstance(outcome.matrix, DistanceMatrix)
        assert outcome.matrix.is_metric()

    def test_crlf_wrapped_matches_clean_dna(self):
        # Same sequences, hostile formatting: CRLF line endings and
        # 20-column wrapping must not change a single distance.
        plain = run_fixture("clean_dna.fasta")
        hostile = run_fixture("crlf_wrapped.fasta")
        assert hostile.matrix.labels == plain.matrix.labels
        np.testing.assert_allclose(hostile.matrix.values, plain.matrix.values)
        assert hostile.manifest.result["newick"] == plain.manifest.result["newick"]

    def test_protein_alphabet_detected(self):
        outcome = run_fixture("protein.fasta")
        qc = outcome.manifest.stage("qc")
        assert qc.detail["alphabet"] == "protein"

    def test_jc_on_dna_exceeds_p(self):
        p = run_fixture("clean_dna.fasta", distance="p")
        jc = run_fixture("clean_dna.fasta", distance="jc")
        off = ~np.eye(p.matrix.n, dtype=bool)
        assert np.all(jc.matrix.values[off] >= p.matrix.values[off])


class TestGoldenManifestPin:
    def test_clean_dna_manifest_matches_pin(self):
        outcome = run_fixture("clean_dna.fasta", verify=True)
        pinned = json.loads(
            (FIXTURES / "clean_dna.manifest.json").read_text()
        )
        assert strip_volatile(outcome.manifest.to_json()) == pinned

    def test_clean_dna_jc_manifest_matches_pin(self):
        outcome = run_fixture("clean_dna.fasta", distance="jc", verify=True)
        pinned = json.loads(
            (FIXTURES / "clean_dna.jc.manifest.json").read_text()
        )
        assert strip_volatile(outcome.manifest.to_json()) == pinned

    def test_strip_volatile_removes_what_varies(self):
        outcome = run_fixture("clean_dna.fasta", verify=True)
        raw = outcome.manifest.to_json()
        stripped = strip_volatile(raw)
        assert "engine" not in stripped
        assert "path" not in stripped["input"]
        assert all(
            "duration_seconds" not in s for s in stripped["stages"]
        )
        # ... but nothing load-bearing: digests, verdicts, result.
        assert stripped["input"]["sha256"] == raw["input"]["sha256"]
        assert stripped["result"] == raw["result"]


class TestMalformedCorpus:
    @pytest.mark.parametrize("name,expected", MALFORMED.items(),
                             ids=list(MALFORMED))
    def test_fails_at_its_own_stage(self, name, expected):
        stage, code = expected
        outcome = run_fixture(name)
        manifest = outcome.manifest
        assert manifest.status == "failed"
        assert outcome.exit_code == 1
        assert manifest.failed_stage == stage
        assert manifest.stages[stage].status == "failed"
        # Earlier stages completed; nothing past the failure ran.
        assert all(
            s.status == "completed" for s in manifest.stages[:stage]
        )
        assert len(manifest.stages) == stage + 1
        codes = {r.code for r in manifest.rejections}
        assert code in codes
        assert all(r.stage == stage for r in manifest.rejections)

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_rejections_are_structured_and_json_safe(self, name):
        manifest = run_fixture(name).manifest
        assert manifest.rejections
        for rejection in manifest.rejections:
            record = rejection.to_json()
            assert json.loads(json.dumps(record)) == record
            assert record["stage_name"] == STAGE_NAMES[rejection.stage]
            assert record["code"] and record["detail"]
            assert IngestRejection.from_json(record) == rejection
        # The whole manifest round-trips through JSON too.
        dumped = json.dumps(manifest.to_json())
        assert Manifest.from_json(json.loads(dumped)).status == "failed"

    def test_jc_on_protein_fails_in_distance_stage(self):
        outcome = run_fixture("protein.fasta", distance="jc")
        manifest = outcome.manifest
        assert manifest.status == "failed"
        assert manifest.failed_stage == 2
        assert {r.code for r in manifest.rejections} == {"alphabet-mismatch"}


class TestLenientMode:
    def test_lenient_drops_offenders_and_continues(self):
        outcome = run_fixture("duplicate_id.fasta", mode="lenient")
        manifest = outcome.manifest
        # The duplicate is dropped but the survivors build a tree; the
        # run is "partial", which still exits 1 so scripts notice.
        assert manifest.status == "partial"
        assert outcome.exit_code == 1
        assert {r.code for r in manifest.rejections} == {"duplicate-id"}
        assert outcome.matrix.n == MIN_SEQUENCES
        assert "dup1" in outcome.matrix.labels

    def test_lenient_still_fails_when_too_few_survive(self):
        # Every record trips the ambiguity gate, so even lenient mode
        # cannot scrape together MIN_SEQUENCES survivors.
        outcome = run_fixture("ambiguous.fasta", mode="lenient")
        assert outcome.manifest.status == "failed"
        assert outcome.manifest.failed_stage == 1
        codes = {r.code for r in outcome.manifest.rejections}
        assert "too-few-sequences" in codes

    def test_relaxed_qc_admits_the_ambiguous_corpus(self):
        outcome = run_fixture(
            "ambiguous.fasta", qc=QCConfig(max_ambiguity=0.5)
        )
        assert outcome.manifest.status == "ok"
        assert outcome.exit_code == 0
