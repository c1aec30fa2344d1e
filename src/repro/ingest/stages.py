"""The five ingestion stages, as pure functions.

Each stage takes the previous stage's output and either returns its
result or raises :class:`StageFailure` carrying structured
:class:`~repro.ingest.manifest.IngestRejection` records -- never a bare
traceback.  The orchestration (spans, timing, manifest bookkeeping,
resume) lives in :mod:`repro.ingest.pipeline`; keeping the stages pure
makes them unit-testable one at a time.

Stage map (indices are :data:`repro.ingest.manifest.STAGE_NAMES`):

====  ==========  ======================================================
 0    parse       FASTA -> records (strict: any structural issue fails;
                  lenient: damaged records dropped)
 1    qc          records -> clean ``{id: sequence}`` (length bounds,
                  ambiguity fraction, duplicates, alphabet consensus)
 2    distance    sequences -> raw :class:`DistanceMatrix` + saturation
                  flags (p / jukes-cantor / edit)
 3    repair      raw matrix -> metric matrix + perturbation report
 4    tree        metric matrix -> verified tree (or a scheduled job)
====  ==========  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ingest.manifest import IngestRejection
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.repair import RepairReport, repair_with_report
from repro.sequences.alphabet import (
    _ambiguity_fraction,
    _consensus,
    classify_sequence,
)
from repro.sequences.distance import (
    SATURATION_THRESHOLD,
    _matrix_and_saturation,
    resolve_method,
)
from repro.sequences.fasta import FastaRecord, parse_fasta

__all__ = [
    "MIN_SEQUENCES",
    "QCConfig",
    "QCVerdict",
    "StageFailure",
    "stage_parse",
    "stage_qc",
    "stage_distance",
    "stage_repair",
]

#: A tree over fewer than three species is degenerate; the QC stage
#: refuses batches that small (before or after lenient dropping).
MIN_SEQUENCES = 3


class StageFailure(Exception):
    """A stage refused to continue; carries the rejection records."""

    def __init__(self, stage: int, rejections: List[IngestRejection]):
        self.stage = stage
        self.rejections = rejections
        first = rejections[0] if rejections else None
        detail = first.detail if first else "stage failed"
        super().__init__(f"stage {stage} failed: {detail}")


@dataclass
class QCConfig:
    """The QC gates, all tunable from the CLI / service surface.

    ``max_ambiguity`` is the tolerated fraction of ambiguity codes (or
    gaps) per sequence -- the default 0.1 passes typical cleaned reads
    and fails N-smeared ones.  ``min_length``/``max_length`` bound the
    residue count; ``max_length=None`` means unbounded.
    """

    min_length: int = 1
    max_length: Optional[int] = None
    max_ambiguity: float = 0.1

    def to_json(self) -> Dict[str, object]:
        return {
            "min_length": self.min_length,
            "max_length": self.max_length,
            "max_ambiguity": self.max_ambiguity,
        }


@dataclass
class QCVerdict:
    """What QC decided about one record (every record gets one)."""

    record: str
    lineno: int
    length: int
    alphabet: str
    ambiguity: float
    verdict: str = "pass"  # "pass" | "fail"
    codes: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "record": self.record,
            "lineno": self.lineno,
            "length": self.length,
            "alphabet": self.alphabet,
            "ambiguity": round(self.ambiguity, 6),
            "verdict": self.verdict,
            "codes": list(self.codes),
        }


# ----------------------------------------------------------------------
# Stage 0: parse
# ----------------------------------------------------------------------
def stage_parse(
    source, *, text: bool = False, mode: str = "strict"
) -> Tuple[List[FastaRecord], List[IngestRejection]]:
    """Parse FASTA into records; structural damage is a stage-0 matter.

    Strict mode fails on any structural issue (empty headers, data
    before the first header, a truncated final record, an empty file).
    Lenient mode drops the damaged pieces and carries on -- except for
    ``no-records``, which is fatal in both modes (there is nothing to
    continue with).  Returns ``(records, rejections)`` where
    ``rejections`` are the lenient-mode drops.
    """
    parse = parse_fasta(source, strict=False, text=text)
    rejections = [
        IngestRejection(
            stage=0,
            code=issue.code,
            detail=issue.detail,
            record=issue.record,
            lineno=issue.lineno,
        )
        for issue in parse.issues
    ]
    fatal = [r for r in rejections if r.code == "no-records"]
    if fatal:
        raise StageFailure(0, rejections)
    if mode == "strict" and rejections:
        raise StageFailure(0, rejections)
    # Lenient: drop the truncated final record (it has no data) and keep
    # the rest; empty-header / data-before-header content was already
    # skipped by the parser.
    truncated = {r.record for r in rejections if r.code == "truncated-record"}
    records = [r for r in parse.records if r.sequence or r.name not in truncated]
    return records, rejections


# ----------------------------------------------------------------------
# Stage 1: qc
# ----------------------------------------------------------------------
def stage_qc(
    records: List[FastaRecord],
    config: QCConfig,
    *,
    mode: str = "strict",
) -> Tuple[Dict[str, str], str, List[QCVerdict], List[IngestRejection]]:
    """Gate every record; return the survivors as ``{id: sequence}``.

    Per-record gates: empty sequence, length bounds, unclassifiable
    characters, ambiguity fraction, duplicate ids, duplicate sequences
    (later occurrence loses).  Batch gates (fatal in both modes):
    mixed DNA/protein alphabets, and fewer than
    :data:`MIN_SEQUENCES` survivors.

    Strict mode raises :class:`StageFailure` if *any* record fails;
    lenient mode drops the failures and continues.  Returns
    ``(sequences, alphabet, verdicts, rejections)``.
    """
    verdicts: List[QCVerdict] = []
    rejections: List[IngestRejection] = []
    survivors: Dict[str, str] = {}
    seen_names: set = set()
    seen_sequences: Dict[str, str] = {}  # sequence -> first record id

    def reject(verdict: QCVerdict, code: str, detail: str) -> None:
        verdict.verdict = "fail"
        verdict.codes.append(code)
        rejections.append(
            IngestRejection(
                stage=1,
                code=code,
                detail=detail,
                record=verdict.record,
                lineno=verdict.lineno,
            )
        )

    for record in records:
        sequence = record.sequence
        kind = classify_sequence(sequence)
        verdict = QCVerdict(
            record=record.name,
            lineno=record.lineno,
            length=len(sequence),
            alphabet=kind,
            ambiguity=_ambiguity_fraction(sequence.upper(), kind),
        )
        verdicts.append(verdict)
        if not sequence:
            reject(
                verdict, "empty-sequence",
                f"record {record.name!r} has no sequence data",
            )
            continue
        if len(sequence) < config.min_length:
            reject(
                verdict, "too-short",
                f"record {record.name!r} has {len(sequence)} residues "
                f"(minimum {config.min_length})",
            )
        if config.max_length is not None and len(sequence) > config.max_length:
            reject(
                verdict, "too-long",
                f"record {record.name!r} has {len(sequence)} residues "
                f"(maximum {config.max_length})",
            )
        if verdict.alphabet == "unknown":
            reject(
                verdict, "invalid-characters",
                f"record {record.name!r} is neither DNA nor protein",
            )
        elif verdict.ambiguity > config.max_ambiguity:
            reject(
                verdict, "ambiguity-fraction",
                f"record {record.name!r} is {verdict.ambiguity:.1%} "
                f"ambiguity codes (limit {config.max_ambiguity:.1%})",
            )
        if record.name in seen_names:
            reject(
                verdict, "duplicate-id",
                f"record id {record.name!r} appears more than once",
            )
        elif verdict.verdict == "pass" and sequence in seen_sequences:
            reject(
                verdict, "duplicate-sequence",
                f"record {record.name!r} duplicates the sequence of "
                f"{seen_sequences[sequence]!r}",
            )
        seen_names.add(record.name)
        if verdict.verdict == "pass":
            survivors[record.name] = sequence
            seen_sequences.setdefault(sequence, record.name)

    if mode == "strict" and rejections:
        raise StageFailure(1, rejections)

    # Every survivor is exactly one passing verdict, already classified.
    kinds = {v.record: v.alphabet for v in verdicts if v.verdict == "pass"}
    alphabet = _consensus(kinds.values())
    if alphabet == "mixed":
        detail = ", ".join(f"{n}={k}" for n, k in sorted(kinds.items()))
        rejections.append(
            IngestRejection(
                stage=1,
                code="mixed-alphabet",
                detail=f"batch mixes DNA and protein records ({detail})",
            )
        )
        raise StageFailure(1, rejections)
    if len(survivors) < MIN_SEQUENCES:
        rejections.append(
            IngestRejection(
                stage=1,
                code="too-few-sequences",
                detail=(
                    f"only {len(survivors)} usable record(s) after QC; "
                    f"a tree needs at least {MIN_SEQUENCES}"
                ),
            )
        )
        raise StageFailure(1, rejections)
    return survivors, alphabet, verdicts, rejections


# ----------------------------------------------------------------------
# Stage 2: distance
# ----------------------------------------------------------------------
def stage_distance(
    sequences: Mapping[str, str],
    *,
    method: str = "p",
    alphabet: str = "dna",
    scale: float = 1.0,
) -> Tuple[DistanceMatrix, Dict[str, object]]:
    """Compute the *raw* pairwise matrix plus saturation flags.

    p-distance and Jukes-Cantor need an alignment (equal lengths) --
    unaligned input is a stage-2 rejection (``"unaligned"``), as is
    Jukes-Cantor on protein (``"alphabet-mismatch"``: the 4-state
    substitution model is nucleotide-specific).  Saturated pairs
    (p >= 0.75) are *flagged* in the returned detail, not rejected:
    the tree may still be useful, but the caller deserves to know the
    signal is thin.  Repair is deliberately left to stage 3.
    """
    method = resolve_method(method)
    if method == "jukes-cantor" and alphabet != "dna":
        raise StageFailure(2, [
            IngestRejection(
                stage=2,
                code="alphabet-mismatch",
                detail=(
                    "Jukes-Cantor is a nucleotide substitution model; "
                    f"this batch is {alphabet}"
                ),
            )
        ])
    lengths = {len(s) for s in sequences.values()}
    aligned = len(lengths) <= 1
    if method in ("p", "p-count", "jukes-cantor") and not aligned:
        raise StageFailure(2, [
            IngestRejection(
                stage=2,
                code="unaligned",
                detail=(
                    f"{method} distance needs aligned sequences, but "
                    f"lengths vary ({min(lengths)}..{max(lengths)}); "
                    "align first or use --distance edit"
                ),
            )
        ])
    matrix, flagged = _matrix_and_saturation(
        sequences, method=method, scale=scale, aligned=aligned
    )
    detail: Dict[str, object] = {
        "method": method,
        "aligned": aligned,
        "saturated_pairs": [],
        "saturation_fraction": 0.0,
    }
    if aligned:
        n = matrix.n
        n_pairs = n * (n - 1) // 2
        detail["saturated_pairs"] = [
            {"a": a, "b": b, "p": round(p, 6)} for a, b, p in flagged
        ]
        detail["saturation_fraction"] = (
            len(flagged) / n_pairs if n_pairs else 0.0
        )
        detail["saturation_threshold"] = SATURATION_THRESHOLD
    return matrix, detail


# ----------------------------------------------------------------------
# Stage 3: repair
# ----------------------------------------------------------------------
def stage_repair(
    matrix: DistanceMatrix,
) -> Tuple[DistanceMatrix, RepairReport]:
    """Metric-close the raw matrix, measuring the applied perturbation."""
    return repair_with_report(matrix)
