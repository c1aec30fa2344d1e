"""The staged ingestion pipeline: FASTA -> QC -> distance -> repair -> tree.

:func:`run_pipeline` strings the five stages of
:mod:`repro.ingest.stages` together and owns everything around them:

* **observability** -- each executed stage runs inside an
  ``ingest.stage`` span (schema-v1, trace-id stamped) with
  ``ingest.records`` / ``ingest.rejections`` counters, and its latency
  lands in the ``ingest.stage.seconds`` histogram;
* **the manifest** -- every stage appends a
  :class:`~repro.ingest.manifest.StageRecord` (status, duration,
  counters, stage detail, resume artifacts), and the manifest is saved
  after every stage transition, so a crash mid-run still leaves a
  diagnosable, resumable document;
* **resume** -- when ``manifest_path`` already holds a manifest for the
  same input digest and configuration, completed stages are skipped
  (their artifacts restored, an ``ingest.stage.skipped`` counter
  emitted) and work restarts at the first incomplete stage;
* **failure policy** -- a :class:`~repro.ingest.stages.StageFailure`
  becomes a failed stage record plus structured rejections in the
  manifest, never an escaping traceback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.ingest.manifest import (
    Manifest,
    STAGE_NAMES,
    StageRecord,
    sha256_text,
)
from repro.ingest.stages import (
    QCConfig,
    StageFailure,
    stage_distance,
    stage_parse,
    stage_qc,
    stage_repair,
)
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.metrics import MetricsRegistry, as_metrics
from repro.obs.recorder import as_recorder

__all__ = ["IngestResult", "run_pipeline"]


@dataclass
class IngestResult:
    """What :func:`run_pipeline` hands back.

    ``manifest`` is always populated (and already saved when a
    ``manifest_path`` was given).  ``matrix`` is the repaired metric
    matrix once stage 3 completed; ``result`` the
    :class:`~repro.core.api.ConstructionResult` once stage 4 solved
    locally (``None`` when the solve was delegated via ``submit``).
    """

    manifest: Manifest
    matrix: Optional[DistanceMatrix] = None
    result: Optional[object] = None

    @property
    def status(self) -> str:
        return self.manifest.status

    @property
    def ok(self) -> bool:
        return self.manifest.status == "ok"

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 only for a fully clean run, 1 otherwise.

        A lenient run that built a tree but dropped records exits 1 too
        -- the caller asked for everything and did not get it.
        """
        return 0 if self.ok else 1


def _matrix_to_artifact(matrix: DistanceMatrix) -> Dict[str, object]:
    return {
        "labels": list(matrix.labels),
        "values": matrix.values.tolist(),
    }


def _matrix_from_artifact(artifact: Dict[str, object]) -> DistanceMatrix:
    return DistanceMatrix(
        np.asarray(artifact["values"], dtype=float),
        list(artifact["labels"]),
        validate=False,
    )


def run_pipeline(
    source: Union[str, Path],
    *,
    text: bool = False,
    distance: str = "p",
    tree_method: str = "compact",
    mode: str = "strict",
    qc: Optional[QCConfig] = None,
    scale: float = 1.0,
    verify: bool = False,
    manifest_path: Optional[Union[str, Path]] = None,
    recorder=None,
    metrics: Optional[MetricsRegistry] = None,
    cache=None,
    cluster=None,
    solver_options: Optional[Dict[str, object]] = None,
    submit: Optional[Callable[[DistanceMatrix], Dict[str, object]]] = None,
) -> IngestResult:
    """Run the full ingestion pipeline over one FASTA input.

    ``source`` is a path unless ``text=True`` (then it is the FASTA
    content itself -- the service endpoint passes uploads this way).
    ``mode`` is ``"strict"`` (any problem fails its stage) or
    ``"lenient"`` (damaged/failing records are dropped, recorded as
    rejections, and the run continues while >= 3 records survive).

    Stage 4 either solves locally through
    :func:`repro.core.api.construct_tree_cached` (honouring ``cache``,
    ``cluster``, ``solver_options`` and ``verify``) or, when ``submit``
    is given, hands the repaired matrix to the caller (the service
    scheduler) and records whatever JSON-safe detail ``submit`` returns.

    Returns an :class:`IngestResult`; the manifest inside is saved to
    ``manifest_path`` after every stage when a path is given.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', not {mode!r}")
    from repro.sequences.distance import resolve_method
    from repro.version import engine_fingerprint

    qc = qc or QCConfig()
    rec = as_recorder(recorder)
    registry = as_metrics(metrics)
    distance = resolve_method(distance)

    if text:
        raw = str(source)
        input_path = "<upload>"
    else:
        raw = Path(source).read_text()
        input_path = str(source)
    input_sha = sha256_text(raw)

    config: Dict[str, object] = {
        "distance": distance,
        "tree_method": tree_method,
        "mode": mode,
        "scale": scale,
        "qc": qc.to_json(),
        "verify": verify,
    }
    manifest = Manifest(
        input={
            "path": input_path,
            "sha256": input_sha,
            "bytes": len(raw.encode("utf-8")),
        },
        engine=engine_fingerprint(),
        config=config,
        status="failed",
    )

    # ------------------------------------------------------------------
    # Resume: adopt completed stages from a prior manifest for the same
    # input + configuration.
    # ------------------------------------------------------------------
    resume_from = 0
    if manifest_path is not None and Path(manifest_path).exists():
        try:
            prior = Manifest.load(manifest_path)
        except (ValueError, KeyError, OSError):
            prior = None  # corrupt manifest: start fresh
        if prior is not None and prior.matches(input_sha, config):
            resume_from = prior.completed_stages()
            manifest.stages = prior.stages[:resume_from]
            manifest.rejections = [
                r for r in prior.rejections if r.stage < resume_from
            ]
            manifest.resumed_from = resume_from
            if resume_from == len(STAGE_NAMES):
                manifest.result = prior.result
            for index in range(resume_from):
                rec.counter(
                    "ingest.stage.skipped",
                    stage=STAGE_NAMES[index],
                    index=index,
                )

    def save() -> None:
        if manifest_path is not None:
            manifest.save(manifest_path)

    def run_stage(index: int, fn, **span_attrs):
        """Execute stage ``fn`` inside its span; bookkeep the record."""
        name = STAGE_NAMES[index]
        t0 = time.perf_counter()
        record = StageRecord(index=index, name=name, status="completed")
        try:
            with rec.span("ingest.stage", stage=name, index=index, **span_attrs):
                out = fn(record)
        except StageFailure as failure:
            record.status = "failed"
            record.duration_seconds = time.perf_counter() - t0
            record.counters["rejections"] = len(failure.rejections)
            manifest.stages.append(record)
            manifest.rejections.extend(failure.rejections)
            manifest.status = "failed"
            manifest.failed_stage = index
            rec.counter(
                "ingest.rejections",
                value=len(failure.rejections),
                stage=name,
            )
            save()
            raise
        finally:
            registry.histogram(
                "ingest.stage.seconds",
                "Ingestion stage latency, per stage.",
                labelnames=("stage",),
            ).observe(time.perf_counter() - t0, stage=name)
        record.duration_seconds = time.perf_counter() - t0
        manifest.stages.append(record)
        if record.counters.get("rejections"):
            rec.counter(
                "ingest.rejections",
                value=record.counters["rejections"],
                stage=name,
            )
        save()
        return out

    try:
        # -------------------------------------------------- 0: parse --
        if resume_from > 0:
            parse_art = manifest.stages[0].artifacts
            records = None  # only needed if stage 1 must run
        else:
            def do_parse(record: StageRecord):
                parsed, rejections = stage_parse(raw, text=True, mode=mode)
                manifest.rejections.extend(rejections)
                record.counters = {
                    "records": len(parsed),
                    "rejections": len(rejections),
                }
                record.artifacts = {
                    "records": [
                        {
                            "name": r.name,
                            "sequence": r.sequence,
                            "description": r.description,
                            "lineno": r.lineno,
                        }
                        for r in parsed
                    ]
                }
                rec.counter("ingest.records", value=len(parsed), stage="parse")
                return parsed

            records = run_stage(0, do_parse)
            parse_art = manifest.stages[0].artifacts

        # ----------------------------------------------------- 1: qc --
        if resume_from > 1:
            qc_art = manifest.stages[1].artifacts
            sequences = dict(qc_art["sequences"])
            alphabet = str(qc_art["alphabet"])
        else:
            if records is None:
                from repro.sequences.fasta import FastaRecord

                records = [
                    FastaRecord(
                        name=r["name"],
                        sequence=r["sequence"],
                        description=r.get("description", ""),
                        lineno=r.get("lineno", 0),
                    )
                    for r in parse_art["records"]
                ]

            def do_qc(record: StageRecord):
                survivors, kind, verdicts, rejections = stage_qc(
                    records, qc, mode=mode
                )
                manifest.rejections.extend(rejections)
                record.counters = {
                    "records": len(records),
                    "passed": len(survivors),
                    "rejections": len(rejections),
                }
                record.detail = {
                    "alphabet": kind,
                    "verdicts": [v.to_json() for v in verdicts],
                }
                record.artifacts = {
                    "sequences": survivors,
                    "alphabet": kind,
                }
                rec.counter(
                    "ingest.records", value=len(survivors), stage="qc"
                )
                return survivors, kind

            sequences, alphabet = run_stage(1, do_qc)

        # ----------------------------------------------- 2: distance --
        if resume_from > 2:
            raw_matrix = _matrix_from_artifact(manifest.stages[2].artifacts["matrix"])
        else:
            def do_distance(record: StageRecord):
                matrix, detail = stage_distance(
                    sequences,
                    method=distance,
                    alphabet=alphabet,
                    scale=scale,
                )
                record.detail = detail
                record.counters = {
                    "pairs": matrix.n * (matrix.n - 1) // 2,
                    "saturated": len(detail["saturated_pairs"]),
                }
                record.artifacts = {"matrix": _matrix_to_artifact(matrix)}
                rec.counter(
                    "ingest.saturated_pairs",
                    value=len(detail["saturated_pairs"]),
                    stage="distance",
                )
                return matrix

            raw_matrix = run_stage(2, do_distance, method=distance)

        # ------------------------------------------------- 3: repair --
        if resume_from > 3:
            repaired = _matrix_from_artifact(
                manifest.stages[3].artifacts["matrix"]
            )
        else:
            def do_repair(record: StageRecord):
                fixed, report = stage_repair(raw_matrix)
                record.detail = report.to_json()
                record.counters = {"entries_changed": report.entries_changed}
                record.artifacts = {
                    "matrix": _matrix_to_artifact(fixed),
                    "matrix_digest": fixed.digest(),
                }
                return fixed

            repaired = run_stage(3, do_repair)

        # --------------------------------------------------- 4: tree --
        result = None
        if resume_from > 4:
            pass  # fully resumed; manifest.result already restored
        elif submit is not None:
            def do_submit(record: StageRecord):
                detail = submit(repaired)
                record.detail = dict(detail)
                manifest.result = dict(detail)
                return None

            run_stage(4, do_submit, method=tree_method)
        else:
            def do_tree(record: StageRecord):
                from repro.core.api import construct_tree_cached
                from repro.service.cache import ResultCache
                from repro.tree.newick import to_newick

                built = construct_tree_cached(
                    repaired,
                    tree_method,
                    cache=cache if cache is not None else ResultCache(),
                    cluster=cluster,
                    recorder=recorder,
                    metrics=registry,
                    verify=verify,
                    **(solver_options or {}),
                )
                record.detail = {
                    "method": built.method,
                    "cost": float(built.cost),
                    "verified_ok": built.verified_ok,
                }
                manifest.result = {
                    "method": built.method,
                    "cost": float(built.cost),
                    "newick": to_newick(built.tree),
                    "verified_ok": built.verified_ok,
                    "matrix_digest": repaired.digest(),
                }
                return built

            result = run_stage(4, do_tree, method=tree_method)

        manifest.status = "partial" if manifest.rejections else "ok"
        manifest.failed_stage = None
        save()
        registry.counter(
            "ingest.runs", "Completed ingestion pipeline runs."
        ).inc()
        return IngestResult(manifest=manifest, matrix=repaired, result=result)
    except StageFailure:
        registry.counter(
            "ingest.failures", "Ingestion pipeline runs that failed QC."
        ).inc()
        return IngestResult(manifest=manifest)
