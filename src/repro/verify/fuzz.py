"""Seeded fuzzing over matrix families, with a greedy corpus shrinker.

The fuzz loop draws matrices from every generator family in
:mod:`repro.matrix.generators` plus the degenerate families the
generators cannot produce (all-ties, near-ultrametric with additive
noise), verifies each one differentially and metamorphically, and --
when something breaks -- *shrinks* the failing matrix (drop leaves,
round entries) before writing it to a corpus directory as PHYLIP plus a
JSON sidecar holding the violations and the exact one-line repro
command.

Everything is derived deterministically from one master seed
(``numpy.random.SeedSequence`` spawning a child per iteration), so
``repro-mut fuzz --seed S --budget N`` replays bit-identically and a CI
failure is reproducible from the seed it prints.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import (
    clustered_matrix,
    hierarchical_matrix,
    perturbed_ultrametric_matrix,
    random_metric_matrix,
    random_ultrametric_matrix,
)
from repro.matrix.repair import metric_closure
from repro.verify.differential import (
    DEFAULT_DIFFERENTIAL_METHODS,
    EXACT_METHODS,
    run_differential,
)
from repro.verify.metamorphic import run_metamorphic
from repro.verify.oracles import Violation

__all__ = [
    "FAMILIES",
    "FuzzFailure",
    "FuzzReport",
    "INGEST_MUTATIONS",
    "IngestFuzzFailure",
    "IngestFuzzReport",
    "run_fuzz",
    "run_ingest_fuzz",
    "shrink_matrix",
    "verify_matrix",
]


# ----------------------------------------------------------------------
# matrix families
# ----------------------------------------------------------------------
def _family_random_int(rng: np.random.Generator, n: int) -> DistanceMatrix:
    return random_metric_matrix(n, rng)


def _family_random_float(rng: np.random.Generator, n: int) -> DistanceMatrix:
    return random_metric_matrix(n, rng, integer=False)


def _family_clustered(rng: np.random.Generator, n: int) -> DistanceMatrix:
    sizes: List[int] = []
    remaining = n
    while remaining > 0:
        size = int(rng.integers(1, min(4, remaining) + 1))
        sizes.append(size)
        remaining -= size
    return clustered_matrix(sizes, rng)


def _family_hierarchical(rng: np.random.Generator, n: int) -> DistanceMatrix:
    half = max(1, n // 2)
    return hierarchical_matrix([[half, max(1, n - half - 1)], [1]], rng)


def _family_ultrametric(rng: np.random.Generator, n: int) -> DistanceMatrix:
    return random_ultrametric_matrix(n, rng)


def _family_perturbed(rng: np.random.Generator, n: int) -> DistanceMatrix:
    return perturbed_ultrametric_matrix(n, rng, noise=0.2)


def _family_all_ties(rng: np.random.Generator, n: int) -> DistanceMatrix:
    # Every off-diagonal distance identical: the degenerate extreme of
    # tie-breaking, where every topology is optimal.
    d = float(rng.integers(1, 50))
    values = np.full((n, n), d)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values, validate=False)


def _family_near_ultrametric_noise(
    rng: np.random.Generator, n: int
) -> DistanceMatrix:
    # Ultrametric plus tiny *additive* noise, re-repaired: distances
    # whose comparisons sit within numerical tolerance of each other.
    clean = random_ultrametric_matrix(n, rng)
    noise = rng.uniform(0.0, 1e-6, size=(n, n))
    noise = np.triu(noise, k=1)
    noise = noise + noise.T
    return metric_closure(
        DistanceMatrix(clean.values + noise, clean.labels, validate=False)
    )


FAMILIES: Dict[str, Callable[[np.random.Generator, int], DistanceMatrix]] = {
    "random-int": _family_random_int,
    "random-float": _family_random_float,
    "clustered": _family_clustered,
    "hierarchical": _family_hierarchical,
    "ultrametric": _family_ultrametric,
    "perturbed": _family_perturbed,
    "all-ties": _family_all_ties,
    "near-ultrametric-noise": _family_near_ultrametric_noise,
}


# ----------------------------------------------------------------------
# one-case verification (also the CLI `repro-mut verify` engine)
# ----------------------------------------------------------------------
def verify_matrix(
    matrix: DistanceMatrix,
    methods: Sequence[str] = DEFAULT_DIFFERENTIAL_METHODS,
    *,
    seed: int = 0,
    metamorphic: bool = True,
    metamorphic_method: Optional[str] = None,
    build_fn: Optional[Callable] = None,
    recorder=None,
    metrics=None,
) -> List[Violation]:
    """Full verification of one matrix: differential + metamorphic.

    Returns every violation found.  ``metamorphic_method`` defaults to
    the first exact method in ``methods`` (metamorphic relations need
    the optimum's invariances); metamorphic checks are skipped entirely
    when no exact method is requested.
    """
    report = run_differential(
        matrix, methods, build_fn=build_fn, recorder=recorder, metrics=metrics
    )
    violations = report.violations
    if metamorphic:
        target = metamorphic_method or next(
            (m for m in methods if m in EXACT_METHODS), None
        )
        if target is not None:
            violations = violations + run_metamorphic(
                matrix, target, seed=seed, build_fn=build_fn
            )
    return violations


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_matrix(
    matrix: DistanceMatrix,
    still_fails: Callable[[DistanceMatrix], object],
    *,
    min_species: int = 3,
    max_rounds: int = 8,
) -> DistanceMatrix:
    """Greedily minimise a failing matrix while it keeps failing.

    ``still_fails`` returns a truthy value (e.g. the violation list)
    when the candidate matrix still reproduces the failure.

    Two reduction moves, applied to fixpoint (bounded by
    ``max_rounds``):

    * **drop a leaf** -- try removing each species in turn; keep the
      first removal that still fails and restart the scan;
    * **round entries** -- try rounding every entry to ``k`` decimals
      for growing ``k``; keep the coarsest rounding that is still a
      metric (so the shrunken case stays a legal input) and still fails.

    ``still_fails`` must be deterministic for the shrink to make sense;
    the fuzz loop passes a closure over a fixed seed.
    """
    current = matrix
    for _ in range(max_rounds):
        changed = False
        # Move 1: drop leaves, one at a time.
        index = 0
        while current.n > min_species and index < current.n:
            keep = [i for i in range(current.n) if i != index]
            candidate = current.submatrix(keep)
            if still_fails(candidate):
                current = candidate
                changed = True
                index = 0
            else:
                index += 1
        # Move 2: round entries to the coarsest still-failing precision.
        for decimals in range(0, 7):
            rounded = np.round(current.values, decimals)
            if np.array_equal(rounded, current.values):
                break
            candidate = DistanceMatrix(
                rounded, current.labels, validate=False
            )
            if candidate.is_metric() and still_fails(candidate):
                current = candidate
                changed = True
                break
        if not changed:
            break
    return current


# ----------------------------------------------------------------------
# the fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One failing case, after shrinking, as written to the corpus."""

    iteration: int
    family: str
    n_species: int
    violations: List[Violation]
    matrix: DistanceMatrix
    shrunk_n_species: int
    corpus_path: Optional[str] = None
    meta_path: Optional[str] = None
    repro_command: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "family": self.family,
            "n_species": self.n_species,
            "shrunk_n_species": self.shrunk_n_species,
            "violations": [v.to_json() for v in self.violations],
            "corpus_path": self.corpus_path,
            "meta_path": self.meta_path,
            "repro_command": self.repro_command,
        }


@dataclass
class FuzzReport:
    """Outcome of one ``run_fuzz`` campaign."""

    seed: int
    budget: int
    cases_run: int = 0
    families: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases_run": self.cases_run,
            "families": dict(self.families),
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
        }


def _repro_command(corpus_path: str, methods: Sequence[str]) -> str:
    return (
        f"repro-mut verify {corpus_path} --methods {','.join(methods)}"
    )


def run_fuzz(
    seed: int = 0,
    budget: int = 100,
    *,
    methods: Sequence[str] = DEFAULT_DIFFERENTIAL_METHODS,
    min_species: int = 4,
    max_species: int = 9,
    corpus_dir: Optional[str] = "corpus",
    metamorphic_every: int = 4,
    max_failures: int = 5,
    build_fn: Optional[Callable] = None,
    progress: Optional[Callable[[int, str], None]] = None,
) -> FuzzReport:
    """Run ``budget`` seeded verification cases; shrink and save failures.

    Each iteration derives its own child seed from the master ``seed``,
    cycles deterministically through :data:`FAMILIES`, draws a size in
    ``[min_species, max_species]`` and verifies the matrix with
    :func:`verify_matrix` (metamorphic relations every
    ``metamorphic_every``-th case -- they re-solve the instance several
    times).  A failing case is shrunk with :func:`shrink_matrix` and
    written to ``corpus_dir`` (created on demand; nothing is written on
    a clean run).  The campaign stops early after ``max_failures``
    distinct failures -- a systematically broken engine would otherwise
    flood the corpus with duplicates.

    ``build_fn`` substitutes the construction entry point (the mutation
    tests inject deliberately broken builders); ``progress`` receives
    ``(iteration, family)`` before each case for CLI feedback.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 3 <= min_species <= max_species:
        raise ValueError(
            "need 3 <= min_species <= max_species, got "
            f"{min_species}..{max_species}"
        )
    family_names = list(FAMILIES)
    children = np.random.SeedSequence(seed).spawn(budget)
    report = FuzzReport(seed=seed, budget=budget)
    for iteration in range(budget):
        family = family_names[iteration % len(family_names)]
        if progress is not None:
            progress(iteration, family)
        rng = np.random.default_rng(children[iteration])
        n = int(rng.integers(min_species, max_species + 1))
        matrix = FAMILIES[family](rng, n)
        case_seed = seed + iteration
        report.cases_run += 1
        report.families[family] = report.families.get(family, 0) + 1
        # One deterministic verifier for the first run and the shrink.
        check = functools.partial(
            verify_matrix,
            methods=methods,
            seed=case_seed,
            metamorphic=iteration % metamorphic_every == 0,
            build_fn=build_fn,
        )
        violations = check(matrix)
        if not violations:
            continue

        shrunk = shrink_matrix(matrix, check)
        failure = FuzzFailure(
            iteration=iteration,
            family=family,
            n_species=matrix.n,
            violations=check(shrunk) or violations,
            matrix=shrunk,
            shrunk_n_species=shrunk.n,
        )
        if corpus_dir is not None:
            _write_corpus_entry(failure, corpus_dir, seed, methods)
        report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    return report


# ----------------------------------------------------------------------
# ingestion fuzzing: mutated FASTA through the lenient pipeline
# ----------------------------------------------------------------------
#: FASTA mutation operators, cycled deterministically per iteration.
INGEST_MUTATIONS = (
    "ambiguity",
    "truncate",
    "duplicate-id",
    "blank-lines",
    "case-noise",
    "crlf",
    "drop-header",
    "garbage",
)


def _mutate_fasta(text: str, mutation: str, rng: np.random.Generator) -> str:
    """Apply one mutation operator to FASTA text.

    Operators model the damage real uploads actually carry: ambiguity
    smears, files cut off mid-transfer, copy-pasted duplicate records,
    editor artifacts (blank lines, case, CRLF), lost headers and stray
    garbage characters.  Every operator is deterministic given ``rng``.
    """
    lines = text.splitlines()
    if mutation == "ambiguity":
        codes = "RYSWKMBDHVN"
        out = []
        for line in lines:
            if line.startswith(">") or not line:
                out.append(line)
                continue
            chars = list(line)
            for i in range(len(chars)):
                if rng.random() < 0.15:
                    chars[i] = codes[int(rng.integers(0, len(codes)))]
            out.append("".join(chars))
        return "\n".join(out) + "\n"
    if mutation == "truncate":
        cut = int(rng.integers(max(1, len(text) * 2 // 3), len(text) + 1))
        return text[:cut]
    if mutation == "duplicate-id":
        headers = [i for i, line in enumerate(lines) if line.startswith(">")]
        if len(headers) >= 2:
            src, dst = rng.choice(headers, size=2, replace=False)
            lines[int(dst)] = lines[int(src)]
        return "\n".join(lines) + "\n"
    if mutation == "blank-lines":
        out = []
        for line in lines:
            out.append(line)
            if rng.random() < 0.2:
                out.append("")
        return "\n".join(out) + "\n"
    if mutation == "case-noise":
        return "".join(
            c.lower() if rng.random() < 0.5 else c for c in text
        )
    if mutation == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if mutation == "drop-header":
        headers = [i for i, line in enumerate(lines) if line.startswith(">")]
        if headers:
            victim = int(rng.choice(headers))
            del lines[victim]
        return "\n".join(lines) + "\n"
    if mutation == "garbage":
        junk = "0123456789!@#*"
        out = []
        for line in lines:
            if line.startswith(">") or not line:
                out.append(line)
                continue
            chars = list(line)
            for i in range(len(chars)):
                if rng.random() < 0.05:
                    chars[i] = junk[int(rng.integers(0, len(junk)))]
            out.append("".join(chars))
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown mutation {mutation!r}")


@dataclass
class IngestFuzzFailure:
    """One FASTA input the ingestion pipeline mishandled."""

    iteration: int
    mutation: str
    detail: str
    fasta: str
    corpus_path: Optional[str] = None
    meta_path: Optional[str] = None
    repro_command: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "mutation": self.mutation,
            "detail": self.detail,
            "corpus_path": self.corpus_path,
            "meta_path": self.meta_path,
            "repro_command": self.repro_command,
        }


@dataclass
class IngestFuzzReport:
    """Outcome of one ``run_ingest_fuzz`` campaign."""

    seed: int
    budget: int
    cases_run: int = 0
    mutations: Dict[str, int] = field(default_factory=dict)
    failures: List[IngestFuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases_run": self.cases_run,
            "mutations": dict(self.mutations),
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
        }


def _ingest_case_failure(fasta_text: str, distance: str) -> Optional[str]:
    """Run one FASTA through the lenient pipeline; describe any breakage.

    The pipeline's contract under fuzzing: *whatever* the input, it must
    either build a tree or record structured rejections -- never raise,
    never hand the solver a non-metric matrix, never produce a manifest
    that does not serialise to JSON.  Returns a human description of the
    broken property, or ``None`` when the contract held.
    """
    from repro.ingest import run_pipeline

    try:
        outcome = run_pipeline(
            fasta_text,
            text=True,
            distance=distance,
            tree_method="upgmm",
            mode="lenient",
        )
    except Exception as exc:  # noqa: BLE001 - the contract is "never raise"
        return f"pipeline raised {type(exc).__name__}: {exc}"
    try:
        json.dumps(outcome.manifest.to_json())
    except (TypeError, ValueError) as exc:
        return f"manifest not JSON-serialisable: {exc}"
    if outcome.manifest.status == "failed":
        if not outcome.manifest.rejections:
            return "failed run recorded no rejections"
        return None
    if outcome.matrix is None:
        return f"status {outcome.manifest.status} but no matrix produced"
    if not outcome.matrix.is_metric():
        return "pipeline emitted a non-metric matrix after repair"
    return None


def run_ingest_fuzz(
    seed: int = 0,
    budget: int = 50,
    *,
    seed_files: Optional[Sequence] = None,
    distance: str = "p",
    corpus_dir: Optional[str] = "corpus",
    max_failures: int = 5,
    progress: Optional[Callable[[int, str], None]] = None,
) -> IngestFuzzReport:
    """Fuzz the ingestion pipeline with mutated FASTA inputs.

    Seeds come from ``seed_files`` (paths to ``.fasta`` files -- the
    golden corpus in CI) or, when none are given, from synthetic
    HMDNA-style datasets.  Each iteration derives a child seed from the
    master ``seed``, picks a base file and a mutation operator
    deterministically, mutates, and runs the *lenient* pipeline
    end to end.  Any uncaught exception, non-metric output matrix or
    non-JSON manifest is a failure; the mutated FASTA is archived to
    ``corpus_dir`` with a sidecar holding the detail and a working
    ``repro-mut ingest`` repro command.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    bases: List[str] = []
    if seed_files:
        for path in seed_files:
            bases.append(Path(path).read_text())
    else:
        from repro.sequences.fasta import write_fasta
        from repro.sequences.hmdna import generate_hmdna_dataset
        import io

        for i in range(3):
            dataset = generate_hmdna_dataset(
                n_species=6 + i, seed=seed + i, sequence_length=80
            )
            buffer = io.StringIO()
            write_fasta(dataset.sequences, buffer)
            bases.append(buffer.getvalue())
    if not bases:
        raise ValueError("no seed FASTA inputs")

    children = np.random.SeedSequence(seed).spawn(budget)
    report = IngestFuzzReport(seed=seed, budget=budget)
    for iteration in range(budget):
        mutation = INGEST_MUTATIONS[iteration % len(INGEST_MUTATIONS)]
        if progress is not None:
            progress(iteration, mutation)
        rng = np.random.default_rng(children[iteration])
        base = bases[int(rng.integers(0, len(bases)))]
        mutated = _mutate_fasta(base, mutation, rng)
        report.cases_run += 1
        report.mutations[mutation] = report.mutations.get(mutation, 0) + 1
        detail = _ingest_case_failure(mutated, distance)
        if detail is None:
            continue
        failure = IngestFuzzFailure(
            iteration=iteration,
            mutation=mutation,
            detail=detail,
            fasta=mutated,
        )
        if corpus_dir is not None:
            _write_ingest_corpus_entry(failure, corpus_dir, seed, distance)
        report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    return report


def _write_ingest_corpus_entry(
    failure: IngestFuzzFailure,
    corpus_dir: str,
    master_seed: int,
    distance: str,
) -> None:
    from repro.version import engine_fingerprint

    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"ingest-seed{master_seed}-case{failure.iteration}"
    fasta_path = directory / f"{stem}.fasta"
    meta_path = directory / f"{stem}.json"
    fasta_path.write_text(failure.fasta)
    failure.corpus_path = str(fasta_path)
    failure.meta_path = str(meta_path)
    failure.repro_command = (
        f"repro-mut ingest {fasta_path} --distance {distance} "
        f"--mode lenient --method upgmm "
        f"--manifest {directory / (stem + '.manifest.json')}"
    )
    meta_path.write_text(
        json.dumps(
            {
                "master_seed": master_seed,
                "iteration": failure.iteration,
                "mutation": failure.mutation,
                "detail": failure.detail,
                "engine_fingerprint": engine_fingerprint(),
                "repro_command": failure.repro_command,
            },
            indent=2,
        )
        + "\n"
    )


def _write_corpus_entry(
    failure: FuzzFailure,
    corpus_dir: str,
    master_seed: int,
    methods: Sequence[str],
) -> None:
    from repro.matrix.io import write_phylip
    from repro.version import engine_fingerprint

    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"fail-seed{master_seed}-case{failure.iteration}"
    phy_path = directory / f"{stem}.phy"
    meta_path = directory / f"{stem}.json"
    write_phylip(failure.matrix, phy_path)
    failure.corpus_path = str(phy_path)
    failure.meta_path = str(meta_path)
    failure.repro_command = _repro_command(str(phy_path), methods)
    meta_path.write_text(
        json.dumps(
            {
                "master_seed": master_seed,
                "iteration": failure.iteration,
                "family": failure.family,
                "original_n_species": failure.n_species,
                "shrunk_n_species": failure.shrunk_n_species,
                "matrix_digest": failure.matrix.digest(),
                "engine_fingerprint": engine_fingerprint(),
                "methods": list(methods),
                "violations": [v.to_json() for v in failure.violations],
                "repro_command": failure.repro_command,
            },
            indent=2,
        )
        + "\n"
    )
