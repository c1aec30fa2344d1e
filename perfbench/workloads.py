"""The benchmark's workloads and the request bodies they send.

Every body is generated from the workload seed and encoded to bytes
before the server starts, so generator CPU stays out of the measured
window and the same seed always sends the same bytes.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import clustered_matrix, hierarchical_matrix
from repro.sequences.fasta import write_fasta
from repro.sequences.hmdna import generate_hmdna_dataset

#: Distinct inputs the warm-hit clients cycle through.
WARM_POOL = 8


def _matrix_body(matrix: DistanceMatrix, method: str, **extra) -> bytes:
    body = {
        "matrix": {
            "values": matrix.values.tolist(),
            "labels": list(matrix.labels),
        },
        "method": method,
    }
    body.update(extra)
    return json.dumps(body).encode("utf-8")


def _warm_hit(rng: np.random.Generator) -> bytes:
    return _matrix_body(clustered_matrix([4, 4, 4], seed=rng), "compact")


def _cold_compact(rng: np.random.Generator) -> bytes:
    matrix = hierarchical_matrix([[6, 6]] * 5, seed=rng, jitter=0.3)
    return _matrix_body(matrix, "compact")


def _ingest(rng: np.random.Generator) -> bytes:
    # Strict-mode QC rejects an upload with two identical sequences,
    # which very short branches sometimes produce; redraw those so that
    # no request of the workload fails.
    while True:
        dataset = generate_hmdna_dataset(24, rng, sequence_length=600)
        if len(set(dataset.sequences.values())) == len(dataset.sequences):
            break
    text = io.StringIO()
    write_fasta(dataset.sequences, text)
    return json.dumps({"fasta": text.getvalue(), "verify": True}).encode()


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``per_second`` sizes a run: ``--seconds S`` sends ``per_second * S``
    measured requests, a fixed count, so every run with the same
    arguments does the same work.  It is set so that a run's measured
    phase lasts about ``S`` seconds on a 2-core host.
    """

    name: str
    why: str
    path: str
    #: Whether every request must miss the result cache.
    cold: bool
    keep_alive: bool
    per_second: float
    warmup: int
    make: Callable[[np.random.Generator], bytes]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "warm-hit",
            "keep-alive clients re-post 8 cached 12-species inputs: HTTP "
            "front, decode, digest and cache read with no solver work",
            "/solve", False, True, 44.0, 2 * WARM_POOL, _warm_hit,
        ),
        Workload(
            "cold-compact",
            "distinct 60-species nested-cluster inputs, method compact: "
            "the paper's discover/reduce/solve/merge path plus dispatch",
            "/solve", True, False, 60.0, 6, _cold_compact,
        ),
        Workload(
            "ingest",
            "distinct 24-taxon x 600-bp FASTA uploads with verify: "
            "parse/QC/distance/repair on the request thread plus oracles",
            "/ingest", True, False, 28.0, 4, _ingest,
        ),
    )
}


def _rng(workload: Workload, seed: int, phase: int, index: int):
    stream = zlib.crc32(workload.name.encode("utf-8"))
    return np.random.default_rng([seed, stream, phase, index])


#: ``phase`` numbers: measured bodies, and one warm-up set per server.
MEASURE_PHASE = 0


def warmup_phase(round_index: int) -> int:
    return 1 + round_index


def make_body(name: str, seed: int, phase: int, index: int) -> bytes:
    """Body ``index`` of ``phase`` of workload ``name``: a pure function
    of its arguments, so any process can make it."""
    workload = WORKLOADS[name]
    return workload.make(_rng(workload, seed, phase, index))


def make_bodies(
    workload: Workload, seed: int, phase: int, count: int, mapper=map,
) -> List[bytes]:
    """``count`` request bodies for ``phase`` of one run.

    Cold workloads get a distinct input per request, per phase, so no
    cache key repeats within a run.  ``warm-hit`` cycles through a pool
    of :data:`WARM_POOL` inputs shared by every phase, which warm-up
    primes into the cache.  ``mapper`` is ``map`` or a process pool's
    ``map``; the bodies do not depend on it.
    """
    if not workload.cold:
        pool = list(mapper(
            partial(make_body, workload.name, seed, MEASURE_PHASE),
            range(WARM_POOL),
        ))
        return [pool[i % WARM_POOL] for i in range(count)]
    return list(mapper(
        partial(make_body, workload.name, seed, phase), range(count)
    ))
