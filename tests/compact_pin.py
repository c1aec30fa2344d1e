"""A bit-identity pin for the compact engine's whole output.

Each pinned input is solved with ``construct_tree(matrix, "compact")``
and hashed: the payload bytes a cache stores and the server sends
(``result_payload`` dumped with sorted keys), then every
:class:`~repro.core.pipeline.SubproblemReport` field and every
:class:`~repro.bnb.search.SearchStats` field except the wall times.  A
change to the hierarchy, a reduced matrix, a seed, the search order or
the merge moves at least one digest.

The inputs are the two shapes the service solves: 40 nested-cluster
60-species matrices (perfbench's ``cold-compact`` generator) and four
24-taxon HMDNA matrices, metric-repaired as ``ingest`` repairs them.

``python tests/compact_pin.py`` prints the digests of the current
engine as the JSON stored in ``tests/data/compact_pin.json``; re-record
only after a deliberate change of output.  Plain Python (no pytest), so
``benchmarks/bench_bnb.py --smoke`` checks it too.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.bnb.search import SearchStats
from repro.core.api import construct_tree
from repro.matrix.generators import hierarchical_matrix
from repro.matrix.repair import repair_with_report
from repro.sequences.hmdna import generate_hmdna_dataset
from repro.service.cache import result_payload

PIN_PATH = Path(__file__).resolve().parent / "data" / "compact_pin.json"

#: Every ``SearchStats`` field but the wall time.
STATS_FIELDS = tuple(
    f.name for f in dataclasses.fields(SearchStats)
    if f.name != "elapsed_seconds"
)
REPORT_FIELDS = (
    "members", "size", "cost", "solver", "nodes_expanded",
    "simulated_makespan",
)


def cold_compact(seed):
    """perfbench's ``cold-compact`` shape: 60 species in nested clusters."""
    return hierarchical_matrix([[6, 6]] * 5, seed=seed, jitter=0.3)


def hmdna24(seed):
    """``ingest``'s shape: a repaired 24-taxon x 600-bp HMDNA matrix."""
    dataset = generate_hmdna_dataset(24, seed=seed, sequence_length=600)
    return repair_with_report(dataset.matrix)[0]


#: ``name -> matrix factory``, in pin order.
PIN_INPUTS = {
    **{f"cold{s}": (cold_compact, s) for s in range(40)},
    **{f"hmdna{s}": (hmdna24, s) for s in range(4)},
}


def case_digest(matrix) -> str:
    """SHA-256 of one compact solve's payload bytes, reports and stats."""
    result = construct_tree(matrix, "compact")
    payload = json.dumps(
        result_payload(result, matrix.n), sort_keys=True
    ).encode("utf-8")
    digest = hashlib.sha256(payload)
    for report in result.details.reports:
        fields = [getattr(report, name) for name in REPORT_FIELDS]
        if report.stats is not None:
            fields += [getattr(report.stats, name) for name in STATS_FIELDS]
        digest.update(repr(fields).encode("utf-8"))
    return digest.hexdigest()


def digests(names=None) -> dict:
    """``name -> case_digest`` for ``names`` (default: every input)."""
    out = {}
    for name in names if names is not None else PIN_INPUTS:
        make, seed = PIN_INPUTS[name]
        out[name] = case_digest(make(seed))
    return out


def pinned() -> dict:
    """The recorded digests."""
    return json.loads(PIN_PATH.read_text())


def mismatches(names=None) -> list:
    """The inputs whose digest differs from the recorded one."""
    want = pinned()
    return [
        name for name, got in digests(names).items() if got != want[name]
    ]


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
