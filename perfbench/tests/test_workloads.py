"""Workload generation and the benchmark's declared metric set."""

import hashlib
import json
from pathlib import Path

import pytest

from ledger import LAYER_UNITS
from repro.matrix.distance_matrix import DistanceMatrix
from repro.service.cache import cache_key
from run import END_TO_END_UNITS
from workloads import (
    MEASURE_PHASE,
    WARM_POOL,
    WORKLOADS,
    make_bodies,
    warmup_phase,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _digests(bodies):
    return [hashlib.sha256(body).hexdigest() for body in bodies]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bodies(name):
    workload = WORKLOADS[name]
    first = make_bodies(workload, 7, MEASURE_PHASE, 3)
    again = make_bodies(workload, 7, MEASURE_PHASE, 3)
    other = make_bodies(workload, 8, MEASURE_PHASE, 3)
    assert _digests(first) == _digests(again)
    assert _digests(first) != _digests(other)


def _keys(workload, bodies):
    keys = []
    for body in bodies:
        request = json.loads(body)
        if workload.path == "/ingest":
            # The server derives the matrix; the upload is the address.
            keys.append(hashlib.sha256(request["fasta"].encode()).hexdigest())
            continue
        raw = request["matrix"]
        matrix = DistanceMatrix(raw["values"], raw["labels"])
        keys.append(cache_key(matrix, request["method"],
                              request.get("options") or {}))
    return keys


@pytest.mark.parametrize(
    "name", sorted(n for n, w in WORKLOADS.items() if w.cold)
)
def test_cold_workloads_never_repeat_a_key_within_a_run(name):
    workload = WORKLOADS[name]
    bodies = make_bodies(workload, 3, MEASURE_PHASE, 6)
    for round_index in range(3):
        bodies += make_bodies(workload, 3, warmup_phase(round_index), 2)
    keys = _keys(workload, bodies)
    assert len(set(keys)) == len(keys)


def test_warm_hit_cycles_a_pool_shared_with_warmup():
    workload = WORKLOADS["warm-hit"]
    measured = make_bodies(workload, 3, MEASURE_PHASE, 3 * WARM_POOL)
    warmup = make_bodies(workload, 3, warmup_phase(0), workload.warmup)
    assert len(set(measured)) == WARM_POOL
    assert set(measured) == set(warmup)


def test_benchmark_json_declares_what_the_run_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
