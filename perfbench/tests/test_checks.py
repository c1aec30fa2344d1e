"""The per-response correctness check and the process pool it runs in."""

import json

from repro.core.api import construct_tree
from repro.matrix.distance_matrix import DistanceMatrix
from repro.tree.newick import to_newick
from run import _pool, check_response
from workloads import MEASURE_PHASE, WORKLOADS, make_bodies


def _solved(body: bytes, **changes) -> bytes:
    """The job record a correct server returns for ``body``."""
    request = json.loads(body)
    raw = request["matrix"]
    result = construct_tree(DistanceMatrix(raw["values"], raw["labels"]),
                            request["method"])
    record = {
        "state": "done",
        "cache": "miss",
        "method": request["method"],
        "result": {"newick": to_newick(result.tree, precision=12),
                   "cost": result.cost},
    }
    record.update(changes)
    return json.dumps(record).encode()


def test_a_correct_answer_passes_and_a_wrong_one_fails():
    body = make_bodies(WORKLOADS["cold-compact"], 1, MEASURE_PHASE, 1)[0]
    problem, record = check_response("cold-compact", 200, None,
                                     _solved(body), body)
    assert problem is None and record["state"] == "done"

    wrong = json.loads(_solved(body))
    wrong["result"]["cost"] += 1.0
    problem, record = check_response("cold-compact", 200, None,
                                     json.dumps(wrong).encode(), body)
    assert "cost" in problem and record is None

    problem, _ = check_response("cold-compact", 200, None,
                                _solved(body, cache="hit"), body)
    assert "cache" in problem
    problem, _ = check_response("cold-compact", 503, None, b"", body)
    assert "HTTP 503" in problem


def test_pool_makes_the_same_bodies_as_map():
    workload = WORKLOADS["cold-compact"]
    with _pool() as pool:
        pooled = make_bodies(workload, 9, MEASURE_PHASE, 5, pool)
    assert pooled == make_bodies(workload, 9, MEASURE_PHASE, 5)
