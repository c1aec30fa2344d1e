"""Property: the API and the scheduler share one cache read/write path.

``construct_tree_cached`` and :class:`Scheduler` both read and write the
result cache through :func:`repro.service.cache.cached_solve`, so an
entry either one wrote is a hit for either, and what a hit returns is a
tree that passes the result oracles at the cost stored with it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import construct_tree_cached
from repro.matrix.generators import random_metric_matrix
from repro.obs import MetricsRegistry, Recorder
from repro.service.cache import ResultCache, cache_key
from repro.service.scheduler import Scheduler
from repro.tree.newick import parse_newick
from repro.verify.oracles import run_oracles

MATRICES = [random_metric_matrix(n, seed=n) for n in (5, 6, 7)]
METHODS = ("upgmm", "bnb", "compact")
CALLERS = ("api", "scheduler")

solves = st.tuples(
    st.sampled_from(CALLERS),
    st.integers(0, len(MATRICES) - 1),
    st.sampled_from(METHODS),
)


def solve_through(caller, scheduler, matrix, method):
    """One solve through ``caller``; returns the payload it answered with
    (``None`` for an API miss, whose details is the engine's result)."""
    if caller == "scheduler":
        return scheduler.solve(matrix, method, timeout=60.0)
    result = construct_tree_cached(
        matrix,
        method,
        cache=scheduler.cache,
        recorder=scheduler.recorder,
        metrics=scheduler.metrics,
    )
    return result.details if isinstance(result.details, dict) else None


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    writes=st.lists(solves, min_size=1, max_size=5),
    reader=st.sampled_from(CALLERS),
)
def test_any_writer_then_any_reader_reads_a_verified_tree(writes, reader):
    cache = ResultCache()
    rec = Recorder()
    metrics = MetricsRegistry()
    with Scheduler(
        workers=1, cache=cache, recorder=rec, metrics=metrics
    ) as scheduler:
        for writer, index, method in writes:
            solve_through(writer, scheduler, MATRICES[index], method)
        for _, index, method in writes:
            matrix = MATRICES[index]
            stored = cache.get(cache_key(matrix, method), count=False)
            hits = rec.counter_total("cache.hit")
            payload = solve_through(reader, scheduler, matrix, method)
            assert rec.counter_total("cache.hit") == hits + 1
            assert payload == stored
            violations = run_oracles(
                parse_newick(payload["newick"]),
                matrix,
                reported_cost=stored["cost"],
                method=method,
            )
            assert violations == [], [v.to_json() for v in violations]
    assert metrics.counter("cache.hit").value() == rec.counter_total(
        "cache.hit"
    )
    assert metrics.counter("cache.miss").value() == rec.counter_total(
        "cache.miss"
    )
