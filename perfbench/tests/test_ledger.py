"""The benchmark's arithmetic: percentiles, metric deltas, self time."""

from types import SimpleNamespace

import pytest

from ledger import (
    LAYER_ROWS,
    delta_total,
    host_scale,
    layer_rows,
    metric_deltas,
    percentile,
    percentile_supported,
    samples_beyond,
    self_times,
    trace_by_request,
)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert percentile_supported(100, 0.9)
    assert samples_beyond(99, 0.9) == 9
    assert not percentile_supported(99, 0.9)
    assert percentile_supported(20, 0.5)
    assert not percentile_supported(19, 0.5)


def test_host_scale_moves_only_the_cpu_bound_share():
    # At least one core busy: all of the time moves with the host.
    assert host_scale(1.0, 0.5) == pytest.approx(0.5)
    assert host_scale(1.7, 0.5) == pytest.approx(0.5)
    # Idle cores (timer-bound waits) count as measured.
    assert host_scale(0.0, 0.5) == pytest.approx(1.0)
    assert host_scale(0.1, 0.5) == pytest.approx(0.95)
    # On a host of reference speed nothing changes.
    assert host_scale(0.4, 1.0) == pytest.approx(1.0)


def _snapshot(hits, miss_sum, miss_count, depth):
    return {
        "cache.hit": {"type": "counter", "series": [
            {"labels": {}, "value": hits}]},
        "service.job.seconds": {"type": "histogram", "series": [
            {"labels": {"method": "bnb", "cache": "miss"},
             "count": miss_count, "sum": miss_sum},
        ]},
        "service.queue.depth": {"type": "gauge", "series": [
            {"labels": {}, "value": depth}]},
    }


def test_metric_deltas_subtract_per_series_and_skip_gauges():
    before = _snapshot(hits=5, miss_sum=1.0, miss_count=4, depth=3)
    after = _snapshot(hits=12, miss_sum=2.5, miss_count=10, depth=0)
    after["solve.seconds"] = {"type": "histogram", "series": [
        {"labels": {"method": "bnb"}, "count": 6, "sum": 1.2}]}
    deltas = metric_deltas(before, after)
    assert "service.queue.depth" not in deltas
    assert delta_total(deltas, "cache.hit", "value") == 7
    assert delta_total(deltas, "service.job.seconds", "count",
                       cache="miss") == 6
    assert delta_total(deltas, "service.job.seconds", "sum",
                       cache="miss") == pytest.approx(1.5)
    assert delta_total(deltas, "service.job.seconds", "count",
                       cache="hit") == 0
    # A series born inside the window counts from zero.
    assert delta_total(deltas, "solve.seconds", "sum") == pytest.approx(1.2)
    assert delta_total(deltas, "absent", "sum") == 0


def _span(id, parent, name, start, end, **attrs):
    return SimpleNamespace(id=id, parent=parent, name=name, start=start,
                           end=end, attrs=attrs)


def _counter(name, value, **attrs):
    return SimpleNamespace(name=name, value=value, attrs=attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "service.job", 0.0, 10.0),
        _span(2, 1, "pipeline.discover", 1.0, 4.0),
        _span(3, 1, "pipeline.solve", 3.0, 6.0),  # overlaps span 2
        _span(4, 3, "bnb.solve", 3.5, 5.5),
        _span(5, 1, "pipeline.merge", 9.0, 11.0),  # clipped at the end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)


def test_trace_by_request_groups_by_trace_id():
    events = [
        _span(1, None, "service.job", 0.0, 4.0, trace_id="t-0"),
        _span(2, 1, "pipeline.solve", 1.0, 3.0, trace_id="t-0", size=5),
        _span(3, 2, "bnb.solve", 1.0, 2.0, trace_id="t-0",
              **{"bnb.prune_fraction": 0.5}),
        _span(4, None, "service.job", 0.0, 1.0, trace_id="other"),
        _counter("bnb.nodes_expanded", 40, trace_id="t-0"),
        _counter("bnb.nodes_expanded", 2, trace_id="t-0"),
        _counter("bnb.nodes_expanded", 99, trace_id="other"),
    ]
    rows = trace_by_request(events, ["t-0", "t-1"])
    assert set(rows) == {"t-0", "t-1"}
    row = rows["t-0"]
    assert row["service.job"] == pytest.approx(2.0)
    assert row["pipeline.solve"] == pytest.approx(1.0)
    assert row["#pipeline.solve"] == 1
    assert row["max_subproblem"] == 5
    assert row["+bnb.nodes_expanded"] == 42
    assert row["prune_fraction_sum"] == pytest.approx(0.5)
    assert dict(rows["t-1"]) == {}


def test_layer_rows_account_for_the_median_latency():
    records = [
        {"submitted_at": 0.0, "started_at": 0.001, "finished_at": 0.011},
        {"submitted_at": 0.0, "started_at": 0.001, "finished_at": 0.011},
        {"submitted_at": 0.0, "started_at": 0.001, "finished_at": 0.011},
    ]
    deltas = metric_deltas({}, {
        "cache.miss": {"type": "counter", "series": [
            {"labels": {}, "value": 3}]},
        "solve.seconds": {"type": "histogram", "series": [
            {"labels": {"method": "compact"}, "count": 3, "sum": 0.024}]},
        "service.job.seconds": {"type": "histogram", "series": [
            {"labels": {"method": "compact", "cache": "miss"},
             "count": 3, "sum": 0.030}]},
    })
    rows = layer_rows(
        records=records,
        latencies_s=[0.015, 0.015, 0.015],
        untraced_p50_ms=12.0,
        deltas=deltas,
        per_request={},
        direct={"matrix.decode_ms": 0.5, "matrix.digest_ms": 0.25},
    )
    assert set(rows) == set(LAYER_ROWS)
    assert rows["cache.hit_ratio"] == 0.0
    assert rows["server.front_ms"] == pytest.approx(4.0)
    assert rows["scheduler.queue_wait_ms"] == pytest.approx(1.0)
    assert rows["scheduler.job_ms"] == pytest.approx(10.0)
    assert rows["engine.solve_ms"] == pytest.approx(8.0)
    assert rows["executor.dispatch_ms"] == pytest.approx(2.0)
    # 15 ms = 0.5 decode + 0.25 digest + 1 queue + 10 job + 3.25 residual
    assert rows["obs.unattributed_ms"] == pytest.approx(3.25)
    assert rows["obs.trace_overhead_pct"] == pytest.approx(25.0)
