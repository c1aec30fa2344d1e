"""Recorder unit tests: span nesting, counters, JSONL schema, no-op cost."""

import io
import itertools
import json
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    CounterEvent,
    NullRecorder,
    Recorder,
    SpanEvent,
    as_recorder,
    read_jsonl,
)


def ticking_clock():
    """A deterministic clock: 0.0, 1.0, 2.0, ... per call."""
    counter = itertools.count()
    return lambda: float(next(counter))


class TestSpanNesting:
    def test_single_span(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("work", n=5) as handle:
            assert handle.id == 1
            assert handle.start == 0.0
            assert handle.end is None
        assert handle.end == 1.0
        (event,) = rec.spans()
        assert event == SpanEvent(
            id=1, parent=None, name="work", start=0.0, end=1.0, attrs={"n": 5}
        )
        assert event.duration == 1.0

    def test_nested_spans_link_parents(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("outer"):
            with rec.span("middle"):
                with rec.span("inner"):
                    pass
        by_name = {e.name: e for e in rec.spans()}
        assert by_name["outer"].parent is None
        assert by_name["middle"].parent == by_name["outer"].id
        assert by_name["inner"].parent == by_name["middle"].id

    def test_siblings_share_parent(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("outer"):
            with rec.span("first"):
                pass
            with rec.span("second"):
                pass
        by_name = {e.name: e for e in rec.spans()}
        assert by_name["first"].parent == by_name["outer"].id
        assert by_name["second"].parent == by_name["outer"].id

    def test_span_closes_on_exception(self):
        rec = Recorder(clock=ticking_clock())
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        (event,) = rec.spans("doomed")
        assert event.end is not None
        # The stack unwound: a new span is a root again.
        with rec.span("after"):
            pass
        assert rec.spans("after")[0].parent is None

    def test_spans_appear_in_close_order(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        assert [e.name for e in rec.spans()] == ["inner", "outer"]

    def test_add_span_parents_to_open_span(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("outer"):
            event = rec.add_span("worker", 10.0, 12.5, worker=3)
        assert event.parent == rec.spans("outer")[0].id
        assert event.start == 10.0 and event.end == 12.5
        assert event.attrs == {"worker": 3}

    def test_detached_block_records_roots_then_restores_the_stack(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("outer"):
            with rec.detached():
                with rec.span("job"):
                    rec.counter("hits")
                rec.counter("loose")
            with rec.span("after"):
                pass
        outer = rec.spans("outer")[0]
        job = rec.spans("job")[0]
        assert job.parent is None
        assert rec.counters("hits")[0].span == job.id
        assert rec.counters("loose")[0].span is None
        assert rec.spans("after")[0].parent == outer.id

    def test_detached_is_per_thread(self):
        rec = Recorder(clock=ticking_clock())
        inside = threading.Event()
        release = threading.Event()

        def other():
            with rec.detached():
                inside.set()
                release.wait(10.0)

        with rec.span("outer"):
            thread = threading.Thread(target=other)
            thread.start()
            assert inside.wait(10.0)
            with rec.span("mine"):
                pass
            release.set()
            thread.join(10.0)
        assert rec.spans("mine")[0].parent == rec.spans("outer")[0].id


class TestCounters:
    def test_counter_attaches_to_open_span(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("solve"):
            rec.counter("nodes", 7)
        rec.counter("nodes", 3)
        first, second = rec.counters("nodes")
        assert first.span == rec.spans("solve")[0].id
        assert second.span is None
        assert rec.counter_total("nodes") == 10

    def test_counter_default_value(self):
        rec = Recorder(clock=ticking_clock())
        rec.counter("ticks")
        rec.counter("ticks")
        assert rec.counter_total("ticks") == 2

    def test_counter_total_missing_name(self):
        rec = Recorder(clock=ticking_clock())
        assert rec.counter_total("nothing") == 0.0


class TestJsonl:
    def expected_events(self):
        return [
            {
                "event": "counter", "name": "hits", "value": 2,
                "time": 1.0, "span": 1, "attrs": {},
            },
            {
                "event": "span", "id": 2, "parent": 1, "name": "inner",
                "start": 2.0, "end": 3.0, "duration": 1.0, "attrs": {},
            },
            {
                "event": "span", "id": 1, "parent": None, "name": "outer",
                "start": 0.0, "end": 4.0, "duration": 4.0, "attrs": {"n": 3},
            },
        ]

    def record(self):
        rec = Recorder(clock=ticking_clock())
        with rec.span("outer", n=3):
            rec.counter("hits", 2)
            with rec.span("inner"):
                pass
        return rec

    def test_golden_schema(self):
        from repro.version import engine_fingerprint

        lines = self.record().json_lines()
        meta = json.loads(lines[0])
        assert meta["event"] == "meta"
        assert meta["schema"] == SCHEMA_VERSION
        # The meta line identifies the engine that produced the trace.
        assert meta["engine"] == engine_fingerprint()
        assert [json.loads(line) for line in lines[1:]] == self.expected_events()

    def test_write_and_read_round_trip(self, tmp_path):
        rec = self.record()
        path = tmp_path / "events.jsonl"
        rec.write_jsonl(path)
        assert read_jsonl(path) == rec.events

    def test_round_trip_via_file_object(self):
        rec = self.record()
        buffer = io.StringIO()
        rec.write_jsonl(buffer)
        buffer.seek(0)
        assert read_jsonl(buffer) == rec.events

    def test_read_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            read_jsonl(io.StringIO('{"event": "meta", "schema": 999}\n'))

    def test_read_rejects_unknown_event_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            read_jsonl(io.StringIO('{"event": "mystery"}\n'))

    def test_read_skips_blank_lines(self):
        events = read_jsonl(io.StringIO(
            '{"event": "meta", "schema": 1}\n\n'
            '{"event": "counter", "name": "x", "value": 1, "time": 0.0}\n'
        ))
        assert events == [CounterEvent(name="x", value=1, time=0.0)]


class TestNullRecorder:
    def test_records_nothing(self):
        rec = NullRecorder()
        with rec.span("work") as handle, rec.detached():
            rec.counter("nodes", 5)
            rec.add_span("worker", 0.0, 1.0)
        assert handle.start is None and handle.end is None
        assert handle.duration == 0.0
        assert rec.events == []
        assert rec.spans() == [] and rec.counters() == []
        assert rec.counter_total("nodes") == 0.0

    def test_as_recorder(self):
        assert as_recorder(None) is NULL_RECORDER
        rec = Recorder()
        assert as_recorder(rec) is rec

    def test_injected_clock_is_exposed(self):
        clock = ticking_clock()
        rec = NullRecorder(clock)
        assert rec.clock is clock
        assert rec.clock() == 0.0

    def test_null_span_overhead_smoke(self):
        # The engines call span() on the hot path with recording off; it
        # must stay allocation-free and cheap.  Extremely generous bound
        # so the test never flakes on slow CI: 100k no-op spans < 1s.
        rec = NULL_RECORDER
        start = time.perf_counter()
        for _ in range(100_000):
            with rec.span("hot"):
                pass
        assert time.perf_counter() - start < 1.0


class TestIngest:
    """Cross-process event forwarding: ``Recorder.ingest``."""

    def _child_events(self):
        """Events as a worker process would ship them: wire tuples, with
        children recorded (closed) before their parents."""
        child = Recorder(clock=ticking_clock())
        with child.span("outer", n=4):
            with child.span("inner"):
                child.counter("ticks", 3)
        return [e.to_wire() for e in child.events]

    def test_parent_links_survive_remapping(self):
        parent = Recorder(clock=ticking_clock())
        ingested = parent.ingest(self._child_events())
        assert ingested == 3
        outer = parent.spans("outer")[0]
        inner = parent.spans("inner")[0]
        assert inner.parent == outer.id
        assert parent.counters("ticks")[0].span == inner.id

    def test_roots_nest_under_open_span(self):
        parent = Recorder(clock=ticking_clock())
        with parent.span("service.job") as job:
            parent.ingest(self._child_events())
        assert parent.spans("outer")[0].parent == job.id

    def test_offset_rebases_timestamps(self):
        parent = Recorder(clock=ticking_clock())
        parent.ingest(self._child_events(), offset=50.0)
        outer = parent.spans("outer")[0]
        assert outer.start >= 50.0
        assert outer.end > outer.start
        assert parent.counters("ticks")[0].time >= 50.0

    def test_meta_lines_are_skipped(self):
        parent = Recorder()
        assert parent.ingest([("meta", 1)]) == 0

    def test_null_recorder_ingests_nothing(self):
        assert NullRecorder().ingest([("counter",)]) == 0


_NAMES = st.sampled_from(["pipeline.node", "bnb.solve", "bnb.nodes", "x"])
_ATTRS = st.dictionaries(
    st.sampled_from(["n", "trace_id", "size"]),
    st.one_of(st.integers(-5, 5), st.text(max_size=3)),
    max_size=2,
)
#: A forest of ``("span", name, attrs, children)`` and
#: ``("counter", name, value, attrs)`` nodes.
_FOREST = st.lists(
    st.recursive(
        st.tuples(st.just("counter"), _NAMES, st.integers(0, 9), _ATTRS),
        lambda children: st.tuples(
            st.just("span"), _NAMES, _ATTRS, st.lists(children, max_size=3)
        ),
        max_leaves=12,
    ),
    max_size=3,
)


def _record_forest(rec, forest):
    for node in forest:
        if node[0] == "span":
            _, name, attrs, children = node
            with rec.span(name, **attrs):
                _record_forest(rec, children)
        else:
            _, name, value, attrs = node
            rec.counter(name, value, **attrs)


class TestWireRoundTrip:
    """A child trace survives ``to_wire`` -> pickle -> ``ingest``."""

    @settings(max_examples=60, deadline=None)
    @given(forest=_FOREST, anchor=st.integers(-10**6, 10**6).map(lambda k: k / 8))
    def test_structure_kept_and_every_timestamp_shifted_by_the_anchor(
        self, forest, anchor
    ):
        child = Recorder(clock=ticking_clock())
        _record_forest(child, forest)
        wire = pickle.loads(pickle.dumps([e.to_wire() for e in child.events]))
        parent = Recorder(clock=ticking_clock())
        with parent.span("service.job") as job:
            assert parent.ingest(wire, offset=anchor) == len(child.events)
        sent = child.events
        landed = parent.events[:-1]  # the service.job span closes last
        assert len(landed) == len(sent)
        # Links compared as event positions; a child root (no parent)
        # must land under the parent's open span.
        child_index = {e.id: i for i, e in enumerate(sent) if isinstance(e, SpanEvent)}
        child_index[None] = "root"
        parent_index = {
            e.id: i for i, e in enumerate(landed) if isinstance(e, SpanEvent)
        }
        parent_index[job.id] = "root"
        for a, b in zip(sent, landed):
            assert type(a) is type(b)
            assert (a.name, a.attrs) == (b.name, b.attrs)
            if isinstance(a, SpanEvent):
                assert child_index[a.parent] == parent_index[b.parent]
                assert (b.start, b.end) == (a.start + anchor, a.end + anchor)
                assert b.duration == a.duration
            else:
                assert child_index[a.span] == parent_index[b.span]
                assert b.time == a.time + anchor
                assert b.value == a.value
