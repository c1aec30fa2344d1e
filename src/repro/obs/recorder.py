"""The :class:`Recorder`: spans, counters and JSON-lines export.

Design constraints, in order:

1. **Zero-cost when off.**  Every engine defaults to the shared
   :data:`NULL_RECORDER`, whose ``span``/``counter``/``add_span`` are
   allocation-free no-ops, so the branch-and-bound hot loops and the
   UPGMM vectorised path stay exactly as fast as before.
2. **Deterministic when tested.**  The clock is injectable
   (``Recorder(clock=fake)``), so span timestamps -- and therefore the
   JSON-lines output -- are reproducible byte for byte in tests.
3. **One flat event list.**  Spans carry ``id``/``parent`` links instead
   of being nested objects; consumers (the profile view, the Gantt
   projection in :mod:`repro.parallel.trace`) rebuild whatever tree or
   timeline they need.

Event schema (JSON lines, one object per line; see
``docs/observability.md``)::

    {"event": "meta", "schema": 1}
    {"event": "span", "id": 1, "parent": null, "name": "pipeline.build",
     "start": 0.0, "end": 1.5, "duration": 1.5, "attrs": {"n": 26}}
    {"event": "counter", "name": "bnb.nodes_expanded", "value": 42,
     "time": 1.2, "span": 1, "attrs": {}}
"""

from __future__ import annotations

import contextvars
import io as _io
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "meta_record",
    "Span",
    "SpanEvent",
    "CounterEvent",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_recorder",
    "read_jsonl",
    "TraceEvents",
    "current_trace_id",
    "trace_context",
]

#: Version stamped into the ``meta`` line of every JSON-lines export.
SCHEMA_VERSION = 1


def meta_record() -> Dict[str, object]:
    """The ``meta`` line every JSON-lines export starts with.

    Carries the schema version (what :func:`read_jsonl` validates) plus
    the engine fingerprint (``repro.version.engine_fingerprint``), so a
    trace file identifies the code that produced it.  Readers ignore the
    extra keys; old traces without them still parse.
    """
    from repro.version import engine_fingerprint

    return {
        "event": "meta",
        "schema": SCHEMA_VERSION,
        "engine": engine_fingerprint(),
    }

Event = Union["SpanEvent", "CounterEvent"]

#: The ambient trace id (request correlation).  A ``contextvars`` var so
#: each scheduler worker thread -- and any task it spawns -- sees the id
#: of the job it is currently executing, with zero signature churn in
#: the engines.
_TRACE_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def current_trace_id() -> Optional[str]:
    """The trace id of the enclosing :func:`trace_context`, or ``None``."""
    return _TRACE_ID.get()


@contextmanager
def trace_context(trace_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``trace_id`` as the ambient trace id for the block.

    Every span and counter recorded inside the block (on the same thread
    or context) automatically carries ``attrs["trace_id"]``, which is
    how one HTTP request's id reaches the ``pipeline.*`` / ``bnb.*`` /
    ``mp.worker`` events it causes.  ``None`` is a no-op, so call sites
    can pass an optional id unconditionally.
    """
    if trace_id is None:
        yield None
        return
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


def _stamp_trace_id(attrs: Dict[str, object]) -> Dict[str, object]:
    """Add the ambient trace id to ``attrs`` unless already present."""
    trace_id = _TRACE_ID.get()
    if trace_id is not None and "trace_id" not in attrs:
        attrs["trace_id"] = trace_id
    return attrs


@dataclass(frozen=True)
class SpanEvent:
    """A closed, timed phase of work."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {
            "event": "span",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    def to_wire(self) -> tuple:
        """The plain tuple :meth:`Recorder.ingest` reads (cheap to pickle)."""
        return ("span", self.id, self.parent, self.name, self.start,
                self.end, self.attrs)


@dataclass(frozen=True)
class CounterEvent:
    """A named tally emitted at a point in time."""

    name: str
    value: float
    time: float
    span: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "event": "counter",
            "name": self.name,
            "value": self.value,
            "time": self.time,
            "span": self.span,
            "attrs": self.attrs,
        }

    def to_wire(self) -> tuple:
        """The plain tuple :meth:`Recorder.ingest` reads (cheap to pickle)."""
        return ("counter", self.name, self.value, self.time, self.span,
                self.attrs)


class Span:
    """Handle for a span that is currently open on a :class:`Recorder`.

    ``start``/``end`` are recorder-clock timestamps; ``end`` is ``None``
    until the ``with`` block exits.  The null recorder hands out a shared
    sentinel whose timestamps stay ``None``.
    """

    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(
        self,
        id: Optional[int],
        parent: Optional[int],
        name: str,
        start: Optional[float],
        attrs: Dict[str, object],
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start


class _NullContext:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ("_span",)

    def __init__(self) -> None:
        self._span = Span(None, None, "", None, {})

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> bool:
        return False


class NullRecorder:
    """Recorder that records nothing (the engines' default).

    It still carries a ``clock`` so callers can time work consistently
    through an injected clock even when nothing is recorded (the batch
    runner relies on this).
    """

    enabled = False

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._null_context = _NullContext()

    @property
    def events(self) -> List[Event]:
        return []

    def span(self, name: str, **attrs) -> _NullContext:
        return self._null_context

    def detached(self) -> _NullContext:
        return self._null_context

    def add_span(
        self, name: str, start: float, end: float, **attrs
    ) -> None:
        return None

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        return None

    def spans(self, name: Optional[str] = None) -> List[SpanEvent]:
        return []

    def counters(self, name: Optional[str] = None) -> List[CounterEvent]:
        return []

    def counter_total(self, name: str) -> float:
        return 0.0

    def ingest(self, events, *, offset: float = 0.0) -> int:
        return 0


#: Shared default instance; engines use it when no recorder is supplied.
NULL_RECORDER = NullRecorder()


class Recorder(NullRecorder):
    """In-memory event sink with span nesting and JSON-lines export.

    Thread-safe: the span *stack* is thread-local (each thread nests its
    own spans; a span opened on thread A never becomes the parent of a
    span opened on thread B), while the event list and id allocation are
    guarded by a lock, so worker-pool engines and the serving layer can
    share one recorder and land every event in a single trace stream.
    Single-threaded behaviour -- including event order and span ids under
    a deterministic clock -- is unchanged.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(clock)
        self._events: List[Event] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    @classmethod
    def of(cls, events: Iterable[Event]) -> "Recorder":
        """A recorder holding ``events`` as they are (ids and times kept),
        e.g. to write a filtered trace back out."""
        recorder = cls()
        recorder._events = list(events)
        return recorder

    def _stack_for_thread(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Event]:
        """All recorded events; spans appear when they *close*."""
        with self._lock:
            return list(self._events)

    def _record(self, event: Event) -> None:
        """Land one closed event.  Every recording path funnels through
        here, so sinks (the streaming recorder) override a single spot."""
        with self._lock:
            self._events.append(event)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested, timed span around a ``with`` block."""
        _stamp_trace_id(attrs)
        stack = self._stack_for_thread()
        parent = stack[-1].id if stack else None
        handle = Span(self._allocate_id(), parent, name, self.clock(), attrs)
        stack.append(handle)
        try:
            yield handle
        finally:
            handle.end = self.clock()
            stack.pop()
            self._record(SpanEvent(
                id=handle.id,
                parent=handle.parent,
                name=name,
                start=handle.start,
                end=handle.end,
                attrs=attrs,
            ))

    @contextmanager
    def detached(self) -> Iterator[None]:
        """Record the block as if on a fresh thread: the calling
        thread's open spans are set aside, so spans and counters opened
        inside become roots (the scheduler serves a cache hit this way
        on whatever thread admitted it, inside an ``ingest.stage`` span
        or not)."""
        outer = self._stack_for_thread()
        self._local.stack = []
        try:
            yield
        finally:
            self._local.stack = outer

    def add_span(
        self, name: str, start: float, end: float, **attrs
    ) -> SpanEvent:
        """Record an externally timed span (e.g. a simulated worker's busy
        interval, or a worker process timed by the master).  It is parented
        to whatever span is currently open on the calling thread."""
        _stamp_trace_id(attrs)
        stack = self._stack_for_thread()
        parent = stack[-1].id if stack else None
        event = SpanEvent(
            id=self._allocate_id(), parent=parent, name=name,
            start=start, end=end, attrs=attrs,
        )
        self._record(event)
        return event

    def counter(self, name: str, value: float = 1, **attrs) -> CounterEvent:
        """Record a named tally, attached to the calling thread's open span."""
        _stamp_trace_id(attrs)
        stack = self._stack_for_thread()
        span_id = stack[-1].id if stack else None
        event = CounterEvent(
            name=name, value=value, time=self.clock(), span=span_id, attrs=attrs
        )
        self._record(event)
        return event

    def ingest(self, events, *, offset: float = 0.0) -> int:
        """Replay events from another process into this trace.

        ``events`` is a list of :meth:`SpanEvent.to_wire` /
        :meth:`CounterEvent.to_wire` tuples (what a worker process ships
        back across a queue); ``offset`` is added to every timestamp,
        re-basing the child's clock onto this recorder's (the two
        ``perf_counter`` origins are not comparable across processes).
        Span ids are freshly allocated with parent links preserved;
        events whose parent did not cross the boundary (and root events)
        are parented to the calling thread's currently open span, so a
        forwarded worker trace nests inside the parent's ``service.job``
        span exactly like locally recorded work.  Returns the number of
        events ingested; unknown kinds are skipped.
        """
        stack = self._stack_for_thread()
        root_parent = stack[-1].id if stack else None
        # Two passes: ids first, so a child span recorded before its
        # parent closed still maps its parent link correctly.  A ``None``
        # parent is never a key, so roots map to ``root_parent`` too.
        id_map = {
            record[1]: self._allocate_id()
            for record in events
            if record[0] == "span"
        }
        ingested = 0
        for kind, *fields in events:
            if kind == "span":
                span_id, parent, name, start, end, attrs = fields
                self._record(SpanEvent(
                    id_map[span_id], id_map.get(parent, root_parent), name,
                    start + offset, end + offset, dict(attrs),
                ))
            elif kind == "counter":
                name, value, at, span, attrs = fields
                self._record(CounterEvent(
                    name, value, at + offset,
                    id_map.get(span, root_parent), dict(attrs),
                ))
            else:
                continue
            ingested += 1
        return ingested

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[SpanEvent]:
        return [
            e for e in self.events
            if isinstance(e, SpanEvent) and (name is None or e.name == name)
        ]

    def counters(self, name: Optional[str] = None) -> List[CounterEvent]:
        return [
            e for e in self.events
            if isinstance(e, CounterEvent) and (name is None or e.name == name)
        ]

    def counter_total(self, name: str) -> float:
        """Sum of every counter event with this name."""
        return sum(e.value for e in self.counters(name))

    # ------------------------------------------------------------------
    # JSON-lines export
    # ------------------------------------------------------------------
    def json_lines(self) -> List[str]:
        """The serialized event stream, meta line first."""
        lines = [json.dumps(meta_record(), sort_keys=True)]
        lines.extend(
            json.dumps(event.to_json(), sort_keys=True) for event in self.events
        )
        return lines

    def write_jsonl(
        self, destination: Union[str, Path, _io.TextIOBase]
    ) -> None:
        """Write the event stream as JSON lines to a path or open file.

        Path destinations are written *atomically* (a sibling temp file
        then ``os.replace``), so a crash mid-export can never leave a
        half-written trace that :func:`read_jsonl` rejects as mid-stream
        corruption -- the destination either keeps its old content or
        gains the complete new one.
        """
        text = "\n".join(self.json_lines()) + "\n"
        if hasattr(destination, "write"):
            destination.write(text)  # type: ignore[union-attr]
            return
        path = Path(destination)
        tmp = path.with_name(
            f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # replace failed; don't litter
                tmp.unlink()


def as_recorder(recorder: Optional[NullRecorder]) -> NullRecorder:
    """``recorder`` itself, or the shared null recorder for ``None``."""
    return NULL_RECORDER if recorder is None else recorder


class TraceEvents(List[Event]):
    """A list of events plus a ``warning`` set when the source file was
    incomplete (e.g. a crash truncated the final line mid-record).

    Behaves exactly like the plain list :func:`read_jsonl` used to
    return; callers that care can check ``events.warning is not None``.
    """

    warning: Optional[str] = None


def read_jsonl(
    source: Union[str, Path, _io.TextIOBase]
) -> TraceEvents:
    """Parse a JSON-lines event stream back into typed events.

    The ``meta`` line is validated and dropped; unknown event kinds raise
    ``ValueError`` so schema drift fails loudly rather than silently.

    A *truncated final line* -- the signature of a writer killed
    mid-record -- does not raise: the complete prefix is returned and the
    result's ``warning`` attribute describes what was dropped.  Malformed
    JSON anywhere *before* the final line still raises, since that is
    corruption, not interruption.

    A *repeated* ``meta`` line mid-stream is skipped with a warning
    rather than rejected: rotation and ``cat``-concatenated trace files
    legitimately produce one meta line per segment.  Each is still
    schema-validated.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        text = Path(source).read_text()
    events = TraceEvents()
    warnings: List[str] = []
    seen_meta = False
    lines = text.splitlines()
    last_content_line = max(
        (i for i, line in enumerate(lines) if line.strip()), default=-1
    )
    for line_no, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_no == last_content_line:
                warnings.append(
                    f"line {line_no}: truncated record dropped "
                    f"({exc.msg}); trace was interrupted mid-write"
                )
                break
            raise ValueError(
                f"line {line_no}: malformed JSON mid-stream: {exc.msg}"
            ) from exc
        kind = record.get("event")
        if kind == "meta":
            schema = record.get("schema")
            if schema != SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported trace schema {schema!r} "
                    f"(this reader understands {SCHEMA_VERSION})"
                )
            if seen_meta:
                warnings.append(
                    f"line {line_no}: repeated meta line skipped "
                    f"(rotated or concatenated trace)"
                )
            seen_meta = True
        elif kind == "span":
            events.append(
                SpanEvent(
                    id=record["id"],
                    parent=record.get("parent"),
                    name=record["name"],
                    start=record["start"],
                    end=record["end"],
                    attrs=record.get("attrs", {}),
                )
            )
        elif kind == "counter":
            events.append(
                CounterEvent(
                    name=record["name"],
                    value=record["value"],
                    time=record["time"],
                    span=record.get("span"),
                    attrs=record.get("attrs", {}),
                )
            )
        else:
            raise ValueError(
                f"line {line_no}: unknown event kind {kind!r}"
            )
    if warnings:
        events.warning = "; ".join(warnings)
    return events
