"""Structured observability for the compact-set pipeline.

The paper's headline claim is a *time* claim (77-99.7% of the search
effort saved with tree cost within 5% of optimal), so the repository
needs first-class effort accounting, not scattered ``elapsed_seconds``
fields.  This package provides it:

* :class:`Recorder` -- an in-memory event sink with a *span* API
  (nested, timed phases: discover / reduce / solve / merge) and a
  *counter* API (branch-and-bound expand / prune / incumbent tallies);
* :class:`NullRecorder` / :data:`NULL_RECORDER` -- the allocation-free
  default every engine uses when no recorder is supplied, so the hot
  paths pay nothing for the instrumentation;
* JSON-lines export/import (:meth:`Recorder.write_jsonl`,
  :func:`read_jsonl`) -- one event per line, schema documented in
  ``docs/observability.md``;
* :mod:`repro.obs.profile` -- the "where the time went" span-tree view
  the ``repro-mut profile`` subcommand prints.
"""

from repro.obs.recorder import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    CounterEvent,
    NullRecorder,
    Recorder,
    Span,
    SpanEvent,
    TraceEvents,
    as_recorder,
    current_trace_id,
    read_jsonl,
    trace_context,
)
from repro.obs.streaming import StreamingRecorder
from repro.obs.metrics import (
    NULL_METRICS,
    REGISTRY,
    Counter,
    ForwardingMetricsRegistry,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    as_metrics,
    metrics_context,
    replay_metric_ops,
)
from repro.obs.profile import (
    ProfileNode,
    aggregate_spans,
    build_span_tree,
    chrome_trace_events,
    convergence_series,
    counter_totals,
    filter_by_trace_id,
    render_convergence,
    render_profile,
    render_span_tree,
    span_gauges,
)
from repro.obs.progress import (
    ProgressTracker,
    current_progress,
    format_progress_line,
    progress_context,
)

__all__ = [
    "Recorder",
    "StreamingRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "SpanEvent",
    "CounterEvent",
    "SCHEMA_VERSION",
    "TraceEvents",
    "as_recorder",
    "read_jsonl",
    "current_trace_id",
    "trace_context",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "REGISTRY",
    "Counter",
    "ForwardingMetricsRegistry",
    "Gauge",
    "Histogram",
    "as_metrics",
    "metrics_context",
    "replay_metric_ops",
    "ProfileNode",
    "build_span_tree",
    "aggregate_spans",
    "chrome_trace_events",
    "convergence_series",
    "counter_totals",
    "span_gauges",
    "filter_by_trace_id",
    "render_convergence",
    "render_span_tree",
    "render_profile",
    "ProgressTracker",
    "progress_context",
    "current_progress",
    "format_progress_line",
]
