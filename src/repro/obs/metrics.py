"""Live metrics: counters, gauges and fixed-bucket histograms.

The :class:`~repro.obs.recorder.Recorder` answers "what happened during
*this* run" -- a complete event log, bounded only by the run's length.
A long-lived ``repro-mut serve`` process needs the complementary shape:
**aggregates** whose memory is bounded by the number of distinct metric
series, not by traffic.  :class:`MetricsRegistry` provides exactly that:

* **counters** -- monotone tallies (``cache.miss``, ``queue.rejected``);
* **gauges** -- point-in-time values, either set explicitly or computed
  at scrape time from a callback (queue depth, in-flight jobs);
* **histograms** -- fixed-bucket latency distributions
  (``service.job.seconds``, ``solve.seconds``) with Prometheus-style
  cumulative ``le`` buckets.

Design constraints, mirroring the recorder's:

1. **Bounded label cardinality.**  Each metric holds at most
   ``max_series_per_metric`` distinct label combinations; further
   combinations collapse into a reserved ``"_other_"`` series instead of
   growing without bound when a caller labels by something unbounded.
2. **Lock-protected.**  One registry is shared by every scheduler
   worker thread and every HTTP handler thread; all mutation happens
   under a single re-entrant lock.
3. **Allocation-free when unused.**  The registry allocates per-series
   state lazily on first observation, and :data:`NULL_METRICS` is a
   shared no-op registry for callers that want metrics off entirely
   (e.g. the benchmark's overhead baseline).

Rendering: :meth:`MetricsRegistry.render_prometheus` emits the text
exposition format (``GET /metrics``), :meth:`MetricsRegistry.snapshot`
a JSON view (``GET /stats``).  Metric names use dotted form internally
(``service.job.seconds``) and are mangled to Prometheus conventions on
render (``service_job_seconds``; counters gain ``_total``).
"""

from __future__ import annotations

import contextvars
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "OVERFLOW_LABEL",
    "Counter",
    "ForwardingMetricsRegistry",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "REGISTRY",
    "as_metrics",
    "metrics_context",
    "prometheus_name",
    "replay_metric_ops",
]

#: Default histogram buckets, in seconds.  Chosen for the serving layer's
#: range: warm cache hits are sub-millisecond, cold exact solves seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Label value that absorbs observations beyond the per-metric series cap.
OVERFLOW_LABEL = "_other_"

_LabelKey = Tuple[str, ...]


def prometheus_name(name: str) -> str:
    """Mangle a dotted metric name to Prometheus conventions."""
    return name.replace(".", "_").replace("-", "_")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labelnames: Sequence[str], values: _LabelKey) -> str:
    if not labelnames:
        return ""
    parts = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + parts + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared plumbing: named series keyed by a tuple of label values.

    ``_series`` maps the label-value tuple to instrument-specific state;
    everything is guarded by the owning registry's lock.  The cardinality
    bound lives here: the first label combination past the cap is
    redirected to the all-``"_other_"`` overflow series and counted on
    the registry, so runaway labels degrade (one coarse series) instead
    of leaking.
    """

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,  # noqa: A002 - mirrors prometheus_client's API
        labelnames: Sequence[str],
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._lock = registry._lock
        self._series: Dict[_LabelKey, object] = {}

    def _key(self, labels: Mapping[str, object]) -> _LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        if key not in self._series and len(self._series) >= (
            self._registry.max_series_per_metric
        ):
            overflow = (OVERFLOW_LABEL,) * len(self.labelnames)
            if key != overflow:
                self._registry._overflowed += 1
                key = overflow
        return key

    def _new_state(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def _state(self, labels: Mapping[str, object]) -> object:
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = self._new_state()
        return state


class Counter(_Instrument):
    """Monotonically increasing tally."""

    kind = "counter"

    def _new_state(self) -> List[float]:
        return [0.0]

    def inc(self, value: float = 1, **labels) -> None:
        if value < 0:
            raise ValueError(f"counters only go up; got {value!r}")
        with self._lock:
            self._state(labels)[0] += value

    def value(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return state[0] if state is not None else 0.0


class Gauge(_Instrument):
    """Point-in-time value: set directly, or computed at scrape time."""

    kind = "gauge"

    def _new_state(self) -> List[object]:
        # [value, callback]; the callback (when set) wins at read time.
        return [0.0, None]

    def set(self, value: float, **labels) -> None:
        with self._lock:
            state = self._state(labels)
            state[0] = float(value)
            state[1] = None

    def inc(self, value: float = 1, **labels) -> None:
        with self._lock:
            self._state(labels)[0] += value

    def dec(self, value: float = 1, **labels) -> None:
        self.inc(-value, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Evaluate ``fn`` at every scrape instead of storing a value.

        The natural fit for derived quantities (queue depth, in-flight
        count) that already live in some data structure; the gauge then
        can never go stale.  Exceptions from ``fn`` read as 0.
        """
        with self._lock:
            self._state(labels)[1] = fn

    @staticmethod
    def _read(state: List[object]) -> float:
        fn = state[1]
        if fn is None:
            return float(state[0])  # type: ignore[arg-type]
        try:
            return float(fn())  # type: ignore[operator]
        except Exception:
            return 0.0

    def value(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return self._read(state) if state is not None else 0.0


class Histogram(_Instrument):
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    always exists.  A bound is *inclusive*: ``observe(0.01)`` lands in
    the ``le="0.01"`` bucket.  Per-series state is one count per bucket
    plus running sum and count -- O(len(buckets)), independent of the
    number of observations.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,  # noqa: A002
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds

    def _new_state(self) -> Dict[str, object]:
        return {
            "counts": [0] * (len(self.buckets) + 1),  # + the +Inf bucket
            "sum": 0.0,
            "count": 0,
        }

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        with self._lock:
            state = self._state(labels)
            index = bisect_left(self.buckets, value)
            state["counts"][index] += 1  # type: ignore[index]
            state["sum"] += value  # type: ignore[operator]
            state["count"] += 1  # type: ignore[operator]

    def count(self, **labels) -> int:
        with self._lock:
            state = self._series.get(self._key(labels))
            return int(state["count"]) if state is not None else 0

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return float(state["sum"]) if state is not None else 0.0

    def bucket_counts(self, **labels) -> Dict[str, int]:
        """Cumulative ``le -> count`` map (as rendered to Prometheus)."""
        with self._lock:
            state = self._series.get(self._key(labels))
            raw = (
                list(state["counts"]) if state is not None
                else [0] * (len(self.buckets) + 1)
            )
        result: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, raw):
            running += n
            result[_format_value(bound)] = running
        result["+Inf"] = running + raw[-1]
        return result


class MetricsRegistry:
    """A named set of instruments sharing one lock and one budget.

    Instruments are created idempotently: asking for an existing name
    returns the existing instrument (so modules can declare their
    metrics at use sites without coordinating), but re-declaring a name
    with a different type or label set raises -- that is always a bug.
    """

    enabled = True

    def __init__(self, *, max_series_per_metric: int = 64) -> None:
        if max_series_per_metric < 1:
            raise ValueError("max_series_per_metric must be >= 1")
        self.max_series_per_metric = max_series_per_metric
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Instrument] = {}
        self._overflowed = 0

    # ------------------------------------------------------------------
    # instrument registration
    # ------------------------------------------------------------------
    def _register(self, cls, name, help, labelnames, **kwargs):  # noqa: A002
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(self, name, help, labelnames, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:  # noqa: A002
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:  # noqa: A002
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def overflowed_series(self) -> int:
        """Observations redirected to ``"_other_"`` by the cardinality cap."""
        with self._lock:
            return self._overflowed

    def render_prometheus(self) -> str:
        """The text exposition format (``GET /metrics``).

        Deterministic: metrics render in registration order, series in
        sorted label order, so a fixed workload under a fixed clock
        produces byte-identical output (golden-tested).
        """
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
            for metric in metrics:
                base = prometheus_name(metric.name)
                if metric.kind == "counter":
                    base += "_total"
                if metric.help:
                    lines.append(f"# HELP {base} {metric.help}")
                lines.append(f"# TYPE {base} {metric.kind}")
                for key in sorted(metric._series):
                    labels = _format_labels(metric.labelnames, key)
                    state = metric._series[key]
                    if isinstance(metric, Histogram):
                        lines.extend(
                            self._render_histogram_series(
                                metric, base, key, state
                            )
                        )
                    elif isinstance(metric, Gauge):
                        value = Gauge._read(state)  # type: ignore[arg-type]
                        lines.append(
                            f"{base}{labels} {_format_value(value)}"
                        )
                    else:
                        lines.append(
                            f"{base}{labels} "
                            f"{_format_value(state[0])}"  # type: ignore[index]
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram_series(
        metric: Histogram, base: str, key: _LabelKey, state
    ) -> List[str]:
        lines: List[str] = []
        running = 0
        bounds = [*metric.buckets, float("inf")]
        for bound, n in zip(bounds, state["counts"]):
            running += n
            le = _format_value(bound)
            label_parts = [
                f'{name}="{_escape_label_value(value)}"'
                for name, value in zip(metric.labelnames, key)
            ]
            label_parts.append(f'le="{le}"')
            lines.append(
                f"{base}_bucket{{{','.join(label_parts)}}} {running}"
            )
        labels = _format_labels(metric.labelnames, key)
        lines.append(f"{base}_sum{labels} {_format_value(state['sum'])}")
        lines.append(f"{base}_count{labels} {state['count']}")
        return lines

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of every series (``GET /stats``)."""
        out: Dict[str, object] = {}
        with self._lock:
            for name, metric in self._metrics.items():
                series = []
                for key in sorted(metric._series):
                    labels = dict(zip(metric.labelnames, key))
                    state = metric._series[key]
                    if isinstance(metric, Histogram):
                        series.append({
                            "labels": labels,
                            "count": state["count"],
                            "sum": state["sum"],
                        })
                    elif isinstance(metric, Gauge):
                        series.append({
                            "labels": labels,
                            "value": Gauge._read(state),
                        })
                    else:
                        series.append({
                            "labels": labels,
                            "value": state[0],  # type: ignore[index]
                        })
                out[name] = {"type": metric.kind, "series": series}
        return out


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    def inc(self, value: float = 1, **labels) -> None:
        return None

    def dec(self, value: float = 1, **labels) -> None:
        return None

    def set(self, value: float, **labels) -> None:
        return None

    def set_function(self, fn, **labels) -> None:
        return None

    def observe(self, value: float, **labels) -> None:
        return None

    def value(self, **labels) -> float:
        return 0.0

    def count(self, **labels) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0

    def bucket_counts(self, **labels) -> Dict[str, int]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Registry that records nothing (the overhead baseline)."""

    enabled = False

    def counter(self, name, help="", labelnames=()):  # noqa: A002
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name, help="", labelnames=()):  # noqa: A002
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
    ):  # noqa: A002
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def render_prometheus(self) -> str:
        return ""

    def snapshot(self) -> Dict[str, object]:
        return {}


#: Shared no-op registry, for callers that want metrics off entirely.
NULL_METRICS = NullMetricsRegistry()

#: The process-wide default registry.  ``construct_tree``, the scheduler
#: and the serving layer all record here unless handed something else,
#: which is what makes ``GET /metrics`` observe the whole stack.
REGISTRY = MetricsRegistry()


#: The ambient registry bound by :func:`metrics_context`, if any.
_METRICS: "contextvars.ContextVar[Optional[MetricsRegistry]]" = (
    contextvars.ContextVar("repro_metrics", default=None)
)


@contextmanager
def metrics_context(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Bind ``registry`` as the default registry for the block.

    Mirrors ``trace_context``: code inside the block that records into
    ``as_metrics(None)`` -- ``construct_tree``'s ``solve.seconds`` --
    lands in ``registry``, which is how a scheduler job's engine metrics
    reach the scheduler's own registry with no signature churn.
    """
    token = _METRICS.set(registry)
    try:
        yield registry
    finally:
        _METRICS.reset(token)


def as_metrics(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``metrics`` itself; for ``None`` the ambient registry bound by
    :func:`metrics_context`, else the process-wide default."""
    if metrics is not None:
        return metrics
    return _METRICS.get() or REGISTRY


# ----------------------------------------------------------------------
# cross-process forwarding
# ----------------------------------------------------------------------
class _ForwardingInstrument:
    """Instrument proxy that logs every mutation as a replayable op.

    Only *cumulative* mutations are logged (counter increments and
    histogram observations) -- gauges are scrape-time callbacks that the
    parent process computes itself, so forwarding them would double
    report.
    """

    def __init__(self, owner, kind, inner, buckets=None) -> None:
        self._owner = owner
        self._kind = kind
        self._inner = inner
        self._buckets = list(buckets) if buckets is not None else None

    def _log(self, op: str, value: float, labels: Mapping) -> None:
        self._owner._log_op(
            (
                self._kind,
                self._inner.name,
                self._inner.help,
                list(self._inner.labelnames),
                self._buckets,
                op,
                float(value),
                {k: str(v) for k, v in labels.items()},
            )
        )

    def inc(self, value: float = 1, **labels) -> None:
        self._inner.inc(value, **labels)
        self._log("inc", value, labels)

    def observe(self, value: float, **labels) -> None:
        self._inner.observe(value, **labels)
        self._log("observe", value, labels)

    def __getattr__(self, attr):
        # Reads (value/count/sum/...) and gauge writes pass straight
        # through to the real instrument.
        return getattr(self._inner, attr)


class ForwardingMetricsRegistry(MetricsRegistry):
    """A live registry that also logs mutations for cross-process replay.

    A worker process binds one (:func:`metrics_context`) for a job's
    duration; :meth:`drain_ops` returns a picklable op list -- the ops
    since the last drain, so a job's log ships in increments -- that the
    parent feeds to :func:`replay_metric_ops` against *its* registry, so
    ``GET /metrics`` on the serving process sees engine-side counters
    and histograms (e.g. ``solve.seconds``) recorded in worker processes.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._ops: List[tuple] = []

    def _log_op(self, op: tuple) -> None:
        with self._lock:
            self._ops.append(op)

    def drain_ops(self) -> List[tuple]:
        """The ops logged since the last drain (and forget them)."""
        with self._lock:
            ops, self._ops = self._ops, []
            return ops

    def counter(self, name, help="", labelnames=()):  # noqa: A002
        return _ForwardingInstrument(
            self, "counter", super().counter(name, help, labelnames)
        )

    def histogram(
        self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
    ):  # noqa: A002
        return _ForwardingInstrument(
            self,
            "histogram",
            super().histogram(name, help, labelnames, buckets),
            buckets=buckets,
        )


def replay_metric_ops(registry: MetricsRegistry, ops) -> int:
    """Apply ops from a :class:`ForwardingMetricsRegistry` to ``registry``.

    Instruments are created on demand with the same name/help/labels
    (and buckets, for histograms) they had in the worker process, so the
    parent's exposition is indistinguishable from having recorded the
    events locally.  Returns the number of ops applied; malformed ops
    raise ``ValueError`` (they indicate transport corruption).
    """
    applied = 0
    for op in ops:
        kind, name, help_, labelnames, buckets, action, value, labels = op
        if kind == "counter" and action == "inc":
            registry.counter(name, help_, tuple(labelnames)).inc(
                value, **labels
            )
        elif kind == "histogram" and action == "observe":
            registry.histogram(
                name, help_, tuple(labelnames), buckets=tuple(buckets)
            ).observe(value, **labels)
        else:
            raise ValueError(f"unknown metric op {kind!r}/{action!r}")
        applied += 1
    return applied
