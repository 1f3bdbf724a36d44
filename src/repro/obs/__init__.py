"""Unified observability: span tracing + metrics across every backend.

:class:`Observability` is the one handle instrumented code holds — it
bundles a :class:`~repro.obs.trace.Tracer` (nested spans), a
:class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/latency
histograms) and the export sinks (``trace.jsonl`` + ``metrics.txt``
under a directory).  Components accept ``obs=None`` and fall back to
the shared :data:`DISABLED` singleton, whose operations are no-ops
except for wall-clock measurement: ``obs.timed(...)`` **always**
yields a real ``duration_s``, so latency accounting that predates the
observability layer (resolver phase splits, workload stats) keeps
working bit-identically with observability off.

Metric naming convention: ``repro.<layer>.<op>.<unit>`` — e.g.
``repro.stream.insert.seconds``, ``repro.durability.wal.append.bytes``,
``repro.mapreduce.shuffle.records.count``.
"""

from __future__ import annotations

import os
import time

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    set_global_registry,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    TraceSchemaError,
    load_trace,
    parse_metrics_text,
    prometheus_text,
    span_from_dict,
    span_to_dict,
    validate_span_dict,
)
from repro.obs.trace import ManualClock, Span, Tracer

__all__ = [
    "Observability",
    "DISABLED",
    "Tracer",
    "Span",
    "ManualClock",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "global_registry",
    "set_global_registry",
    "InMemorySink",
    "JsonlSink",
    "TraceSchemaError",
    "load_trace",
    "span_to_dict",
    "span_from_dict",
    "validate_span_dict",
    "prometheus_text",
    "parse_metrics_text",
    "DEFAULT_LATENCY_BUCKETS",
]

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.txt"


class _Timed:
    """Enabled-mode timer: span (optional) + histogram (optional) + dt.

    One clock reading pair produces the span duration, the histogram
    observation and :attr:`duration_s` — by construction the same
    float lands in the trace, in ``metrics.txt`` and in any legacy
    latency field fed from it.
    """

    __slots__ = ("_obs", "_name", "_metric", "attrs", "_frame", "_start",
                 "duration_s", "span")

    def __init__(self, obs: "Observability", name, metric, attrs) -> None:
        self._obs = obs
        self._name = name
        self._metric = metric
        self.attrs = attrs
        self.span = None
        self.duration_s = 0.0

    def __enter__(self) -> "_Timed":
        tracer = self._obs.tracer
        if self._name is not None:
            self._frame = tracer.begin(self._name)
            self._start = self._frame[3]
        else:
            self._frame = None
            self._start = tracer.clock()
        return self

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._frame is not None:
            self.span = self._obs.tracer.finish(self._frame, self.attrs)
            self.duration_s = self.span.duration_s
        else:
            self.duration_s = self._obs.tracer.clock() - self._start
        metric = self._metric
        if metric is not None:
            if isinstance(metric, str):
                metric = self._obs.registry.histogram(metric)
            metric.observe(self.duration_s)
        return False


class _NullTimed:
    """Disabled-mode timer: measures wall time, records nothing.

    This is exactly the cost the pre-observability code paid (two
    ``perf_counter`` readings), so instrumentation adds nothing when
    observability is off.
    """

    __slots__ = ("_start", "duration_s")

    def __enter__(self) -> "_NullTimed":
        self._start = time.perf_counter()
        return self

    def set(self, **attrs) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._start
        return False


class Observability:
    """The per-run observability handle: tracer + registry + exporters.

    Args:
        enabled: ``False`` builds the shared-style no-op handle (use
            :data:`DISABLED` instead of constructing one).
        directory: when set, spans stream into
            ``<directory>/trace.jsonl`` as they finish and
            :meth:`flush`/:meth:`close` write
            ``<directory>/metrics.txt``.
        clock: injectable monotonic clock for the tracer
            (:class:`ManualClock` in tests).
        registry: share an existing registry (default: a fresh one).
        sink: an extra span sink (e.g. :class:`InMemorySink`) attached
            alongside the JSONL exporter.
    """

    def __init__(
        self,
        enabled: bool = True,
        directory: str | None = None,
        clock=None,
        registry: MetricsRegistry | None = None,
        sink=None,
    ) -> None:
        self.enabled = enabled
        self.directory = directory
        self._jsonl: JsonlSink | None = None
        if enabled:
            self.registry = registry if registry is not None else MetricsRegistry()
            self.tracer = Tracer(clock=clock)
            if sink is not None:
                self.tracer.add_sink(sink)
            if directory is not None:
                os.makedirs(directory, exist_ok=True)
                self._jsonl = JsonlSink(os.path.join(directory, TRACE_FILENAME))
                self.tracer.add_sink(self._jsonl)
        else:
            self.registry = MetricsRegistry(enabled=False)
            self.tracer = None

    # -- timing ---------------------------------------------------------------

    def timed(self, name: str | None = None, metric=None, **attrs):
        """Context manager measuring one operation.

        Args:
            name: span name (None: metric/measurement only, no span).
            metric: histogram fed the measured duration — a dotted
                registry name or a live :class:`Histogram`.
            attrs: initial span attributes (extend via ``.set()``).

        The yielded object always exposes ``duration_s`` after exit,
        observability on or off.
        """
        if not self.enabled:
            return _NullTimed()
        return _Timed(self, name, metric, attrs)

    def span(self, name: str, **attrs):
        """Span-only :meth:`timed` (trace, no histogram)."""
        if not self.enabled:
            return _NullTimed()
        return _Timed(self, name, None, attrs)

    def event(self, name: str, duration_s: float = 0.0, metric=None, **attrs) -> None:
        """Record a completed span measured elsewhere (worker tasks)."""
        if not self.enabled:
            return
        self.tracer.event(name, duration_s, **attrs)
        if metric is not None:
            if isinstance(metric, str):
                metric = self.registry.histogram(metric)
            metric.observe(duration_s)

    # -- metrics --------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self.registry.histogram(name, buckets)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the counter *name* (no-op when disabled)."""
        if self.enabled:
            self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Observe *value* into the histogram *name* (no-op disabled)."""
        if self.enabled:
            self.registry.histogram(name).observe(value)

    @property
    def span_count(self) -> int:
        """Spans finished so far (0 when disabled)."""
        return self.tracer.span_count if self.tracer is not None else 0

    def metrics_text(self) -> str:
        """The registry's Prometheus-style text exposition."""
        return prometheus_text(self.registry)

    # -- export lifecycle -----------------------------------------------------

    def write_metrics(self) -> str | None:
        """(Re)write ``metrics.txt`` under the directory; returns its path."""
        if not self.enabled or self.directory is None:
            return None
        path = os.path.join(self.directory, METRICS_FILENAME)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.metrics_text())
        return path

    def flush(self) -> None:
        """Persist everything so far: trace to disk, metrics.txt rewritten.

        Safe to call repeatedly; the end-of-run close re-exports on top.
        The streaming runner calls this **before** the WAL closes so an
        interrupted replay still leaves a complete telemetry snapshot.
        """
        if not self.enabled:
            return
        if self._jsonl is not None:
            self._jsonl.flush()
        self.write_metrics()

    def close(self) -> None:
        """Final export: flush, then close the trace file."""
        if not self.enabled:
            return
        self.flush()
        if self._jsonl is not None:
            self._jsonl.close()


#: the shared disabled handle components default to (``obs or DISABLED``)
DISABLED = Observability(enabled=False)
