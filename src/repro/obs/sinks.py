"""Span sinks and text export formats.

Two sinks (in-memory list, JSON-lines file) plus the two text formats
the CLI writes:

* ``trace.jsonl`` — one JSON document per finished span, schema below;
* ``metrics.txt`` — Prometheus-style text exposition of the registry.

The trace JSONL schema (one object per line)::

    {"span_id": int >= 1,          # unique within the trace
     "parent_id": int | null,      # enclosing span, null for roots
     "name": str,                  # dotted operation name
     "start_s": float >= 0,        # offset from tracer creation
     "duration_s": float >= 0,
     "attrs": {str: scalar}}       # free-form attributes

Float samples are rendered with ``repr`` so a parse round-trips to the
identical float — the property the stats-agreement regression tests
lean on.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span


class TraceSchemaError(ValueError):
    """A span document violates the trace JSONL schema."""


_SPAN_FIELDS = ("span_id", "parent_id", "name", "start_s", "duration_s", "attrs")


def span_to_dict(span: Span) -> dict:
    """The span's JSONL document."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "attrs": dict(span.attrs),
    }


def validate_span_dict(document: dict) -> dict:
    """Check one span document against the schema; returns it.

    Raises:
        TraceSchemaError: on any missing field, wrong type or bad value.
    """
    if not isinstance(document, dict):
        raise TraceSchemaError(f"span document is not an object: {document!r}")
    missing = [name for name in _SPAN_FIELDS if name not in document]
    if missing:
        raise TraceSchemaError(f"span document missing fields: {missing}")
    span_id = document["span_id"]
    if not isinstance(span_id, int) or isinstance(span_id, bool) or span_id < 1:
        raise TraceSchemaError(f"span_id must be an int >= 1, got {span_id!r}")
    parent_id = document["parent_id"]
    if parent_id is not None and (
        not isinstance(parent_id, int) or isinstance(parent_id, bool) or parent_id < 1
    ):
        raise TraceSchemaError(
            f"parent_id must be null or an int >= 1, got {parent_id!r}"
        )
    if not isinstance(document["name"], str) or not document["name"]:
        raise TraceSchemaError(f"name must be a non-empty string: {document!r}")
    for key in ("start_s", "duration_s"):
        value = document[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TraceSchemaError(f"{key} must be a number, got {value!r}")
        if value < 0:
            raise TraceSchemaError(f"{key} must be >= 0, got {value!r}")
    if not isinstance(document["attrs"], dict):
        raise TraceSchemaError(f"attrs must be an object: {document!r}")
    return document


def span_from_dict(document: dict) -> Span:
    """Validate and rebuild a :class:`Span` from its JSONL document."""
    validate_span_dict(document)
    return Span(
        span_id=document["span_id"],
        parent_id=document["parent_id"],
        name=document["name"],
        start_s=float(document["start_s"]),
        duration_s=float(document["duration_s"]),
        attrs=dict(document["attrs"]),
    )


class InMemorySink:
    """Collects every span — the default for tests and benchmarks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)

    def by_name(self) -> dict[str, int]:
        """Span count per name (the span-count-oracle helper)."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)


class JsonlSink:
    """Streams spans to a JSON-lines file as they finish."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")

    def emit(self, span: Span) -> None:
        if self._handle is None:  # pragma: no cover - emit after close
            return
        self._handle.write(
            json.dumps(span_to_dict(span), separators=(",", ":")) + "\n"
        )

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_trace(path: str) -> list[Span]:
    """Read and schema-validate a ``trace.jsonl`` file.

    Raises:
        TraceSchemaError: on any malformed line or schema violation.
        FileNotFoundError: when the file does not exist.
    """
    spans: list[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except ValueError as error:
                raise TraceSchemaError(
                    f"{path}:{number}: not valid JSON: {error}"
                ) from None
            try:
                spans.append(span_from_dict(document))
            except TraceSchemaError as error:
                raise TraceSchemaError(f"{path}:{number}: {error}") from None
    return spans


# -- Prometheus-style text exposition ----------------------------------------


def _sample_name(name: str) -> str:
    """Dotted metric name → Prometheus sample name."""
    return name.replace(".", "_").replace("-", "_")


def _fmt(value) -> str:
    """Exact text form: repr floats round-trip bit-identically."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: quantiles rendered per histogram
EXPOSITION_QUANTILES = (0.5, 0.9, 0.99)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every registered metric in Prometheus text format.

    The ``# HELP`` line carries the original dotted name, so
    :func:`parse_metrics_text` can key its result by it.
    """
    lines: list[str] = []
    for name, metric in registry.items():
        sample = _sample_name(name)
        lines.append(f"# HELP {sample} {name}")
        lines.append(f"# TYPE {sample} {metric.kind}")
        if metric.kind in ("counter", "gauge"):
            lines.append(f"{sample} {_fmt(metric.value)}")
        else:
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cumulative += count
                lines.append(f'{sample}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            cumulative += metric.bucket_counts[-1]
            lines.append(f'{sample}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{sample}_sum {_fmt(metric.sum)}")
            lines.append(f"{sample}_count {metric.count}")
            for fraction in EXPOSITION_QUANTILES:
                lines.append(
                    f'{sample}{{quantile="{_fmt(fraction)}"}} '
                    f"{_fmt(metric.percentile(fraction))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_metrics_text(text: str) -> dict[str, dict]:
    """Parse :func:`prometheus_text` output back into plain dicts.

    Returns a mapping keyed by the **dotted** metric name:
    counters/gauges get ``{"type", "value"}``; histograms get
    ``{"type", "sum", "count", "buckets", "quantiles"}`` with buckets
    keyed by their ``le`` string and quantiles by fraction.
    """
    dotted: dict[str, str] = {}
    kinds: dict[str, str] = {}
    out: dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            sample, _, name = rest.partition(" ")
            dotted[sample] = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            sample, _, kind = rest.partition(" ")
            kinds[sample] = kind
            name = dotted.get(sample, sample)
            if kind == "histogram":
                out[name] = {
                    "type": kind, "sum": 0.0, "count": 0,
                    "buckets": {}, "quantiles": {},
                }
            else:
                out[name] = {"type": kind, "value": 0}
            continue
        sample_part, _, value_text = line.rpartition(" ")
        value = _parse_number(value_text)
        label = None
        if "{" in sample_part:
            sample, _, label_part = sample_part.partition("{")
            label = label_part.rstrip("}")
        else:
            sample = sample_part
        base = sample
        for suffix in ("_bucket", "_sum", "_count"):
            if sample.endswith(suffix) and sample[: -len(suffix)] in kinds:
                base = sample[: -len(suffix)]
                break
        name = dotted.get(base, base)
        entry = out.get(name)
        if entry is None:
            continue
        if entry["type"] in ("counter", "gauge"):
            entry["value"] = value
        elif sample.endswith("_bucket"):
            le = label.partition("=")[2].strip('"') if label else ""
            entry["buckets"][le] = value
        elif sample.endswith("_sum"):
            entry["sum"] = value
        elif sample.endswith("_count"):
            entry["count"] = value
        elif label and label.startswith("quantile="):
            fraction = float(label.partition("=")[2].strip('"'))
            entry["quantiles"][fraction] = value
    return out
