"""Render observability artifacts: time-attribution tree + metric tables.

``repro obs report D`` reads the ``trace.jsonl`` (and, when present,
``metrics.txt``) a traced run wrote into *D* and renders:

* the **span tree** — spans aggregated by their name-path from the
  root, with call counts, total wall time and the share of the parent's
  time (where did this run spend its time, per stage, across layers);
* the **histogram table** — count/mean/p50/p90/p99 per latency
  histogram, in milliseconds for ``.seconds`` metrics;
* the **counter table** — every counter/gauge total.
"""

from __future__ import annotations

import os

from repro.obs.sinks import load_trace, parse_metrics_text
from repro.obs.trace import Span

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.txt"


class _Node:
    """One aggregation node: all spans sharing a name-path."""

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: dict[str, "_Node"] = {}


def build_tree(spans: list[Span]) -> _Node:
    """Aggregate spans into a name-path tree (root is synthetic)."""
    by_id = {span.span_id: span for span in spans}
    root = _Node("")
    path_cache: dict[int, tuple[str, ...]] = {}

    def path_of(span: Span) -> tuple[str, ...]:
        cached = path_cache.get(span.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        path = (path_of(parent) if parent is not None else ()) + (span.name,)
        path_cache[span.span_id] = path
        return path

    for span in spans:
        node = root
        for name in path_of(span):
            child = node.children.get(name)
            if child is None:
                child = _Node(name)
                node.children[name] = child
            node = child
        node.count += 1
        node.total_s += span.duration_s
    return root


def _render_node(node: _Node, parent_total: float, depth: int, lines: list[str]) -> None:
    share = (
        f"{100.0 * node.total_s / parent_total:5.1f}%"
        if parent_total > 0
        else "    -%"
    )
    lines.append(
        f"  {'  ' * depth}{node.name} ×{node.count}".ljust(46)
        + f"{node.total_s * 1e3:10.2f} ms  {share}"
    )
    for child in sorted(node.children.values(), key=lambda n: -n.total_s):
        _render_node(child, node.total_s, depth + 1, lines)


def render_tree(spans: list[Span]) -> str:
    """The per-stage time-attribution tree as text."""
    root = build_tree(spans)
    lines = [f"span tree ({len(spans)} spans, aggregated by name path)"]
    total = sum(child.total_s for child in root.children.values())
    for child in sorted(root.children.values(), key=lambda n: -n.total_s):
        _render_node(child, total, 0, lines)
    return "\n".join(lines)


def render_metric_tables(metrics: dict[str, dict]) -> str:
    """Histogram + counter tables from parsed ``metrics.txt`` content."""
    histograms = {k: v for k, v in metrics.items() if v["type"] == "histogram"}
    scalars = {k: v for k, v in metrics.items() if v["type"] != "histogram"}
    lines: list[str] = []
    if histograms:
        lines.append("histograms (ms)")
        header = (
            f"  {'metric'.ljust(44)}{'count':>8}{'mean':>10}"
            f"{'p50':>10}{'p90':>10}{'p99':>10}"
        )
        lines.append(header)
        for name, entry in sorted(histograms.items()):
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            quantiles = entry["quantiles"]
            lines.append(
                f"  {name.ljust(44)}{count:>8}"
                + f"{mean * 1e3:>10.3f}"
                + "".join(
                    f"{quantiles.get(q, 0.0) * 1e3:>10.3f}"
                    for q in (0.5, 0.9, 0.99)
                )
            )
    if scalars:
        if lines:
            lines.append("")
        lines.append("counters")
        for name, entry in sorted(scalars.items()):
            lines.append(f"  {name.ljust(44)}{entry['value']:>14}")
    return "\n".join(lines)


#: serving-tier robustness counters surfaced as a dedicated section
#: (registered by ServingStats.bind; absent in non-serving runs)
_SERVING_ROWS: tuple[tuple[str, str], ...] = (
    ("repro.serving.query.count", "queries served"),
    ("repro.serving.degraded.count", "degraded responses"),
    ("repro.serving.retry.count", "retries"),
    ("repro.serving.hedge.count", "hedged requests"),
    ("repro.serving.hedge.win.count", "hedge wins"),
    ("repro.serving.failover.count", "failovers"),
    ("repro.serving.shard.dead.count", "shard deaths"),
    ("repro.serving.respawn.count", "respawns"),
)

#: ... and its histograms, as "mean / p99" rows: a query's wall, the
#: part of it spent outside any shard's compute (serialisation, pipes,
#: wake-ups — compute or transport?), and how long outages lasted
_SERVING_HISTOGRAMS: tuple[tuple[str, str], ...] = (
    ("repro.serving.query.seconds", "query mean / p99 (ms)"),
    ("repro.serving.transit.seconds", "fan-out transit mean / p99 (ms)"),
    ("repro.serving.time.to.healthy.seconds", "time-to-healthy mean / p99 (ms)"),
)


def render_serving_section(metrics: dict[str, dict]) -> str:
    """The serving-tier robustness summary, or "" for non-serving runs.

    Pulls the tier's counters plus its latency, transit and
    time-to-healthy histograms out of the generic tables into one
    glanceable section — how often the tier retried, hedged, failed
    over, degraded, how long outages lasted, and how much of a query
    was transport rather than compute.
    """
    if "repro.serving.query.count" not in metrics:
        return ""
    lines = ["serving tier (fault tolerance)"]
    for name, label in _SERVING_ROWS:
        entry = metrics.get(name)
        if entry is not None and entry["type"] != "histogram":
            lines.append(f"  {label.ljust(44)}{entry['value']:>14}")
    for name, label in _SERVING_HISTOGRAMS:
        entry = metrics.get(name)
        if entry is not None and entry["type"] == "histogram" and entry["count"]:
            mean_ms = entry["sum"] / entry["count"] * 1e3
            p99_ms = entry["quantiles"].get(0.99, 0.0) * 1e3
            lines.append(
                f"  {label.ljust(44)}{f'{mean_ms:.2f} / {p99_ms:.2f}':>14}"
            )
    return "\n".join(lines)


def render_report(directory: str) -> str:
    """The full ``repro obs report`` text for one artifact directory.

    Raises:
        FileNotFoundError: when the directory has no ``trace.jsonl``.
        TraceSchemaError: when the trace violates the JSONL schema.
    """
    trace_path = os.path.join(directory, TRACE_FILENAME)
    if not os.path.exists(trace_path):
        raise FileNotFoundError(
            f"no {TRACE_FILENAME} in {directory!r} — run with --trace-dir first"
        )
    spans = load_trace(trace_path)
    sections = [f"observability report: {directory}", "", render_tree(spans)]
    metrics_path = os.path.join(directory, METRICS_FILENAME)
    if os.path.exists(metrics_path):
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = parse_metrics_text(handle.read())
        if metrics:
            serving = render_serving_section(metrics)
            if serving:
                sections.append("")
                sections.append(serving)
            sections.append("")
            sections.append(render_metric_tables(metrics))
    return "\n".join(sections)
