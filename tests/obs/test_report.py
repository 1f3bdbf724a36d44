"""The obs report renderer: tree aggregation + metric tables."""

from __future__ import annotations

import pytest

from repro.obs import (
    InMemorySink,
    ManualClock,
    MetricsRegistry,
    Observability,
    Tracer,
    prometheus_text,
)
from repro.obs.report import build_tree, render_metric_tables, render_report, render_tree


def _trace():
    sink = InMemorySink()
    tracer = Tracer(clock=ManualClock(step=1.0))
    tracer.add_sink(sink)
    with tracer.span("pipeline.run"):
        with tracer.span("pipeline.blocking"):
            pass
        with tracer.span("pipeline.matching"):
            pass
        with tracer.span("pipeline.matching"):
            pass
    return sink.spans


def test_build_tree_aggregates_by_name_path():
    root = build_tree(_trace())
    run = root.children["pipeline.run"]
    assert run.count == 1
    assert set(run.children) == {"pipeline.blocking", "pipeline.matching"}
    assert run.children["pipeline.matching"].count == 2


def test_render_tree_orders_by_total_time():
    text = render_tree(_trace())
    assert "pipeline.run ×1" in text
    # matching (2 spans × 1s) outranks blocking (1 span × 1s)
    assert text.index("pipeline.matching ×2") < text.index("pipeline.blocking ×1")
    assert "%" in text


def test_render_metric_tables_sections():
    registry = MetricsRegistry()
    registry.counter("repro.x.count").inc(4)
    hist = registry.histogram("repro.x.seconds")
    hist.observe(0.002)
    from repro.obs import parse_metrics_text

    text = render_metric_tables(parse_metrics_text(prometheus_text(registry)))
    assert "histograms (ms)" in text
    assert "counters" in text
    assert "repro.x.count" in text
    assert "2.000" in text  # 0.002 s rendered in ms


def test_render_report_end_to_end(tmp_path):
    directory = str(tmp_path)
    obs = Observability(directory=directory, clock=ManualClock(step=0.5))
    with obs.span("pipeline.run"):
        with obs.timed("pipeline.blocking", metric="repro.block.seconds"):
            pass
    obs.close()
    text = render_report(directory)
    assert f"observability report: {directory}" in text
    assert "pipeline.run" in text
    assert "pipeline.blocking" in text
    assert "repro.block.seconds" in text


def test_render_report_without_trace_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="--trace-dir"):
        render_report(str(tmp_path))


class TestServingSection:
    def _metrics(self):
        from repro.obs import parse_metrics_text
        from repro.serving import ServingStats

        stats = ServingStats()
        registry = MetricsRegistry()
        stats.bind(registry)
        stats._queries.inc(10)
        stats._degraded.inc(1)
        stats._failovers.inc(2)
        stats.time_to_healthy_hist.observe(0.006)
        return parse_metrics_text(prometheus_text(registry))

    def test_absent_without_serving_metrics(self):
        from repro.obs.report import render_serving_section

        registry = MetricsRegistry()
        registry.counter("repro.x.count").inc(1)
        from repro.obs import parse_metrics_text

        metrics = parse_metrics_text(prometheus_text(registry))
        assert render_serving_section(metrics) == ""

    def test_renders_counters_and_time_to_healthy(self):
        from repro.obs.report import render_serving_section

        text = render_serving_section(self._metrics())
        assert "serving tier (fault tolerance)" in text
        assert "queries served" in text
        assert "degraded responses" in text
        assert "failovers" in text
        assert "time-to-healthy mean / p99 (ms)" in text
        assert "6.0" in text

    def test_renders_transit_beside_query_latency(self):
        from repro.obs import parse_metrics_text
        from repro.obs.report import render_serving_section
        from repro.serving import ServingStats

        stats = ServingStats()
        registry = MetricsRegistry()
        stats.bind(registry)
        stats._queries.inc(1)
        stats.query_hist.observe(0.0015)
        stats.transit_hist.observe(0.00042)
        text = render_serving_section(parse_metrics_text(prometheus_text(registry)))
        assert "query mean / p99 (ms)" in text and "1.50" in text
        assert "fan-out transit mean / p99 (ms)" in text and "0.42" in text
        assert "time-to-healthy" not in text  # no outage, no row
