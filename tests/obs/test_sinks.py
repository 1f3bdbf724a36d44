"""Sinks and text formats: JSONL round-trip, schema validation, exposition."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    InMemorySink,
    JsonlSink,
    ManualClock,
    MetricsRegistry,
    Span,
    TraceSchemaError,
    Tracer,
    load_trace,
    parse_metrics_text,
    prometheus_text,
    span_from_dict,
    span_to_dict,
    validate_span_dict,
)


def _sample_span(**overrides) -> Span:
    base = dict(
        span_id=3, parent_id=1, name="stream.query",
        start_s=0.125, duration_s=0.0625, attrs={"source": "kb1"},
    )
    base.update(overrides)
    return Span(**base)


class TestJsonlRoundTrip:
    def test_span_dict_round_trips_bit_identically(self):
        span = _sample_span()
        document = json.loads(json.dumps(span_to_dict(span)))
        assert span_from_dict(document) == span

    def test_jsonl_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(clock=ManualClock(step=0.25))
        tracer.add_sink(sink)
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        sink.close()
        spans = load_trace(path)
        assert [span.name for span in spans] == ["inner", "outer"]
        assert spans[0].parent_id == spans[1].span_id
        assert spans[1].attrs == {"k": 1}
        # Floats survive the round trip exactly (repr-based rendering).
        assert spans[0].duration_s == 0.25

    def test_load_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            load_trace(str(path))

    def test_load_trace_reports_the_offending_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(span_to_dict(_sample_span(parent_id=None)))
        path.write_text(good + "\n" + json.dumps({"span_id": 1}) + "\n")
        with pytest.raises(TraceSchemaError, match=":2:"):
            load_trace(str(path))


class TestSchemaValidation:
    def test_valid_document_passes(self):
        document = span_to_dict(_sample_span())
        assert validate_span_dict(document) is document

    @pytest.mark.parametrize("mutation,needle", [
        ({"span_id": 0}, "span_id"),
        ({"span_id": True}, "span_id"),
        ({"parent_id": 0}, "parent_id"),
        ({"name": ""}, "name"),
        ({"start_s": -1.0}, "start_s"),
        ({"duration_s": "fast"}, "duration_s"),
        ({"attrs": []}, "attrs"),
    ])
    def test_bad_values_are_rejected(self, mutation, needle):
        document = span_to_dict(_sample_span())
        document.update(mutation)
        with pytest.raises(TraceSchemaError, match=needle):
            validate_span_dict(document)

    def test_missing_fields_are_rejected(self):
        document = span_to_dict(_sample_span())
        del document["duration_s"]
        with pytest.raises(TraceSchemaError, match="missing"):
            validate_span_dict(document)

    def test_non_object_is_rejected(self):
        with pytest.raises(TraceSchemaError, match="not an object"):
            validate_span_dict([1, 2])


class TestMemorySinks:
    def test_in_memory_by_name_counts(self):
        sink = InMemorySink()
        for name in ("a", "b", "a"):
            sink.emit(_sample_span(name=name))
        assert sink.by_name() == {"a": 2, "b": 1}
        assert len(sink) == 3
        sink.clear()
        assert list(sink) == []

    def test_in_memory_keeps_emission_order(self):
        sink = InMemorySink()
        spans = [_sample_span(span_id=i, name=f"s{i}") for i in range(5)]
        for span in spans:
            sink.emit(span)
        assert list(sink) == spans

    def test_jsonl_flush_makes_spans_readable_before_close(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.emit(_sample_span())
        sink.flush()
        assert load_trace(path) == [_sample_span()]
        sink.close()

    def test_jsonl_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.close()
        sink.close()
        sink.flush()
        assert load_trace(path) == []

class TestExposition:
    def test_prometheus_text_parse_round_trip_is_exact(self):
        registry = MetricsRegistry()
        registry.counter("repro.stream.insert.count").inc(7)
        registry.gauge("repro.stream.backlog").set(2.5)
        hist = registry.histogram("repro.stream.insert.seconds")
        for value in (0.0004, 0.02, 0.003):
            hist.observe(value)
        text = prometheus_text(registry)
        parsed = parse_metrics_text(text)
        assert parsed["repro.stream.insert.count"]["value"] == 7
        assert parsed["repro.stream.backlog"]["value"] == 2.5
        entry = parsed["repro.stream.insert.seconds"]
        assert entry["count"] == 3
        # repr-rendered floats parse back bit-identically.
        assert entry["sum"] == hist.sum
        assert entry["quantiles"][0.5] == hist.percentile(0.5)
        assert entry["buckets"]["+Inf"] == 3

    def test_histogram_buckets_are_cumulative_in_text(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro.x.seconds", buckets=(0.01, 0.1))
        for value in (0.005, 0.05, 5.0):
            hist.observe(value)
        parsed = parse_metrics_text(prometheus_text(registry))
        buckets = parsed["repro.x.seconds"]["buckets"]
        assert buckets["0.01"] == 1
        assert buckets["0.1"] == 2
        assert buckets["+Inf"] == 3

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_metrics_text("") == {}

    def test_suffix_collision_with_other_metric_names(self):
        # A counter literally named *.count must not be mistaken for
        # a histogram's _count sample.
        registry = MetricsRegistry()
        registry.counter("repro.stream.insert.count").inc(3)
        hist = registry.histogram("repro.stream.insert.seconds")
        hist.observe(0.5)
        parsed = parse_metrics_text(prometheus_text(registry))
        assert parsed["repro.stream.insert.count"] == {
            "type": "counter", "value": 3
        }
        assert parsed["repro.stream.insert.seconds"]["count"] == 1
