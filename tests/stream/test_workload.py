"""Workload scenario generation and driver replay."""

from __future__ import annotations

import pytest

from repro.datasets import load_restaurants
from repro.stream import (
    StreamResolver,
    WorkloadDriver,
    bursty_workload,
    skewed_workload,
    uniform_workload,
)
from repro.stream.workload import SCENARIOS, WorkloadEvent


@pytest.fixture(scope="module")
def corpus():
    kb1, kb2, _ = load_restaurants()
    return kb1, kb2


class TestScenarios:
    def test_every_description_is_inserted(self, corpus):
        kb1, kb2 = corpus
        for make_events in SCENARIOS.values():
            events = make_events(kb1, kb2)
            inserted = {e.description.uri for e in events if e.kind == "insert"}
            assert inserted == set(kb1.uris()) | set(kb2.uris())

    def test_queries_target_already_inserted(self, corpus):
        kb1, kb2 = corpus
        for make_events in SCENARIOS.values():
            seen: set[str] = set()
            for event in make_events(kb1, kb2):
                if event.kind == "insert":
                    seen.add(event.description.uri)
                else:
                    assert event.description.uri in seen

    def test_deterministic_under_seed(self, corpus):
        kb1, kb2 = corpus
        for make_events in SCENARIOS.values():
            first = make_events(kb1, kb2, seed=3)
            second = make_events(kb1, kb2, seed=3)
            assert [(e.kind, e.description.uri, e.source) for e in first] == [
                (e.kind, e.description.uri, e.source) for e in second
            ]

    def test_bursty_shape(self, corpus):
        kb1, kb2 = corpus
        events = bursty_workload(kb1, kb2, burst_size=5, queries_per_burst=2)
        kinds = [e.kind for e in events]
        assert kinds[:5] == ["insert"] * 5
        assert kinds[5:7] == ["query"] * 2

    def test_uniform_ratio(self, corpus):
        kb1, kb2 = corpus
        events = uniform_workload(kb1, kb2, query_every=3)
        inserts = sum(1 for e in events if e.kind == "insert")
        queries = sum(1 for e in events if e.kind == "query")
        assert queries == inserts // 3

    def test_skewed_prefers_early_arrivals(self, corpus):
        kb1, kb2 = corpus
        events = skewed_workload(kb1, kb2, query_every=2, zipf_exponent=2.5, seed=1)
        arrival_rank = {}
        ranks = []
        for event in events:
            if event.kind == "insert":
                arrival_rank.setdefault(event.description.uri, len(arrival_rank))
            else:
                ranks.append(arrival_rank[event.description.uri])
        # With a strong exponent the median queried rank sits well below
        # the median arrival rank.
        assert sorted(ranks)[len(ranks) // 2] < len(arrival_rank) // 2

    def test_validation(self, corpus):
        kb1, kb2 = corpus
        with pytest.raises(ValueError):
            uniform_workload(kb1, kb2, query_every=0)
        with pytest.raises(ValueError):
            bursty_workload(kb1, kb2, burst_size=0)
        with pytest.raises(ValueError):
            skewed_workload(kb1, kb2, zipf_exponent=0)


class TestDriver:
    def test_replay_counts_and_latencies(self, corpus):
        kb1, kb2 = corpus
        events = uniform_workload(kb1, kb2, query_every=4)
        stats = WorkloadDriver(StreamResolver(clean_clean=True)).run(
            events, scenario="uniform"
        )
        assert stats.inserts == len(kb1) + len(kb2)
        assert stats.queries == sum(1 for e in events if e.kind == "query")
        assert len(stats.insert_latencies_s) == stats.inserts
        assert len(stats.query_latencies_s) == stats.queries
        assert stats.elapsed_s > 0
        assert stats.throughput_eps > 0
        assert len(stats.insert_latency_by_quartile()) == 4
        summary = stats.latency_summary("query")
        assert summary["p50"] <= summary["p95"] <= summary["max"]

    def test_summary_rows_render(self, corpus):
        from repro.evaluation.reporting import format_table

        kb1, kb2 = corpus
        stats = WorkloadDriver(StreamResolver(clean_clean=True)).run(
            bursty_workload(kb1, kb2), scenario="bursty"
        )
        table = format_table(stats.summary_rows(), title="t", first_column="metric")
        assert "throughput" in table

    def test_unknown_event_kind_rejected(self, corpus):
        kb1, _ = corpus
        driver = WorkloadDriver(StreamResolver())
        bad = [WorkloadEvent("mutate", next(iter(kb1)).copy())]
        with pytest.raises(ValueError):
            driver.run(bad)

    def test_on_query_callback_sees_results(self, corpus):
        kb1, kb2 = corpus
        results = []
        WorkloadDriver(StreamResolver(clean_clean=True)).run(
            uniform_workload(kb1, kb2, query_every=5),
            on_query=results.append,
        )
        assert results and all(r.latency["total_s"] >= 0 for r in results)


class TestInterruptedReplay:
    """SIGINT mid-replay: partial stats survive and the run stays
    recoverable (the `repro run --backend stream` Ctrl-C contract)."""

    @staticmethod
    def _interrupt_after(events, count):
        for position, event in enumerate(events):
            if position == count:
                raise KeyboardInterrupt
            yield event

    def test_interrupt_returns_prefix_stats(self, corpus):
        kb1, kb2 = corpus
        events = uniform_workload(kb1, kb2)
        stats = WorkloadDriver(StreamResolver(clean_clean=True)).run(
            self._interrupt_after(events, 12), scenario="uniform"
        )
        assert stats.interrupted
        assert stats.events == 12
        assert any(
            row["metric"] == "interrupted" for row in stats.summary_rows()
        )

    def test_interrupted_durable_run_is_recoverable(self, corpus, tmp_path):
        from repro.stream.durability import Durability, capture_state, recover

        kb1, kb2 = corpus
        events = uniform_workload(kb1, kb2)
        resolver = StreamResolver(
            clean_clean=True, durability=Durability(str(tmp_path))
        )
        stats = WorkloadDriver(resolver).run(self._interrupt_after(events, 20))
        assert stats.interrupted
        resolver.close()  # what the runner does after the interrupt

        reference = StreamResolver(clean_clean=True)
        WorkloadDriver(reference).run(events[:20])
        recovered = recover(str(tmp_path))
        assert capture_state(
            recovered.store, recovered.index, recovered.pairs
        ) == capture_state(reference.store, reference.index, reference.pairs)

    def test_interrupt_flushes_telemetry_before_wal_close(
        self, corpus, tmp_path, monkeypatch
    ):
        """The Ctrl-C stat-loss fix: the runner flushes
        the metrics/trace snapshot BEFORE closing the WAL, so telemetry
        survives even when the durability shutdown itself fails."""
        from repro.api import Pipeline, PipelineSpec
        from repro.obs import Observability, load_trace, parse_metrics_text
        from repro.stream.workload import WorkloadDriver

        kb1, kb2 = corpus
        interrupt_after = self._interrupt_after
        original_run = WorkloadDriver.run

        def interrupting_run(self, events, **kwargs):
            return original_run(self, interrupt_after(events, 12), **kwargs)

        monkeypatch.setattr(WorkloadDriver, "run", interrupting_run)

        def failing_close(self):
            raise OSError("disk gone at shutdown")

        from repro.stream.resolver import StreamResolver as Resolver

        monkeypatch.setattr(Resolver, "close", failing_close)

        telemetry_dir = tmp_path / "telemetry"
        spec = PipelineSpec.from_dict(
            {
                "backend": {
                    "kind": "stream",
                    "scenario": "uniform",
                    "durability_dir": str(tmp_path / "wal"),
                }
            }
        )
        obs = Observability(directory=str(telemetry_dir))
        with pytest.raises(OSError):
            Pipeline(spec, obs=obs).execute(kb1, kb2)

        # The flush ran before the (failing) WAL close: both artifacts
        # are on disk and reflect the executed prefix.
        spans = load_trace(str(telemetry_dir / "trace.jsonl"))
        assert any(span.name == "stream.insert" for span in spans)
        with open(telemetry_dir / "metrics.txt", encoding="utf-8") as handle:
            metrics = parse_metrics_text(handle.read())
        assert metrics["repro.stream.insert.count"]["value"] > 0
        assert metrics["repro.stream.insert.count"]["value"] < len(kb1) + len(kb2)


class TestStatsMetricsAgreement:
    """Satellite regression: the legacy stats rows and the metric
    registry are the same live objects — summaries agree bit-for-bit."""

    def test_latency_summaries_equal_registry_histograms(self, corpus):
        from repro.obs import InMemorySink, Observability

        kb1, kb2 = corpus
        obs = Observability(sink=InMemorySink())
        resolver = StreamResolver(clean_clean=True, obs=obs)
        stats = WorkloadDriver(resolver).run(
            uniform_workload(kb1, kb2, query_every=3), scenario="uniform"
        )
        registry = obs.registry
        for kind in ("insert", "query", "delete"):
            hist = registry.get(f"repro.stream.{kind}.seconds")
            assert hist is getattr(stats, f"{kind}_hist")
            assert stats.latency_summary(kind) == hist.summary()
        assert registry.get("repro.stream.insert.count").value == stats.inserts
        assert registry.get("repro.stream.query.count").value == stats.queries
        assert (
            registry.get("repro.stream.matches.count").value
            == stats.matches_found
        )
        assert (
            registry.get("repro.stream.serve.seconds").sum == stats.serve_s
        )

    def test_exposition_parses_back_to_the_stats_values(self, corpus):
        from repro.obs import InMemorySink, Observability, parse_metrics_text, prometheus_text

        kb1, kb2 = corpus
        obs = Observability(sink=InMemorySink())
        resolver = StreamResolver(clean_clean=True, obs=obs)
        stats = WorkloadDriver(resolver).run(
            uniform_workload(kb1, kb2, query_every=3)
        )
        parsed = parse_metrics_text(prometheus_text(obs.registry))
        entry = parsed["repro.stream.query.seconds"]
        # repr-rendered floats round-trip bit-identically to the stats.
        assert entry["count"] == stats.queries
        assert entry["sum"] == stats.query_hist.sum
        assert entry["quantiles"][0.5] == stats.latency_summary("query")["p50"]
        assert parsed["repro.stream.insert.count"]["value"] == stats.inserts

    def test_reconcile_wall_agrees_with_view_metric(self, corpus):
        from repro.obs import InMemorySink, Observability

        kb1, kb2 = corpus
        obs = Observability(sink=InMemorySink())
        resolver = StreamResolver(
            clean_clean=True, processed_view=True, reconcile_every=8, obs=obs
        )
        stats = WorkloadDriver(resolver).run(
            uniform_workload(kb1, kb2, query_every=3)
        )
        assert stats.reconciles > 0
        view_hist = obs.registry.get("repro.stream.view.reconcile.seconds")
        assert view_hist.count == stats.reconciles
        # The view's metric times the reconcile body; the stats' total
        # (driver-side) includes it plus the durability hooks.
        assert view_hist.sum <= stats.reconcile_s
        assert resolver.view.last_report.wall_s in view_hist.values


class TestGracefulSigterm:
    """SIGTERM takes the same graceful path as SIGINT (satellite)."""

    def test_sigterm_becomes_keyboard_interrupt_and_is_witnessed(self):
        import os
        import signal

        from repro.stream.workload import graceful_sigterm

        with graceful_sigterm() as witness:
            with pytest.raises(KeyboardInterrupt):
                # Delivered synchronously: CPython runs the handler at
                # the next bytecode boundary after kill() returns.
                os.kill(os.getpid(), signal.SIGTERM)
        assert witness.name == "SIGTERM"
        # The previous disposition is restored on exit.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_driver_returns_partial_stats_on_sigterm(self, corpus):
        import os
        import signal

        from repro.stream.workload import graceful_sigterm

        kb1, kb2 = corpus
        resolver = StreamResolver(clean_clean=True)
        events = uniform_workload(kb1, kb2, query_every=3)
        fired = []

        def terminate_once(_result):
            if not fired:
                fired.append(True)
                os.kill(os.getpid(), signal.SIGTERM)

        with graceful_sigterm() as witness:
            stats = WorkloadDriver(resolver).run(
                events, on_query=terminate_once
            )
        assert stats.interrupted
        assert witness.name == "SIGTERM"
        # The prefix before the signal was recorded, the suffix was not.
        assert 0 < stats.events < len(events)

    def test_sigint_path_leaves_witness_empty(self, corpus):
        from repro.stream.workload import graceful_sigterm

        kb1, kb2 = corpus
        resolver = StreamResolver(clean_clean=True)

        def interrupt_once(_result):
            raise KeyboardInterrupt()

        with graceful_sigterm() as witness:
            stats = WorkloadDriver(resolver).run(
                uniform_workload(kb1, kb2, query_every=3),
                on_query=interrupt_once,
            )
        assert stats.interrupted
        assert witness.name is None

    def test_interrupt_signal_shows_in_summary(self, corpus):
        kb1, kb2 = corpus
        resolver = StreamResolver(clean_clean=True)
        stats = WorkloadDriver(resolver).run(
            uniform_workload(kb1, kb2, query_every=3)
        )
        stats.interrupted = True
        stats.interrupt_signal = "SIGTERM"
        rows = {row["metric"]: row["value"] for row in stats.summary_rows()}
        assert rows["interrupted"] == "yes (SIGTERM, partial replay)"
