"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import os

import pytest

from repro.cli import main
from repro.datasets.samples import sample_path


@pytest.fixture
def movies_paths():
    return (
        sample_path("movies_a.nt"),
        sample_path("movies_b.nt"),
        sample_path("movies_gold.csv"),
    )


class TestStats:
    def test_single_kb(self, capsys, movies_paths):
        assert main(["stats", movies_paths[0]]) == 0
        out = capsys.readouterr().out
        assert "descriptions" in out
        assert "interlinking density" in out

    def test_two_kbs_with_gold(self, capsys, movies_paths):
        kb_a, kb_b, gold = movies_paths
        assert main(["stats", kb_a, kb_b, "--gold", gold]) == 0
        out = capsys.readouterr().out
        assert "Vocabulary overlap" in out
        assert "Match-similarity regime" in out
        assert "regime" in out


class TestBlock:
    def test_without_gold(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert main(["block", "--kb1", kb_a, "--kb2", kb_b]) == 0
        out = capsys.readouterr().out
        assert "Blocking summary" in out
        assert "token-blocking" in out

    def test_with_gold(self, capsys, movies_paths):
        kb_a, kb_b, gold = movies_paths
        assert main(["block", "--kb1", kb_a, "--kb2", kb_b, "--gold", gold]) == 0
        out = capsys.readouterr().out
        assert "PC" in out and "RR" in out

    @pytest.mark.parametrize(
        "method", ["token", "attribute-clustering", "prefix-infix-suffix", "qgrams"]
    )
    def test_all_methods(self, capsys, movies_paths, method):
        kb_a, kb_b, _ = movies_paths
        assert main(["block", "--kb1", kb_a, "--kb2", kb_b, "--method", method]) == 0

    def test_unknown_method_rejected(self, movies_paths):
        kb_a, kb_b, _ = movies_paths
        with pytest.raises(SystemExit):
            main(["block", "--kb1", kb_a, "--method", "bogus"])


class TestUnloadableInput:
    """A bad --kb1 is a usage error (exit 2, one line), not a traceback."""

    @pytest.mark.parametrize(
        "filename, content, exit_code, message",
        [
            ("bad.nt", '<http://a/1> <http://p> "ok" .\nnot a triple\n', 2, "line 2: "),
            ("missing.nt", None, 2, "No such file"),
            ("data.json", "{}", 2, "unsupported RDF extension"),
            ("UPPER.NT", '<http://a/1> <http://p> "ok" .\n', 0, "Blocking summary"),
        ],
    )
    def test_exit_code_and_message(
        self, capsys, tmp_path, filename, content, exit_code, message
    ):
        path = tmp_path / filename
        if content is not None:
            path.write_text(content)
        assert main(["block", "--kb1", str(path)]) == exit_code
        out = capsys.readouterr().out
        assert message in out
        if exit_code:
            assert out.startswith(f"cannot load {path}: ")
            assert len(out.splitlines()) == 1


class TestResolve:
    def test_end_to_end_with_gold(self, capsys, movies_paths):
        kb_a, kb_b, gold = movies_paths
        assert (
            main(
                [
                    "resolve",
                    "--kb1", kb_a,
                    "--kb2", kb_b,
                    "--gold", gold,
                    "--budget", "300",
                    "--threshold", "0.35",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Pipeline summary" in out
        assert "Matching quality" in out

    def test_output_csv(self, capsys, tmp_path, movies_paths):
        kb_a, kb_b, gold = movies_paths
        out_path = str(tmp_path / "matches.csv")
        assert (
            main(
                [
                    "resolve",
                    "--kb1", kb_a,
                    "--kb2", kb_b,
                    "--threshold", "0.35",
                    "--out", out_path,
                ]
            )
            == 0
        )
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["uri1", "uri2"]
        assert len(rows) > 10

    def test_benefit_and_schemes_options(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert (
            main(
                [
                    "resolve",
                    "--kb1", kb_a,
                    "--kb2", kb_b,
                    "--benefit", "entity-coverage",
                    "--weighting", "ECBS",
                    "--pruning", "WNP",
                    "--no-update",
                ]
            )
            == 0
        )

    def test_dirty_er_single_kb(self, capsys, movies_paths):
        kb_a, _, _ = movies_paths
        assert main(["resolve", "--kb1", kb_a, "--threshold", "0.9"]) == 0


class TestStream:
    def test_clean_clean_replay(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert (
            main(
                [
                    "stream", "--kb1", kb_a, "--kb2", kb_b,
                    "--scenario", "bursty", "--weighting", "ARCS",
                    "--pruning", "CNP",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Streaming workload: bursty" in out
        assert "throughput" in out
        assert "insert mean by quartile" in out

    def test_dirty_replay_with_budget(self, capsys, movies_paths):
        kb_a, _, _ = movies_paths
        assert main(["stream", "--kb1", kb_a, "--budget", "2"]) == 0
        assert "Streaming workload: uniform" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, movies_paths):
        kb_a, _, _ = movies_paths
        with pytest.raises(SystemExit):
            main(["stream", "--kb1", kb_a, "--scenario", "nope"])

    def test_full_pruner_table_accepted(self, capsys, movies_paths):
        """`stream --pruning` offers the same registered table as
        `resolve` (reciprocal variants degrade to their base algorithm
        per query) plus the stream-only 'none'."""
        kb_a, _, _ = movies_paths
        assert (
            main(["stream", "--kb1", kb_a, "--pruning", "ReciprocalCNP"]) == 0
        )
        capsys.readouterr()
        assert main(["stream", "--kb1", kb_a, "--pruning", "none"]) == 0


class TestStreamDurability:
    def test_churn_scenario_reports_deletes(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert (
            main(["stream", "--kb1", kb_a, "--kb2", kb_b,
                  "--scenario", "churn"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Streaming workload: churn" in out
        assert "deletes" in out

    def test_durable_replay_then_recover_only(self, capsys, tmp_path,
                                              movies_paths):
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "state")
        assert (
            main(["stream", "--kb1", kb_a, "--kb2", kb_b,
                  "--scenario", "erasure", "--durability-dir", directory,
                  "--snapshot-every", "25"])
            == 0
        )
        assert os.path.exists(os.path.join(directory, "wal.log"))
        capsys.readouterr()
        # A bare --recover-dir inspects what the directory restores to.
        assert main(["stream", "--recover-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "Recovered streaming state" in out
        assert "live descriptions" in out

    def test_crash_harness_verifies_equivalence(self, capsys, tmp_path,
                                                movies_paths):
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "crash")
        assert (
            main(["stream", "--kb1", kb_a, "--kb2", kb_b,
                  "--scenario", "churn", "--processed-view",
                  "--snapshot-every", "15",
                  "--crash-at", "40", "--recover-dir", directory])
            == 0
        )
        out = capsys.readouterr().out
        assert "Crash harness: churn @ event 40" in out
        assert "recovery equivalence: OK" in out
        # The crashed directory holds a processed-view stack, which keeps
        # one statistics table (the survivor one): the summary reads it.
        assert main(["stream", "--recover-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "pairs tracked" in out and "view threshold" in out

    def test_crash_at_requires_recover_dir(self, capsys, movies_paths):
        kb_a, _, _ = movies_paths
        assert main(["stream", "--kb1", kb_a, "--crash-at", "5"]) == 1
        assert "--recover-dir" in capsys.readouterr().out

    def test_recover_only_without_state_fails(self, capsys, tmp_path):
        assert main(["stream", "--recover-dir", str(tmp_path)]) == 1
        assert "no usable write-ahead log" in capsys.readouterr().out

    def test_no_kb1_and_no_recover_dir_rejected(self, capsys):
        assert main(["stream"]) == 1
        assert "--kb1" in capsys.readouterr().out

    def test_durability_dir_rejects_interval_sweep(self, capsys, tmp_path,
                                                   movies_paths):
        kb_a, _, _ = movies_paths
        assert (
            main(["stream", "--kb1", kb_a, "--processed-view",
                  "--reconcile-interval", "8,16",
                  "--durability-dir", str(tmp_path / "x")])
            == 1
        )
        assert "sweep" in capsys.readouterr().out


class TestSynthesize:
    def test_writes_workload(self, capsys, tmp_path):
        out_dir = str(tmp_path / "workload")
        assert (
            main(
                [
                    "synthesize",
                    "--entities", "40",
                    "--regime", "periphery",
                    "--seed", "3",
                    "--out-dir", out_dir,
                ]
            )
            == 0
        )
        for name in ("kb1.nt", "kb2.nt", "gold.csv"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_synthesized_workload_is_loadable_and_resolvable(self, capsys, tmp_path):
        out_dir = str(tmp_path / "workload")
        main(["synthesize", "--entities", "40", "--out-dir", out_dir, "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "resolve",
                    "--kb1", os.path.join(out_dir, "kb1.nt"),
                    "--kb2", os.path.join(out_dir, "kb2.nt"),
                    "--gold", os.path.join(out_dir, "gold.csv"),
                    "--budget", "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recall" in out

    def test_round_trip_preserves_gold_size(self, capsys, tmp_path):
        from repro.datasets.gold import load_gold_csv
        from repro.datasets.synthetic import SyntheticConfig, synthesize_pair

        out_dir = str(tmp_path / "w")
        main(["synthesize", "--entities", "40", "--out-dir", out_dir, "--seed", "5"])
        reference = synthesize_pair(SyntheticConfig(entities=40, overlap=0.7, seed=5))
        loaded = load_gold_csv(os.path.join(out_dir, "gold.csv"))
        assert loaded.matches == reference.gold.matches


class TestRun:
    SPEC = os.path.join(
        os.path.dirname(__file__), "..", "examples", "spec_movies.json"
    )

    def test_spec_with_embedded_data(self, capsys):
        assert main(["run", "--spec", self.SPEC]) == 0
        out = capsys.readouterr().out
        assert "Pipeline summary" in out
        assert "Matching quality" in out
        assert "cache key" in out

    def test_backend_override(self, capsys):
        assert main(["run", "--spec", self.SPEC, "--backend", "mapreduce"]) == 0
        out = capsys.readouterr().out
        assert "mapreduce" in out

    def test_kb_override(self, capsys, movies_paths):
        kb_a, kb_b, gold = movies_paths
        assert (
            main(
                [
                    "run", "--spec", self.SPEC,
                    "--kb1", kb_a, "--kb2", kb_b, "--gold", gold,
                ]
            )
            == 0
        )
        assert "Pipeline summary" in capsys.readouterr().out

    def test_stream_backend_prints_replay(self, capsys):
        assert main(["run", "--spec", self.SPEC, "--backend", "stream"]) == 0
        out = capsys.readouterr().out
        assert "Streaming replay" in out

    def test_output_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "m.csv")
        assert main(["run", "--spec", self.SPEC, "--out", out_path]) == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["uri1", "uri2"]
        assert len(rows) > 10

    def test_invalid_spec_fails_eagerly(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"weighting": "BOGUS"}, handle)
        assert main(["run", "--spec", path]) == 2
        out = capsys.readouterr().out
        assert "invalid spec" in out
        # The error names the registered alternatives.
        assert "ARCS" in out

    def test_removed_formulation_value_is_an_invalid_spec(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "legacy.json")
        with open(path, "w") as handle:
            json.dump({"backend": {"kind": "mapreduce", "formulation": "string"}}, handle)
        assert main(["run", "--spec", path]) == 2
        out = capsys.readouterr().out
        assert f"invalid spec {path}:" in out
        assert "removed" in out

    def test_missing_spec_file_reports_cleanly(self, capsys):
        assert main(["run", "--spec", "/nonexistent/spec.json"]) == 2
        assert "not found" in capsys.readouterr().out

    def test_kb2_without_kb1_rejected(self, capsys, movies_paths):
        _, kb_b, _ = movies_paths
        assert main(["run", "--spec", self.SPEC, "--kb2", kb_b]) == 2
        assert "kb2" in capsys.readouterr().out

    def test_sql_db_path_already_loaded_exits_2(self, capsys, tmp_path):
        # a second run into the same database file: a message naming
        # the file and the statement, not a sqlite3 traceback
        db_path = str(tmp_path / "run.db")
        command = ["run", "--spec", self.SPEC, "--backend", "sql", "--db-path", db_path]
        assert main(command) == 0
        capsys.readouterr()
        assert main(command) == 2
        out = capsys.readouterr().out
        assert "cannot run spec" in out
        assert "already exists" in out and db_path in out

    def test_sql_db_path_not_a_database_exits_2(self, capsys, tmp_path):
        db_path = tmp_path / "garbage.db"
        db_path.write_bytes(b"this is not a sqlite database file\n" * 64)
        assert (
            main(
                ["run", "--spec", self.SPEC, "--backend", "sql",
                 "--db-path", str(db_path)]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "cannot run spec" in out and "not a database" in out


class TestComponents:
    def test_lists_registry(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        assert "Registered components" in out
        for name in ("ARCS", "CNP", "token", "uniform", "quantity"):
            assert name in out

    def test_kind_filter(self, capsys):
        assert main(["components", "--kind", "pruner"]) == 0
        out = capsys.readouterr().out
        assert "ReciprocalCNP" in out
        assert "qgrams" not in out


class TestMapReduce:
    def test_serial_sweep(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert (
            main(
                [
                    "mapreduce", "--kb1", kb_a, "--kb2", kb_b,
                    "--workers", "1", "2",
                    "--executor", "serial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MapReduce meta-blocking sweep" in out
        assert "formulation" not in out
        assert "speedup" in out

    def test_process_executor(self, capsys, movies_paths):
        from repro.mapreduce import ProcessExecutor

        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        kb_a, _, _ = movies_paths
        assert (
            main(
                [
                    "mapreduce", "--kb1", kb_a,
                    "--workers", "2",
                    "--executor", "process",
                    "--weighting", "CBS", "--pruning", "WEP",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "process" in out

    def test_unknown_executor_rejected(self, movies_paths):
        kb_a, _, _ = movies_paths
        with pytest.raises(SystemExit):
            main(["mapreduce", "--kb1", kb_a, "--executor", "gpu"])

    def test_formulation_flag_is_gone(self, movies_paths):
        kb_a, _, _ = movies_paths
        with pytest.raises(SystemExit):
            main(["mapreduce", "--kb1", kb_a, "--formulation", "int"])


class TestObservability:
    """--trace-dir/--metrics on run/stream/mapreduce + `repro obs report`."""

    def _telemetry(self, directory):
        from repro.obs import load_trace, parse_metrics_text

        spans = load_trace(os.path.join(directory, "trace.jsonl"))
        with open(
            os.path.join(directory, "metrics.txt"), encoding="utf-8"
        ) as handle:
            metrics = parse_metrics_text(handle.read())
        return spans, metrics

    def test_stream_writes_and_reports_telemetry(self, capsys, movies_paths, tmp_path):
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "telemetry")
        assert (
            main(
                [
                    "stream", "--kb1", kb_a, "--kb2", kb_b,
                    "--trace-dir", directory,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"telemetry written to {directory}" in out
        spans, metrics = self._telemetry(directory)
        names = {span.name for span in spans}
        assert {"pipeline.run", "stream.replay", "stream.query"} <= names
        assert metrics["repro.stream.insert.count"]["value"] > 0

        assert main(["obs", "report", directory]) == 0
        report_out = capsys.readouterr().out
        assert "span tree" in report_out
        assert "stream.query" in report_out
        assert "histograms (ms)" in report_out

    def test_metrics_flag_prints_exposition(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert main(["stream", "--kb1", kb_a, "--kb2", kb_b, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_stream_insert_count counter" in out

    def test_run_and_mapreduce_accept_trace_dir(self, capsys, movies_paths, tmp_path):
        kb_a, kb_b, _ = movies_paths
        run_dir = str(tmp_path / "run")
        assert (
            main(
                [
                    "run", "--spec", TestRun.SPEC,
                    "--kb1", kb_a, "--kb2", kb_b, "--trace-dir", run_dir,
                ]
            )
            == 0
        )
        spans, _ = self._telemetry(run_dir)
        assert {"pipeline.blocking", "pipeline.matching"} <= {
            s.name for s in spans
        }

        mr_dir = str(tmp_path / "mr")
        assert (
            main(
                [
                    "mapreduce", "--kb1", kb_a, "--kb2", kb_b,
                    "--workers", "2", "--executor", "serial",
                    "--trace-dir", mr_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        spans, metrics = self._telemetry(mr_dir)
        assert "mapreduce.job" in {s.name for s in spans}
        assert metrics["repro.mapreduce.jobs.count"]["value"] > 0

    def test_mapreduce_traces_its_one_blocking_pass(
        self, capsys, movies_paths, tmp_path
    ):
        """The sweep blocks once, traced; each cell then reuses the blocks."""
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "mr")
        assert (
            main(
                [
                    "mapreduce", "--kb1", kb_a, "--kb2", kb_b,
                    "--workers", "1", "2", "--executor", "serial",
                    "--trace-dir", directory,
                ]
            )
            == 0
        )
        capsys.readouterr()
        spans, _ = self._telemetry(directory)
        blocking = [s for s in spans if s.name == "pipeline.blocking"]
        real = [s for s in blocking if not s.attrs.get("reused")]
        assert len(real) == 1
        assert real[0].duration_s > 0
        assert real[0].attrs["blocks"] > 0
        assert len(blocking) - len(real) == 2

    def test_trace_dir_rejected_with_sweep_and_crash_harness(
        self, capsys, movies_paths, tmp_path
    ):
        kb_a, _, _ = movies_paths
        directory = str(tmp_path / "t")
        assert (
            main(
                [
                    "stream", "--kb1", kb_a,
                    "--reconcile-interval", "8,16", "--trace-dir", directory,
                ]
            )
            == 1
        )
        assert "sweep" in capsys.readouterr().out
        assert (
            main(
                [
                    "stream", "--kb1", kb_a, "--crash-at", "5",
                    "--recover-dir", str(tmp_path / "wal"),
                    "--trace-dir", directory,
                ]
            )
            == 1
        )
        assert "crash harness" in capsys.readouterr().out

    def test_obs_report_without_trace_fails_cleanly(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path)]) == 1
        assert "--trace-dir" in capsys.readouterr().out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    pytestmark = pytest.mark.skipif(
        os.name != "posix", reason="serving tier needs fork + POSIX signals"
    )

    def test_kill_fault_run_recovers_and_verifies(self, capsys, movies_paths):
        kb_a, kb_b, _ = movies_paths
        assert (
            main(
                [
                    "serve", "--kb1", kb_a, "--kb2", kb_b,
                    "--shards", "2", "--rate", "500",
                    "--fault", "kill:1@e=10",
                    "--heartbeat-deadline", "0.5",
                    "--max-events", "40",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault fired: kill:1@e=10" in out
        assert "degraded queries: 0 after recovery" in out
        assert "recovery equivalence: OK" in out
        assert "Serving tier statistics" in out

    def test_malformed_fault_spec_rejected(self, capsys, movies_paths):
        kb_a, _, _ = movies_paths
        assert main(["serve", "--kb1", kb_a, "--fault", "explode:0@t=1"]) == 1
        assert "explode" in capsys.readouterr().out

    def test_fault_on_missing_shard_rejected(self, capsys, movies_paths):
        kb_a, _, _ = movies_paths
        assert (
            main(["serve", "--kb1", kb_a, "--shards", "2",
                  "--fault", "kill:5@t=1"])
            == 1
        )
        assert "shards 0..1" in capsys.readouterr().out

    def test_torn_fault_requires_durability_root(self, capsys, movies_paths):
        kb_a, _, _ = movies_paths
        assert (
            main(["serve", "--kb1", kb_a,
                  "--fault", "torn:1@spawn:budget=4096"])
            == 1
        )
        assert "--durability-root" in capsys.readouterr().out


class TestStreamSigterm:
    pytestmark = pytest.mark.skipif(
        os.name != "posix", reason="needs POSIX signals"
    )

    def test_sigterm_mid_replay_exits_143_with_partial_stats(
        self, capsys, movies_paths, monkeypatch
    ):
        import signal

        from repro.stream.workload import WorkloadDriver

        original = WorkloadDriver.run
        fired = []

        def run_with_sigterm(self, events, *args, **kwargs):
            def terminate(_result):
                if not fired:
                    fired.append(True)
                    os.kill(os.getpid(), signal.SIGTERM)

            kwargs["on_query"] = terminate
            return original(self, events, *args, **kwargs)

        monkeypatch.setattr(WorkloadDriver, "run", run_with_sigterm)
        kb_a, kb_b, _ = movies_paths
        assert (
            main(["stream", "--kb1", kb_a, "--kb2", kb_b]) == 143
        )
        out = capsys.readouterr().out
        assert "yes (SIGTERM, partial replay)" in out
