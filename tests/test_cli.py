"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import json
import os

import pytest

from repro.api import PipelineSpec
from repro.cli import main
from repro.datasets.samples import sample_path
from repro.stream.workload import SCENARIOS

#: the committed example spec (movies sample embedded as its data node)
SPEC = os.path.join(os.path.dirname(__file__), "..", "examples", "spec_movies.json")


@pytest.fixture
def movies_paths():
    return (
        sample_path("movies_a.nt"),
        sample_path("movies_b.nt"),
        sample_path("movies_gold.csv"),
    )


def _save(tmp_path, spec: PipelineSpec, name: str = "spec.json") -> str:
    path = str(tmp_path / name)
    spec.save(path)
    return path


def _stream_spec(tmp_path, name: str = "stream.json", **backend) -> str:
    """The example spec on the stream backend with *backend* knobs, saved."""
    spec = PipelineSpec.load(SPEC).with_backend(kind="stream", **backend)
    return _save(tmp_path, spec, name)


class TestUnloadableInput:
    """A bad --kb1 is a usage error (exit 2, one line), not a traceback."""

    @pytest.mark.parametrize(
        "filename, content, exit_code, message",
        [
            ("bad.nt", '<http://a/1> <http://p> "ok" .\nnot a triple\n', 2, "line 2: "),
            ("missing.nt", None, 2, "No such file"),
            ("data.json", "{}", 2, "unsupported RDF extension"),
            ("data.ttl", '<http://a/1> <http://p> "ok" .\n', 2, "unsupported RDF extension"),
            ("UPPER.NT", '<http://a/1> <http://p> "ok" .\n', 0, "Pipeline summary"),
        ],
    )
    def test_exit_code_and_message(
        self, capsys, tmp_path, filename, content, exit_code, message
    ):
        path = tmp_path / filename
        if content is not None:
            path.write_text(content)
        assert main(["run", "--spec", SPEC, "--kb1", str(path)]) == exit_code
        out = capsys.readouterr().out
        assert message in out
        if exit_code:
            assert out.startswith(f"cannot load {path}: ")
            assert len(out.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, filename", [("--kb2", "missing.nt"), ("--gold", "missing.csv")]
    )
    def test_every_input_file_is_checked(
        self, capsys, tmp_path, movies_paths, flag, filename
    ):
        kb_a, _, _ = movies_paths
        path = str(tmp_path / filename)
        assert main(["run", "--spec", SPEC, "--kb1", kb_a, flag, path]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"cannot load {path}: ")
        assert "No such file" in out
        assert len(out.splitlines()) == 1


class TestStream:
    """Workload replays: `run` on a spec whose backend is `stream`."""

    def test_clean_clean_replay(self, capsys, tmp_path, movies_paths):
        kb_a, kb_b, _ = movies_paths
        spec = _stream_spec(tmp_path, scenario="bursty")
        assert main(["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]) == 0
        out = capsys.readouterr().out
        assert "Streaming replay: bursty" in out
        assert "throughput" in out
        assert "insert mean by quartile" in out

    def test_dirty_replay_with_budget(self, capsys, tmp_path, movies_paths):
        kb_a, _, _ = movies_paths
        spec = _stream_spec(tmp_path, query_budget=2)
        assert main(["run", "--spec", spec, "--kb1", kb_a]) == 0
        assert "Streaming replay: uniform" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"backend": {"kind": "stream", "scenario": "nope"}})
        )
        assert main(["run", "--spec", str(path)]) == 2
        out = capsys.readouterr().out
        assert "invalid spec" in out and "nope" in out

    def test_full_pruner_table_accepted(self, capsys, tmp_path, movies_paths):
        """A reciprocal pruner degrades to its base algorithm per query,
        and the query pruner also takes the stream-only 'none'."""
        kb_a, _, _ = movies_paths
        reciprocal = PipelineSpec.load(SPEC).with_components(
            pruning="ReciprocalCNP"
        )
        path = _save(
            tmp_path, reciprocal.with_backend(kind="stream"), "reciprocal.json"
        )
        assert main(["run", "--spec", path, "--kb1", kb_a]) == 0
        capsys.readouterr()
        spec = _stream_spec(tmp_path, query_pruner="none")
        assert main(["run", "--spec", spec, "--kb1", kb_a]) == 0


class TestStreamDurability:
    def test_churn_scenario_reports_deletes(self, capsys, tmp_path, movies_paths):
        kb_a, kb_b, _ = movies_paths
        spec = _stream_spec(tmp_path, scenario="churn")
        assert main(["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]) == 0
        out = capsys.readouterr().out
        assert "Streaming replay: churn" in out
        assert "deletes" in out

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_durable_replay_then_verify(
        self, capsys, tmp_path, movies_paths, scenario
    ):
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "state")
        spec = _stream_spec(
            tmp_path, scenario=scenario, durability_dir=directory,
            snapshot_every=25,
        )
        assert main(["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]) == 0
        assert os.path.exists(os.path.join(directory, "wal.log"))
        capsys.readouterr()
        # `verify` inspects what the directory restores to.
        assert main(["verify", directory]) == 0
        out = capsys.readouterr().out
        assert "Recovered streaming state" in out
        assert "live descriptions" in out
        assert "replay equivalence: OK" in out

    def test_verify_reads_a_processed_view_directory(
        self, capsys, tmp_path, movies_paths
    ):
        """A processed-view stack keeps one statistics table (the
        survivor one): the summary reads it."""
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "view")
        spec = _stream_spec(
            tmp_path, scenario="churn", processed_view=True,
            durability_dir=directory, snapshot_every=15,
        )
        assert main(["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]) == 0
        capsys.readouterr()
        assert main(["verify", directory]) == 0
        out = capsys.readouterr().out
        assert "pairs tracked" in out and "view threshold" in out
        assert "replay equivalence: OK" in out

    def test_second_run_into_a_used_directory_is_refused(
        self, capsys, tmp_path, movies_paths
    ):
        """Re-running into a directory that holds a WAL would append a
        second history; the run exits 2 and the first run still verifies."""
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "state")
        spec = _stream_spec(
            tmp_path, scenario="churn", durability_dir=directory,
            snapshot_every=15,
        )
        args = ["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        out = capsys.readouterr().out
        assert "cannot run spec" in out and directory in out
        assert main(["verify", directory]) == 0
        assert "replay equivalence: OK" in capsys.readouterr().out

    def test_verify_without_state_fails(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path)]) == 1
        assert "no usable write-ahead log" in capsys.readouterr().out

    def test_verify_fails_when_recoveries_diverge(
        self, capsys, tmp_path, movies_paths, monkeypatch
    ):
        from repro.stream import durability

        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "state")
        spec = _stream_spec(tmp_path, durability_dir=directory, snapshot_every=25)
        assert main(["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]) == 0
        capsys.readouterr()
        captures = iter(range(2))
        monkeypatch.setattr(
            durability, "capture_state", lambda *parts: next(captures)
        )
        assert main(["verify", directory]) == 1
        assert "replay equivalence: FAIL" in capsys.readouterr().out


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
                    "run", "--spec", SPEC,
                    "--kb1", os.path.join(out_dir, "kb1.nt"),
                    "--kb2", os.path.join(out_dir, "kb2.nt"),
                    "--gold", os.path.join(out_dir, "gold.csv"),
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
    def test_spec_with_embedded_data(self, capsys):
        assert main(["run", "--spec", SPEC]) == 0
        out = capsys.readouterr().out
        assert "Pipeline summary" in out
        assert "Matching quality" in out
        assert "cache key" in out
        # The spec's data node brings gold and `evaluation.blocks` is
        # on: the blocking quality the run computed is shown too.
        assert "Blocking quality" in out
        assert "PC" in out and "PQ" in out and "RR" in out

    def test_backend_override(self, capsys):
        assert main(["run", "--spec", SPEC, "--backend", "mapreduce"]) == 0
        out = capsys.readouterr().out
        assert "mapreduce" in out

    def test_kb_override(self, capsys, movies_paths):
        kb_a, kb_b, gold = movies_paths
        assert (
            main(
                [
                    "run", "--spec", SPEC,
                    "--kb1", kb_a, "--kb2", kb_b, "--gold", gold,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Pipeline summary" in out
        assert "Blocking quality" in out and "Matching quality" in out

    def test_without_gold_prints_no_quality_tables(self, capsys, movies_paths):
        """Explicit inputs replace the spec's data node, gold included:
        with no --gold there is nothing to score against."""
        kb_a, kb_b, _ = movies_paths
        assert main(["run", "--spec", SPEC, "--kb1", kb_a, "--kb2", kb_b]) == 0
        out = capsys.readouterr().out
        assert "Pipeline summary" in out and "blocks" in out
        assert "Blocking quality" not in out
        assert "Matching quality" not in out

    def test_stream_backend_prints_replay(self, capsys):
        assert main(["run", "--spec", SPEC, "--backend", "stream"]) == 0
        out = capsys.readouterr().out
        assert "Streaming replay" in out

    def test_output_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "m.csv")
        assert main(["run", "--spec", SPEC, "--out", out_path]) == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["uri1", "uri2"]
        assert len(rows) > 10

    def test_output_csv_with_explicit_inputs(self, capsys, tmp_path, movies_paths):
        kb_a, kb_b, _ = movies_paths
        out_path = str(tmp_path / "matches.csv")
        assert (
            main(
                [
                    "run", "--spec", SPEC,
                    "--kb1", kb_a, "--kb2", kb_b, "--out", out_path,
                ]
            )
            == 0
        )
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["uri1", "uri2"]
        assert len(rows) > 10

    def test_dirty_er_single_kb(self, capsys, tmp_path, movies_paths):
        kb_a, _, _ = movies_paths
        spec = PipelineSpec.load(SPEC).with_matching(
            matcher={"name": "threshold", "params": {"threshold": 0.9}}
        )
        assert main(["run", "--spec", _save(tmp_path, spec), "--kb1", kb_a]) == 0

    def test_benefit_and_schemes_options(self, capsys, tmp_path):
        spec = PipelineSpec.load(SPEC).with_matching(
            benefit="entity-coverage", update_phase=False
        ).with_components(weighting="ECBS", pruning="WNP")
        assert main(["run", "--spec", _save(tmp_path, spec)]) == 0

    @pytest.mark.parametrize(
        "method", ["token", "attribute-clustering", "prefix-infix-suffix", "qgrams"]
    )
    def test_all_blocking_methods(self, capsys, tmp_path, method):
        spec = PipelineSpec.load(SPEC).with_components(blocker=method)
        assert main(["run", "--spec", _save(tmp_path, spec)]) == 0
        assert "Blocking quality" in capsys.readouterr().out

    def test_mapreduce_process_executor(self, capsys, tmp_path, movies_paths):
        from repro.mapreduce import ProcessExecutor

        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        kb_a, _, _ = movies_paths
        spec = PipelineSpec.load(SPEC).with_components(
            weighting="CBS", pruning="WEP"
        ).with_backend(kind="mapreduce", workers=2, executor="process")
        assert main(["run", "--spec", _save(tmp_path, spec), "--kb1", kb_a]) == 0
        assert "mapreduce" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "backend",
        [
            {"kind": "mapreduce", "workers": 1},
            {"kind": "mapreduce", "workers": 3},
            {"kind": "sql"},
        ],
        ids=["mapreduce-1-worker", "mapreduce-3-workers", "sql"],
    )
    def test_backend_writes_the_sequential_matches(
        self, capsys, tmp_path, movies_paths, backend
    ):
        """A worker sweep is one spec per worker count, and every backend
        writes the reference pipeline's matches."""
        kb_a, kb_b, _ = movies_paths

        def matches(spec: PipelineSpec, name: str) -> list[list[str]]:
            out_path = str(tmp_path / f"{name}.csv")
            command = [
                "run", "--spec", _save(tmp_path, spec, f"{name}.json"),
                "--kb1", kb_a, "--kb2", kb_b, "--out", out_path,
            ]
            assert main(command) == 0
            with open(out_path, newline="") as handle:
                return list(csv.reader(handle))

        reference = PipelineSpec.load(SPEC)
        expected = matches(reference, "sequential")
        assert len(expected) > 10
        assert matches(reference.with_backend(**backend), "other") == expected

    @pytest.mark.parametrize(
        "spec_node, flags, alternatives",
        [
            ({"weighting": "BOGUS"}, [], "ARCS"),
            ({"blocking": {"blocker": "bogus"}}, [], "token"),
            (None, ["--backend", "bogus"], "sequential, mapreduce, stream, sql"),
            (None, ["--engine", "bogus"], "sqlite, duckdb"),
        ],
        ids=["weighting", "blocker", "backend-flag", "engine-flag"],
    )
    def test_invalid_spec_fails_eagerly(
        self, capsys, tmp_path, spec_node, flags, alternatives
    ):
        path = SPEC
        if spec_node is not None:
            path = str(tmp_path / "bad.json")
            with open(path, "w") as handle:
                json.dump(spec_node, handle)
        assert main(["run", "--spec", path, *flags]) == 2
        out = capsys.readouterr().out
        assert "invalid spec" in out
        assert "bogus" in out.lower()
        # The error names the registered alternatives, for spec nodes
        # and backend overrides alike.
        assert alternatives in out

    def test_removed_formulation_value_is_an_invalid_spec(self, capsys, tmp_path):
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
        assert main(["run", "--spec", SPEC, "--kb2", kb_b]) == 2
        assert "kb2" in capsys.readouterr().out

    def test_sql_db_path_already_loaded_exits_2(self, capsys, tmp_path):
        # a second run into the same database file: a message naming
        # the file and the statement, not a sqlite3 traceback
        db_path = str(tmp_path / "run.db")
        command = ["run", "--spec", SPEC, "--backend", "sql", "--db-path", db_path]
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
                ["run", "--spec", SPEC, "--backend", "sql",
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


class TestSqlExplain:
    def test_kb2_without_kb1_rejected(self, capsys, movies_paths):
        """`sql explain` applies the `run` input rule: a lone --kb2 is
        an error, not a silent fall-back to the spec's own data."""
        _, kb_b, _ = movies_paths
        assert main(["sql", "explain", "--spec", SPEC, "--kb2", kb_b]) == 2
        out = capsys.readouterr().out
        assert "kb2 was supplied without kb1" in out
        assert "plan lint" not in out

    def test_kb_inputs_replace_the_spec_data(self, capsys):
        def header(*inputs: str) -> str:
            assert main(["sql", "explain", "--spec", SPEC, *inputs]) == 0
            return capsys.readouterr().out.splitlines()[0]

        own = header()
        assert "43 blocks" in own
        restaurants = header(
            "--kb1", sample_path("restaurants_a.nt"),
            "--kb2", sample_path("restaurants_b.nt"),
        )
        assert "blocks" in restaurants and restaurants != own

    def test_unloadable_kb1_is_a_usage_error(self, capsys, tmp_path):
        path = str(tmp_path / "missing.nt")
        assert main(["sql", "explain", "--spec", SPEC, "--kb1", path]) == 2
        assert capsys.readouterr().out.startswith(f"cannot load {path}: ")


class TestObservability:
    """--trace-dir/--metrics on `run` (every backend) + `repro obs report`."""

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
                    "run", "--spec", SPEC, "--backend", "stream",
                    "--kb1", kb_a, "--kb2", kb_b, "--trace-dir", directory,
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
        assert (
            main(
                [
                    "run", "--spec", SPEC, "--backend", "stream",
                    "--kb1", kb_a, "--kb2", kb_b, "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_stream_insert_count counter" in out

    def test_run_and_mapreduce_accept_trace_dir(self, capsys, movies_paths, tmp_path):
        kb_a, kb_b, _ = movies_paths
        run_dir = str(tmp_path / "run")
        assert (
            main(
                [
                    "run", "--spec", SPEC,
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
                    "run", "--spec", SPEC, "--backend", "mapreduce",
                    "--kb1", kb_a, "--kb2", kb_b, "--trace-dir", mr_dir,
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
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "mr")
        assert (
            main(
                [
                    "run", "--spec", SPEC, "--backend", "mapreduce",
                    "--kb1", kb_a, "--kb2", kb_b, "--trace-dir", directory,
                ]
            )
            == 0
        )
        capsys.readouterr()
        spans, _ = self._telemetry(directory)
        blocking = [s for s in spans if s.name == "pipeline.blocking"]
        assert len(blocking) == 1
        assert blocking[0].duration_s > 0
        assert blocking[0].attrs["blocks"] > 0

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
    """A signal mid-replay ends `run --backend stream` after the replay:
    partial stats, a clean WAL close, and the signal's exit code."""

    pytestmark = pytest.mark.skipif(
        os.name != "posix", reason="needs POSIX signals"
    )

    @staticmethod
    def _signal_on_first_query(monkeypatch, signum):
        from repro.stream.workload import WorkloadDriver

        original = WorkloadDriver.run
        fired = []

        def run_with_signal(self, events, *args, **kwargs):
            def interrupt(_result):
                if not fired:
                    fired.append(True)
                    os.kill(os.getpid(), signum)

            kwargs["on_query"] = interrupt
            return original(self, events, *args, **kwargs)

        monkeypatch.setattr(WorkloadDriver, "run", run_with_signal)

    def test_sigterm_mid_replay_exits_143_with_partial_stats(
        self, capsys, movies_paths, monkeypatch
    ):
        import signal

        self._signal_on_first_query(monkeypatch, signal.SIGTERM)
        kb_a, kb_b, _ = movies_paths
        assert (
            main(
                ["run", "--spec", SPEC, "--backend", "stream",
                 "--kb1", kb_a, "--kb2", kb_b]
            )
            == 143
        )
        out = capsys.readouterr().out
        assert "yes (SIGTERM, partial replay)" in out

    def test_sigint_mid_replay_exits_130_without_matching(
        self, capsys, tmp_path, movies_paths, monkeypatch
    ):
        import signal

        from repro.datasets import load_movies
        from repro.stream.durability import recover

        self._signal_on_first_query(monkeypatch, signal.SIGINT)
        kb_a, kb_b, _ = movies_paths
        directory = str(tmp_path / "state")
        spec = _stream_spec(tmp_path, durability_dir=directory)
        assert main(["run", "--spec", spec, "--kb1", kb_a, "--kb2", kb_b]) == 130
        out = capsys.readouterr().out
        assert "yes (partial replay)" in out
        assert "Pipeline summary" not in out
        assert "Matching quality" not in out
        # The interrupted replay closed its WAL cleanly: the executed
        # prefix recovers.
        kb1, kb2, _ = load_movies()
        assert 0 < len(recover(directory).store) < len(kb1) + len(kb2)

    def test_interrupted_run_writes_no_matches(
        self, capsys, tmp_path, movies_paths, monkeypatch
    ):
        """Matching never ran, so --out gets no (empty or partial) CSV."""
        import signal

        self._signal_on_first_query(monkeypatch, signal.SIGINT)
        kb_a, kb_b, _ = movies_paths
        out_path = tmp_path / "matches.csv"
        command = [
            "run", "--spec", SPEC, "--backend", "stream",
            "--kb1", kb_a, "--kb2", kb_b, "--out", str(out_path),
        ]
        assert main(command) == 130
        assert "matches written" not in capsys.readouterr().out
        assert not out_path.exists()
