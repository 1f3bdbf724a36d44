"""Tests for the MapReduce engine and its executors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce.engine import (
    JobMetrics,
    MapReduceEngine,
    ProcessExecutor,
    SerialExecutor,
    hash_partitioner,
    make_executor,
)
from repro.utils.rng import stable_hash, stable_hash_int

from .array_jobs import run_sum

LINES = ["the quick brown fox", "the lazy dog", "the quick dog"]
EXPECTED = {"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
WORDS = [word for line in LINES for word in line.split()]
VOCABULARY = sorted(set(WORDS))


def word_count(engine: MapReduceEngine, words=WORDS):
    """Word count as a sum-by-key array job over vocabulary ids."""
    ids = [VOCABULARY.index(word) for word in words]
    records, metrics = run_sum(engine, ids, [1] * len(ids))
    return [(VOCABULARY[key], count) for key, count in records], metrics


class TestEngine:
    def test_word_count(self):
        output, _ = word_count(MapReduceEngine(workers=3))
        assert dict(output) == EXPECTED

    def test_single_worker_equivalent(self):
        out1, _ = word_count(MapReduceEngine(workers=1))
        out4, _ = word_count(MapReduceEngine(workers=4))
        assert dict(out1) == dict(out4)

    def test_empty_input(self):
        output, metrics = word_count(MapReduceEngine(workers=2), [])
        assert output == []
        assert metrics.map_input_records == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            MapReduceEngine(workers=0)

    def test_more_workers_than_records(self):
        output, _ = word_count(MapReduceEngine(workers=16))
        assert dict(output) == EXPECTED


class TestMetrics:
    def run_metrics(self, workers: int) -> JobMetrics:
        _, metrics = word_count(MapReduceEngine(workers=workers))
        return metrics

    def test_counters(self):
        metrics = self.run_metrics(2)
        assert metrics.map_input_records == 10
        # Each 5-word split holds 4 distinct words after the local fold.
        assert metrics.map_output_records == 8
        assert metrics.shuffle_records == 8
        assert metrics.reduce_groups == 6
        assert metrics.reduce_output_records == 6
        assert metrics.shuffle_bytes > 0

    def test_task_costs_populated(self):
        metrics = self.run_metrics(2)
        assert len(metrics.map_task_costs) == 2
        assert len(metrics.reduce_task_costs) == 2

    def test_critical_path_shrinks_with_workers(self):
        sequential = self.run_metrics(1).critical_path_cost
        parallel = self.run_metrics(3).critical_path_cost
        assert parallel <= sequential

    def test_skew_of_empty_run(self):
        _, metrics = word_count(MapReduceEngine(workers=2), [])
        assert metrics.skew == 1.0

    def test_skew_at_least_one(self):
        assert self.run_metrics(3).skew >= 1.0


class TestPartitioner:
    def test_deterministic(self):
        assert hash_partitioner("key", 8) == hash_partitioner("key", 8)

    def test_in_range(self):
        for key in ("a", ("tuple", "key"), 42):
            assert 0 <= hash_partitioner(key, 5) < 5

    def test_string_keys_keep_legacy_partitioning(self):
        # Regression: non-int keys must route exactly as the historical
        # repr-based partitioner did (int keys took a new fast path).
        for key in ("a", "token", "", ("pair", "tuple"), 3.5, None, True):
            for buckets in (1, 2, 5, 8):
                assert hash_partitioner(key, buckets) == stable_hash(
                    repr(key), buckets
                ), (key, buckets)

    def test_int_keys_avoid_repr(self):
        for key in (0, 7, 1 << 40, (3 << 32) | 9):
            for buckets in (1, 3, 8):
                assert hash_partitioner(key, buckets) == stable_hash_int(
                    key, buckets
                )

    def test_scalar_matches_vectorized(self):
        from repro.mapreduce.records import stable_hash_int_array

        keys = np.array([0, 1, 7, (5 << 32) | 2, (1 << 62) + 13], dtype=np.int64)
        for buckets in (1, 2, 7, 16):
            vector = stable_hash_int_array(keys, buckets)
            assert vector.tolist() == [
                stable_hash_int(int(k), buckets) for k in keys
            ]

    def test_partitioning_respected(self):
        # All records of one key land in the same reduce group exactly once.
        output, _ = run_sum(
            MapReduceEngine(workers=4), [i % 5 for i in range(100)], [1] * 100
        )
        assert sorted(output) == [(r, 20) for r in range(5)]


class TestExecutors:
    def test_make_executor(self):
        assert isinstance(make_executor("serial", 2), SerialExecutor)
        serial = SerialExecutor()
        assert make_executor(serial, 2) is serial
        with pytest.raises(ValueError):
            make_executor("bogus", 2)

    def test_process_executor_word_count(self):
        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        with MapReduceEngine(workers=2, executor="process") as engine:
            output, metrics = word_count(engine)
        assert dict(output) == EXPECTED
        assert metrics.executor == "process"

    def test_executors_produce_identical_output(self):
        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        serial_out, _ = word_count(MapReduceEngine(workers=3))
        with MapReduceEngine(workers=3, executor="process") as engine:
            process_out, _ = word_count(engine)
        assert serial_out == process_out  # order included

    def test_wall_clock_measured(self):
        _, metrics = word_count(MapReduceEngine(workers=2))
        assert metrics.map_wall_s >= 0.0
        assert metrics.reduce_wall_s >= 0.0
        assert metrics.wall_s == metrics.map_wall_s + metrics.reduce_wall_s

    def test_single_worker_process_pool(self):
        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        with MapReduceEngine(workers=1, executor="process") as engine:
            output, _ = word_count(engine)
        assert dict(output) == EXPECTED

    def test_process_pool_close_idempotent(self):
        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        executor = ProcessExecutor(workers=2)
        executor.run_specs([(sorted, ([3, 1],)), (sorted, ([2, 0],))])
        executor.close()
        executor.close()

    def test_timeout_raises(self):
        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        import time

        executor = ProcessExecutor(workers=2, task_timeout_s=0.2)
        with pytest.raises(RuntimeError, match="exceeded"):
            executor.run_specs([(time.sleep, (30,)), (time.sleep, (30,))])
        executor.close()
