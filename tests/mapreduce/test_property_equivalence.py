"""Property test: the MapReduce engine equals a sequential reference
fold for arbitrary inputs and worker counts."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mapreduce.engine import MapReduceEngine

from .array_jobs import run_sum

records = st.lists(
    st.tuples(st.integers(0, 50), st.integers(-100, 100)), max_size=80
)


def reference(data):
    sums: dict[int, int] = {}
    for key, value in data:
        sums[key % 7] = sums.get(key % 7, 0) + value
    return sorted(sums.items())


def run(workers, data):
    return run_sum(
        MapReduceEngine(workers), [key % 7 for key, _ in data], [v for _, v in data]
    )


class TestGenericEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(records, st.integers(1, 9))
    def test_sum_job(self, data, workers):
        output, _ = run(workers, data)
        assert sorted(output) == reference(data)

    @settings(max_examples=30, deadline=None)
    @given(records)
    def test_worker_count_invariance(self, data):
        baseline, _ = run(1, data)
        for workers in (2, 5, 8):
            output, metrics = run(workers, data)
            assert sorted(output) == sorted(baseline)
            assert metrics.map_input_records == len(data)

    @settings(max_examples=30, deadline=None)
    @given(records, st.integers(1, 9))
    def test_metric_conservation(self, data, workers):
        _, metrics = run(workers, data)
        # Every row a mapper emits after its local fold crosses the shuffle.
        assert metrics.shuffle_records == metrics.map_output_records
        assert len(metrics.reduce_task_costs) == workers
        assert len(data) == metrics.map_input_records
