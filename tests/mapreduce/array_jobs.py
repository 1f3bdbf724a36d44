"""A minimal generic job for engine-level tests: sum int values by int key.

The engine's own behaviour (splitting, routing, counters, executors,
timeouts) is tested on this job rather than on the ER jobs, so a failure
here points at ``engine.py`` and not at meta-blocking.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.engine import ArrayMapReduceJob, MapReduceEngine
from repro.mapreduce.records import concat_batches, partition_batch


def _fold(keys, values):
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(unique))
    return unique, sums.astype(np.int64)


def _map_fold(chunk, partitions: int, params: dict):
    """Local combine, then route each distinct key by its hash."""
    keys, values = chunk
    unique, sums = _fold(keys, values)
    return partition_batch((unique, sums), unique, partitions), len(keys)


def _reduce_fold(batches, params: dict):
    unique, sums = _fold(*concat_batches(batches, 2))
    return list(zip(unique.tolist(), sums.tolist())), len(unique)


SUM_JOB = ArrayMapReduceJob("sum-by-key", _map_fold, _reduce_fold)


def run_sum(engine: MapReduceEngine, keys, values, job: ArrayMapReduceJob = SUM_JOB):
    """Run *job* over ``(key, value)`` rows split into one chunk per worker.

    Returns ``(records, metrics)`` with the ``(key, sum)`` records in
    partition-then-key order.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    chunks = [
        (k, v)
        for k, v in zip(
            np.array_split(keys, engine.workers), np.array_split(values, engine.workers)
        )
        if len(k)
    ]
    outputs, metrics = engine.run_array(job, chunks)
    return [record for part in outputs for record in part], metrics
