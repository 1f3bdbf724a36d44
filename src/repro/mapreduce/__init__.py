"""A MapReduce engine and the parallel ER algorithms on it.

MinoanER "exploits the parallel processing power of a computer cluster via
Hadoop MapReduce" for blocking and meta-blocking [4, 5].  This package
reproduces the MapReduce **programming model** — mappers, combiners, hash
partitioning, sorted shuffle, reducers, counters — with a pluggable
execution dimension:

* the **serial executor** (default) runs every task in-process in
  deterministic order and models the cluster through per-worker task
  metrics and the critical-path time model, so the parallel formulations
  of [4, 5] run unchanged and their scaling behaviour (E8) can be
  simulated exactly;
* the **process executor** runs map/reduce tasks in real
  ``multiprocessing`` workers, so wall-clock speedup is measured.

There is one formulation of every job: mappers and reducers exchange
columnar numpy batches over dense int ids (meta-blocking packs each pair
into ``a << 32 | b``), bit-identical to the sequential graph.

* :mod:`repro.mapreduce.engine` — the job runner + executors;
* :mod:`repro.mapreduce.records` — columnar shuffle batches;
* :mod:`repro.mapreduce.shm` — the zero-copy shared-memory data plane;
* :mod:`repro.mapreduce.parallel_blocking` — MapReduce token blocking [5];
* :mod:`repro.mapreduce.parallel_metablocking_ids` — meta-blocking [4],
  edge-centric and entity-centric strategies.

The ``mapreduce`` backend parallelises meta-blocking only: blocking,
purging and filtering are linear passes it runs sequentially.  Token
blocking's job serves the scaling experiment (E8).
"""

from repro.mapreduce.engine import (
    ArrayMapReduceJob,
    MapReduceEngine,
    JobMetrics,
    ProcessExecutor,
    SerialExecutor,
    hash_partitioner,
    make_executor,
)
from repro.mapreduce.parallel_blocking import parallel_token_blocking
from repro.mapreduce.parallel_metablocking_ids import (
    parallel_metablocking_ids,
    parallel_pair_table,
)
from repro.mapreduce.shm import (
    ArrayRef,
    SharedBlockStore,
    attach_array,
    leaked_segments,
    shared_memory_available,
)

__all__ = [
    "ArrayMapReduceJob",
    "MapReduceEngine",
    "JobMetrics",
    "ProcessExecutor",
    "SerialExecutor",
    "hash_partitioner",
    "make_executor",
    "parallel_token_blocking",
    "parallel_metablocking_ids",
    "parallel_pair_table",
    "ArrayRef",
    "SharedBlockStore",
    "attach_array",
    "leaked_segments",
    "shared_memory_available",
]
