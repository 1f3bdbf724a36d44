"""Streaming entity resolution.

The batch pipeline freezes its inputs: blocks, the pair table and the
blocking graph are all built once from a finished
:class:`~repro.model.collection.EntityCollection`, so a single new
description forces a full rebuild.  This package makes the same
structures *maintainable under inserts*:

* :class:`~repro.stream.store.StreamingEntityStore` — append-only entity
  store accepting descriptions one at a time or in micro-batches;
* :class:`~repro.stream.index.IncrementalBlockIndex` — a mutable
  inverted blocking index whose posting lists are updated per insert
  instead of re-running the blocker;
* :class:`~repro.stream.pairs.DeltaPairTable` — the pair table as a
  lazy view over the postings: a query's ``(common, arcs)`` are read in
  one pass over its star at query time and only the global scheme
  factors are maintained, so the star is weighed by the batch schemes'
  array kernels without a global rebuild;
* :class:`~repro.stream.processed_view.IncrementalProcessedView` — the
  purge/filter-surviving block set maintained under inserts (exact
  histogram-derived purging threshold, per-touched-entity filtering,
  periodic exact reconciliation); ``DeltaPairTable(view)`` keeps pair
  statistics aligned with the survivors;
* :class:`~repro.stream.resolver.StreamResolver` — query-time
  resolution of one incoming description against the live index, with
  latency accounting;
* :mod:`~repro.stream.workload` — a dbworkload-style driver replaying
  synthetic arrival + query scenarios (including the ``churn`` and
  ``erasure`` deletion regimes);
* :mod:`~repro.stream.durability` — crash safety: a CRC-framed
  write-ahead log, periodic atomic snapshots, and
  :func:`~repro.stream.durability.recover`, which rebuilds the whole
  component stack bit-identical to the uninterrupted run from the
  latest snapshot plus the WAL suffix.

**Equivalence contract:** after ingesting a corpus stream-wise — in any
arrival order, with duplicates merged — the snapshot blocks, the pair
statistics and the pruned edges are *bit-identical* to the batch
pipeline run over the same final corpus.  The streaming layer changes
*when* work happens, never *what* is computed.  Deletions extend the
contract: after retractions the state equals a fresh build over the
surviving corpus minus arrival-rank artifacts (ids and ranks stay
pinned to first arrival so a re-insert converges).
"""

from repro.stream.durability import (
    CrashError,
    CrashyFiles,
    Durability,
    OsFiles,
    RecoveryReport,
    RecoveryResult,
    WriteAheadLog,
    capture_state,
    recover,
    restore_components,
)
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.processed_view import (
    IncrementalProcessedView,
    ReconcileReport,
)
from repro.stream.resolver import StreamMatch, StreamQueryResult, StreamResolver
from repro.stream.similarity import StreamingSimilarityIndex
from repro.stream.store import StreamingEntityStore
from repro.stream.workload import (
    WorkloadDriver,
    WorkloadEvent,
    WorkloadStats,
    bursty_workload,
    churn_workload,
    erasure_workload,
    skewed_workload,
    uniform_workload,
)

__all__ = [
    "CrashError",
    "CrashyFiles",
    "DeltaPairTable",
    "Durability",
    "IncrementalBlockIndex",
    "IncrementalProcessedView",
    "OsFiles",
    "ReconcileReport",
    "RecoveryReport",
    "RecoveryResult",
    "StreamMatch",
    "StreamQueryResult",
    "StreamResolver",
    "StreamingEntityStore",
    "StreamingSimilarityIndex",
    "WorkloadDriver",
    "WorkloadEvent",
    "WorkloadStats",
    "WriteAheadLog",
    "bursty_workload",
    "capture_state",
    "churn_workload",
    "erasure_workload",
    "recover",
    "restore_components",
    "skewed_workload",
    "uniform_workload",
]
