"""Columnar record batches for the array-native MapReduce jobs.

The parallel jobs never ship Python tuples through the shuffle: mappers
emit *record batches* — parallel numpy arrays, one row per logical
record — and the shuffle routes whole batches by vectorized integer
hashing.  A batch knows its row count (``len``) and serialized size
(``nbytes``), which is what the engine's shuffle counters read.

Two batch carriers share that interface:

* :class:`RecordBatch` holds the column arrays themselves — the payload
  is pickled when it crosses a process boundary;
* :class:`DescriptorBatch` holds only
  :class:`~repro.mapreduce.shm.ArrayRef` descriptors of columns living
  in shared memory — what crosses the queue is a few hundred bytes of
  descriptor, and the receiving task re-attaches the columns zero-copy.

The partition hash is the same splitmix64 finalizer as the scalar
:func:`repro.utils.rng.stable_hash_int`, evaluated elementwise over a
uint64 array — bit-compatible by construction (asserted in tests), so a
record lands on the same reducer whether it is routed one at a time or a
million rows at once.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.shm import ArenaWriter, ArrayRef, attach_array
from repro.utils.rng import MIX_GAMMA, MIX_M1, MIX_M2, stable_hash


def stable_hash_int_array(values: np.ndarray, buckets: int) -> np.ndarray:
    """Vectorized splitmix64 bucket assignment over an int64/uint64 array.

    Elementwise identical to ``stable_hash_int(v, buckets)`` for every
    row — the bit-compatibility contract the partitioner relies on.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    z = values.astype(np.uint64, copy=True)
    z += np.uint64(MIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX_M2)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(buckets)).astype(np.int64)


def stable_hash_str_array(values: np.ndarray, buckets: int) -> np.ndarray:
    """Bucket assignment for a string (``U``-dtype) column.

    Row-wise identical to the engine's
    :func:`~repro.mapreduce.engine.hash_partitioner` on string keys
    (``stable_hash(repr(key))``), evaluated once per *unique* value and
    broadcast back — token and URI columns repeat heavily, so the scalar
    hash runs orders of magnitude fewer times than the row count.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    unique, inverse = np.unique(values, return_inverse=True)
    hashes = np.fromiter(
        (stable_hash(repr(value), buckets) for value in unique.tolist()),
        dtype=np.int64,
        count=len(unique),
    )
    return hashes[inverse]


class RecordBatch:
    """A fixed set of parallel column arrays; rows are logical records."""

    __slots__ = ("columns",)

    def __init__(self, *columns: np.ndarray) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def nbytes(self) -> int:
        """Serialized payload size crossing the shuffle."""
        return sum(column.nbytes for column in self.columns)


class DescriptorBatch:
    """A batch whose columns live in shared memory; rows are records.

    Only the descriptors are pickled through the shuffle queue; the
    payload stays in ``/dev/shm`` and is re-attached (zero-copy) by
    whichever task consumes the batch.  ``nbytes`` reports the payload
    size the descriptors point at — the figure the engine's per-worker
    shuffle accounting wants — while the bytes physically crossing the
    queue are just the pickled descriptors.
    """

    __slots__ = ("refs", "rows")

    def __init__(self, refs: tuple[ArrayRef, ...], rows: int) -> None:
        self.refs = refs
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    @property
    def nbytes(self) -> int:
        """Referenced payload bytes (what a materialized shuffle would ship)."""
        return sum(ref.nbytes for ref in self.refs)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """Zero-copy views of the columns in the calling process."""
        return tuple(attach_array(ref) for ref in self.refs)


def _partition_rows(assignment: np.ndarray):
    """Yield ``(partition, row_indices)`` groups in ascending order.

    Row order within a group preserves input order (stable sort) — the
    stability downstream float folds rely on.
    """
    order = np.argsort(assignment, kind="stable")
    sorted_assignment = assignment[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_assignment[1:] != sorted_assignment[:-1]))
    )
    ends = np.append(boundaries[1:], len(order))
    for start, end in zip(boundaries.tolist(), ends.tolist()):
        yield int(sorted_assignment[start]), order[start:end]


def partition_batch(
    columns: tuple[np.ndarray, ...],
    route_keys: np.ndarray,
    partitions: int,
) -> list[tuple[int, RecordBatch]]:
    """Split columnar rows into per-partition batches by key hash.

    Args:
        columns: parallel row arrays to ship.
        route_keys: int64 routing key per row (hashed, not modulo'd).
        partitions: partition count.

    Returns:
        ``(partition, batch)`` entries for non-empty partitions, in
        ascending partition order.
    """
    if not len(route_keys):
        return []
    assignment = stable_hash_int_array(route_keys, partitions)
    return [
        (partition, RecordBatch(*(column[rows] for column in columns)))
        for partition, rows in _partition_rows(assignment)
    ]


def partition_assigned(
    columns: tuple[np.ndarray, ...],
    assignment: np.ndarray,
    partitions: int,
) -> list[tuple[int, RecordBatch]]:
    """Like :func:`partition_batch` but with precomputed partition indices.

    Used by jobs whose routing key is not an int64 column (string tokens
    hash per unique value driver-side into an explicit assignment).
    """
    if not len(assignment):
        return []
    return [
        (partition, RecordBatch(*(column[rows] for column in columns)))
        for partition, rows in _partition_rows(assignment)
    ]


def partition_batch_into(
    columns: tuple[np.ndarray, ...],
    route_keys: np.ndarray,
    partitions: int,
    writer: ArenaWriter,
) -> list[tuple[int, DescriptorBatch]]:
    """Split rows by key hash, gathering straight into a shared arena.

    The shared-memory counterpart of :func:`partition_batch`: each
    partition's columns are gathered with ``np.take(..., out=view)``
    into the task's arena and only :class:`DescriptorBatch` descriptors
    are returned — nothing materialized crosses the queue.
    """
    if not len(route_keys):
        return []
    assignment = stable_hash_int_array(route_keys, partitions)
    order = np.argsort(assignment, kind="stable")
    sorted_assignment = assignment[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_assignment[1:] != sorted_assignment[:-1]))
    )
    ends = np.append(boundaries[1:], len(order))
    # One gather per column into a single reservation; each partition's
    # rows are contiguous in sorted order, so the per-partition column
    # descriptors are carved arithmetically from the same reservation.
    gathered: list[ArrayRef] = []
    for column in columns:
        ref, dest = writer.reserve(column.dtype, len(column))
        np.take(column, order, out=dest)
        gathered.append(ref)
    out = []
    for start, end in zip(boundaries.tolist(), ends.tolist()):
        refs = tuple(
            ArrayRef(
                ref.segment,
                ref.dtype,
                (end - start,),
                ref.offset + start * np.dtype(ref.dtype).itemsize,
            )
            for ref in gathered
        )
        out.append(
            (int(sorted_assignment[start]), DescriptorBatch(refs, end - start))
        )
    return out


def concat_batches(batches: list[RecordBatch], columns: int) -> tuple[np.ndarray, ...]:
    """Concatenate same-shaped batches column-wise (task arrival order).

    Returns *columns* empty int64 arrays when no batches arrived — the
    caller decides dtypes only when rows exist.
    """
    if not batches:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(columns))
    return tuple(
        np.concatenate([batch.columns[i] for batch in batches])
        for i in range(columns)
    )
