"""The zero-copy shared-memory data plane of the MapReduce backend.

The process executor used to pay for its parallelism twice: every CSR
chunk, posting array and shuffle batch crossed the process boundary as a
pickle through a pipe, so adding workers added serialization instead of
removing work.  This module is the replacement transport:

* the **driver** owns a :class:`SharedBlockStore` per parallel driver
  call — input arrays are *published* once into
  ``multiprocessing.shared_memory`` segments created **before** the
  tasks that read them ship, and per-task output *arenas* are
  pre-allocated (``/dev/shm`` pages are lazily committed, so generous
  arena bounds cost nothing until written);
* **workers** receive only :class:`ArrayRef` descriptors —
  ``(segment, dtype, shape, offset)`` — and reconstruct numpy views with
  :func:`attach_array`, zero-copy; map output is gathered straight into
  the task's arena through an :class:`ArenaWriter`, so the shuffle moves
  descriptors through the queues, never materialized batches.

Lifecycle and ownership rules (the contract every driver honours):

1. the store is created, filled and registered with the engine *before*
   any task ships; workers never create segments — attach-only;
2. the driver guarantees ``close()`` + ``unlink()`` in a ``finally``
   block, so success, crash and phase re-drive after a worker death all
   converge to zero surviving ``repro_shm_*`` segments; both calls are
   idempotent and a re-driven phase simply re-attaches (and re-writes
   its arenas — map tasks are pure, so the overwrite is byte-identical);
3. worker attachments are cached per segment and evicted wholesale when
   a segment of a *different* store arrives (one store is live at a
   time per driver call, so the cache stays one store deep).

Fork-only constraint: the plane assumes the ``fork`` start method (the
:class:`~repro.mapreduce.engine.ProcessExecutor` requirement) — the
executor starts the driver's resource tracker before it forks the pool,
so children inherit that connection even when no segment existed yet:
the driver-side ``unlink()`` is the single point of truth for segment
disposal, a worker's attach registers with the driver's tracker (a
no-op) and a killed worker takes no tracker of its own — and none of the
driver's segments — with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - stdlib on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - non-POSIX fallback
    _shared_memory = None  # type: ignore[assignment]

from repro.obs.metrics import Counter, global_registry

#: every segment name starts with this (the CI leak check greps for it)
SEGMENT_PREFIX = "repro_shm"
#: allocation granularity inside a segment (numpy-friendly alignment)
ALIGNMENT = 16

#: process-wide data-plane counters; each process (driver or forked
#: worker) counts its own activity
SEGMENTS_CREATED = Counter()
SEGMENT_BYTES = Counter()
ATTACH_COUNT = Counter()

global_registry().register("repro.mapreduce.shm.segments.count", SEGMENTS_CREATED)
global_registry().register("repro.mapreduce.shm.segment.bytes.count", SEGMENT_BYTES)
global_registry().register("repro.mapreduce.shm.attach.count", ATTACH_COUNT)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass(frozen=True)
class ArrayRef:
    """A picklable descriptor of one numpy array inside a segment.

    This is the *only* thing that crosses the process boundary for
    published inputs and shuffled batches: attach the segment, overlay
    ``np.ndarray(shape, dtype, buffer, offset)``, and the worker sees
    the driver's bytes without a copy.
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        """Payload bytes the descriptor points at."""
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ArenaRef:
    """A picklable handle to one task's pre-allocated output arena."""

    segment: str
    capacity: int


def shared_memory_available() -> bool:
    """True when the plane can run (POSIX shared memory exists)."""
    return _shared_memory is not None


class SharedBlockStore:
    """Driver-owned registry of the shared segments behind one job chain.

    Segments are named ``repro_shm_<pid>_<store>_<n>`` so a leak is
    attributable and the test suite (and CI) can assert ``/dev/shm`` is
    clean by prefix alone.  The store is a context manager; leaving the
    ``with`` block closes *and* unlinks every segment.
    """

    _next_store_id = 0

    def __init__(self) -> None:
        if not shared_memory_available():  # pragma: no cover - POSIX container
            raise RuntimeError(
                "SharedBlockStore requires multiprocessing.shared_memory"
            )
        cls = SharedBlockStore
        self.store_id = f"{SEGMENT_PREFIX}_{os.getpid()}_{cls._next_store_id}"
        cls._next_store_id += 1
        self._segments: dict[str, object] = {}
        self._sequence = 0

    # -- segment creation ----------------------------------------------------

    def _create_segment(self, nbytes: int):
        while True:
            name = f"{self.store_id}_{self._sequence}"
            self._sequence += 1
            try:
                segment = _shared_memory.SharedMemory(
                    name=name, create=True, size=max(int(nbytes), 1)
                )
            except FileExistsError:  # pragma: no cover - stale name collision
                continue
            self._segments[name] = segment
            SEGMENTS_CREATED.inc()
            SEGMENT_BYTES.inc(segment.size)
            return segment

    def publish_arrays(self, *arrays: "np.ndarray") -> tuple[ArrayRef, ...]:
        """Copy *arrays* into one fresh segment; return their descriptors.

        Publication is the single copy the plane ever makes of an input:
        after it, any number of workers (and re-driven phases) read the
        same physical pages.
        """
        flats = [np.ascontiguousarray(array) for array in arrays]
        offsets = []
        cursor = 0
        for flat in flats:
            offsets.append(cursor)
            cursor = _align(cursor + flat.nbytes)
        segment = self._create_segment(cursor)
        refs = []
        for flat, offset in zip(flats, offsets):
            dest = np.ndarray(
                flat.shape, dtype=flat.dtype, buffer=segment.buf, offset=offset
            )
            dest[...] = flat
            refs.append(
                ArrayRef(segment.name, flat.dtype.str, flat.shape, offset)
            )
        return tuple(refs)

    def allocate(self, capacity: int) -> ArenaRef:
        """Pre-allocate one task's output arena (lazily-committed pages)."""
        segment = self._create_segment(capacity)
        return ArenaRef(segment.name, segment.size)

    # -- driver-side access --------------------------------------------------

    def view(self, ref: ArrayRef) -> "np.ndarray":
        """Zero-copy view of *ref* on a segment this store owns."""
        segment = self._segments[ref.segment]
        return np.ndarray(
            ref.shape,
            dtype=np.dtype(ref.dtype),
            buffer=segment.buf,
            offset=ref.offset,
        )

    def fetch(self, ref: ArrayRef) -> "np.ndarray":
        """A *copy* of *ref*'s array — safe to use after the store dies."""
        return self.view(ref).copy()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the driver's mappings; idempotent.

        A mapping with live numpy views cannot release its buffer
        (``BufferError``); such handles are skipped — their memory is
        freed when the views go away — but the segment still gets
        unlinked, so nothing survives in ``/dev/shm`` either way.
        """
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - live caller views
                pass

    def unlink(self) -> None:
        """Remove every segment from ``/dev/shm``; idempotent."""
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def destroy(self) -> None:
        """``close()`` + ``unlink()`` — the guaranteed-cleanup entry point."""
        self.close()
        self.unlink()
        self._segments = {}

    def __enter__(self) -> "SharedBlockStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


# ---------------------------------------------------------------------------
# Worker-side attachment
# ---------------------------------------------------------------------------

#: per-process cache of attached segments, keyed by segment name; one
#: store deep by construction (see eviction in :func:`attach_segment`)
_ATTACHED: dict[str, object] = {}


def _store_of(segment: str) -> str:
    return segment.rsplit("_", 1)[0]


def attach_segment(segment: str):
    """The (cached) buffer of *segment*, attaching on first use.

    Attaching a segment from a new store evicts every cached handle of
    older stores first — a long-lived pool worker holds at most one
    driver call's segments mapped.  Eviction tolerates ``BufferError``
    (a straggler view keeps the mapping alive until it is collected).
    """
    handle = _ATTACHED.get(segment)
    if handle is None:
        store = _store_of(segment)
        for name in [n for n in _ATTACHED if _store_of(n) != store]:
            old = _ATTACHED.pop(name)
            try:
                old.close()
            except BufferError:  # pragma: no cover - straggler views
                pass
        handle = _shared_memory.SharedMemory(name=segment, create=False)
        _ATTACHED[segment] = handle
        ATTACH_COUNT.inc()
    return handle.buf


def attach_array(ref: ArrayRef) -> "np.ndarray":
    """Zero-copy numpy view of *ref* in the calling process."""
    return np.ndarray(
        ref.shape,
        dtype=np.dtype(ref.dtype),
        buffer=attach_segment(ref.segment),
        offset=ref.offset,
    )


class ArenaWriter:
    """Bump allocator over one task's arena; works in worker or driver.

    Reservations are :data:`ALIGNMENT`-aligned and never reused — the
    writer is append-only, matching the one-writer-per-arena ownership
    rule (each map/reduce task gets its own arena, so re-driving a phase
    simply rewrites the same bytes).
    """

    def __init__(self, ref: ArenaRef) -> None:
        self._ref = ref
        self._buffer = attach_segment(ref.segment)
        self._cursor = 0

    def reserve(self, dtype, rows: int) -> tuple[ArrayRef, "np.ndarray"]:
        """Claim space for *rows* of *dtype*; returns ``(ref, view)``."""
        dt = np.dtype(dtype)
        nbytes = dt.itemsize * int(rows)
        offset = self._cursor
        if offset + nbytes > self._ref.capacity:
            raise ValueError(
                f"arena {self._ref.segment} overflow: need {offset + nbytes} "
                f"of {self._ref.capacity} bytes"
            )
        self._cursor = _align(offset + nbytes)
        view = np.ndarray(
            (int(rows),), dtype=dt, buffer=self._buffer, offset=offset
        )
        return ArrayRef(self._ref.segment, dt.str, (int(rows),), offset), view

    def write(self, array: "np.ndarray") -> ArrayRef:
        """Copy a 1-D *array* into the arena; returns its descriptor."""
        ref, view = self.reserve(array.dtype, len(array))
        view[...] = array
        return ref


def arena_capacity(rows: int, row_bytes: int, partitions: int, columns: int) -> int:
    """Worst-case arena bytes for *rows* split into per-partition columns.

    Payload plus one alignment pad per reserved array (each of the
    ``partitions × columns`` output arrays rounds up independently).
    """
    return rows * row_bytes + ALIGNMENT * (partitions * columns + 2)


def leaked_segments() -> list[str]:
    """Names of ``repro_shm_*`` segments currently visible in ``/dev/shm``.

    The accounting primitive behind the leak tests and the CI gate:
    after any clean run, crash or re-drive this must come back empty.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(
        name for name in os.listdir(root) if name.startswith(SEGMENT_PREFIX)
    )
