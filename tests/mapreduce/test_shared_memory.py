"""The shared-memory data plane: store lifecycle, descriptors, identity.

Three layers of guarantees, each pinned here:

* **plumbing** — :class:`SharedBlockStore` publish/view/fetch round-trips
  bytes exactly, arenas hand out aligned reservations and refuse
  overflow, and every lifecycle exit (``destroy``, context manager,
  engine safety net, driver crash) converges to zero surviving
  ``repro_shm_*`` segments in ``/dev/shm``;
* **transport identity** — :func:`partition_batch_into` (descriptors in
  a shared arena) routes and orders rows exactly like
  :func:`partition_batch` (materialized batches), and the string-column
  hash equals the engine's scalar partitioner row for row;
* **end-to-end identity** — on hypothesis-generated block collections
  the descriptor-based map/shuffle/reduce output is bit-identical to
  the sequential oracle across 1–4 workers × all six weighting schemes
  × WEP/CEP/WNP/CNP, on the serial executor and through real
  multiprocessing workers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import registry
from repro.blocking.block import Block, BlockCollection
from repro.mapreduce import (
    MapReduceEngine,
    ProcessExecutor,
    hash_partitioner,
    leaked_segments,
    parallel_metablocking_ids,
    parallel_pair_table,
)
from repro.mapreduce.records import (
    DescriptorBatch,
    partition_batch,
    partition_batch_into,
    stable_hash_str_array,
)
from repro.mapreduce.shm import (
    ATTACH_COUNT,
    SEGMENTS_CREATED,
    ArenaWriter,
    ArrayRef,
    SharedBlockStore,
    arena_capacity,
    attach_array,
    shared_memory_available,
)
from repro.metablocking import ARCS, CNP
from repro.metablocking.graph import BlockingGraph

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="shared memory unavailable"
)

SCHEME_NAMES = ("CBS", "ECBS", "JS", "EJS", "ARCS", "X2")
PRUNER_NAMES = ("WEP", "CEP", "WNP", "CNP")


# ---------------------------------------------------------------------------
# Store plumbing
# ---------------------------------------------------------------------------


class TestSharedBlockStore:
    def test_publish_view_fetch_round_trip(self):
        ints = np.arange(100, dtype=np.int64)
        floats = np.linspace(0.0, 1.0, 37)
        small = np.array([7], dtype=np.int32)
        with SharedBlockStore() as store:
            refs = store.publish_arrays(ints, floats, small)
            assert [ref.nbytes for ref in refs] == [800, 296, 4]
            for ref, original in zip(refs, (ints, floats, small)):
                assert store.view(ref).dtype == original.dtype
                assert np.array_equal(store.view(ref), original)
            copies = [store.fetch(ref) for ref in refs]
        # Fetched copies outlive the store; views would not.
        assert np.array_equal(copies[0], ints)
        assert np.array_equal(copies[1], floats)

    def test_attach_array_sees_driver_bytes(self):
        data = np.arange(64, dtype=np.float64)
        with SharedBlockStore() as store:
            (ref,) = store.publish_arrays(data)
            attached = attach_array(ref)
            assert np.array_equal(attached, data)
            # Zero-copy: a write through the attached view is visible
            # through the store's own view of the same segment.
            attached[0] = -1.0
            assert store.view(ref)[0] == -1.0
            del attached

    def test_segments_are_prefixed_and_accounted(self):
        created_before = SEGMENTS_CREATED.value
        store = SharedBlockStore()
        try:
            store.publish_arrays(np.zeros(10))
            store.allocate(1024)
            names = leaked_segments()
            assert any(name.startswith(store.store_id) for name in names)
            assert SEGMENTS_CREATED.value == created_before + 2
        finally:
            store.destroy()
        assert not any(
            name.startswith(store.store_id) for name in leaked_segments()
        )

    def test_destroy_is_idempotent(self):
        store = SharedBlockStore()
        store.publish_arrays(np.ones(5))
        store.destroy()
        store.destroy()  # second call must be a no-op, not an error
        assert not any(
            name.startswith(store.store_id) for name in leaked_segments()
        )

    def test_attach_count_increments(self):
        with SharedBlockStore() as store:
            (ref,) = store.publish_arrays(np.arange(4))
            before = ATTACH_COUNT.value
            attach_array(ref)  # first attach of this segment
            attach_array(ref)  # cached: no second attach
            assert ATTACH_COUNT.value == before + 1


class TestArenaWriter:
    def test_reserve_write_round_trip(self):
        with SharedBlockStore() as store:
            arena = store.allocate(arena_capacity(100, 16, 2, 2))
            writer = ArenaWriter(arena)
            a = np.arange(50, dtype=np.int64)
            b = np.linspace(0, 1, 50)
            ref_a = writer.write(a)
            ref_b = writer.write(b)
            assert ref_a.offset != ref_b.offset
            assert np.array_equal(attach_array(ref_a), a)
            assert np.array_equal(attach_array(ref_b), b)

    def test_reservations_are_aligned(self):
        with SharedBlockStore() as store:
            writer = ArenaWriter(store.allocate(4096))
            ref1, _ = writer.reserve(np.int8, 3)  # 3 bytes, pads to 16
            ref2, _ = writer.reserve(np.int64, 4)
            assert ref1.offset == 0
            assert ref2.offset % 16 == 0

    def test_overflow_raises(self):
        with SharedBlockStore() as store:
            writer = ArenaWriter(store.allocate(64))
            writer.reserve(np.int64, 8)  # exactly fills the arena
            with pytest.raises(ValueError, match="overflow"):
                writer.reserve(np.int64, 1)


class TestDescriptorBatch:
    def test_round_trip_and_accounting(self):
        keys = np.arange(20, dtype=np.int64)
        weights = np.linspace(0, 1, 20)
        with SharedBlockStore() as store:
            writer = ArenaWriter(store.allocate(arena_capacity(20, 16, 1, 2)))
            batch = DescriptorBatch(
                (writer.write(keys), writer.write(weights)), len(keys)
            )
            assert len(batch) == 20
            # nbytes reports the referenced payload — what a materialized
            # shuffle would have shipped — not the pickled descriptor size.
            assert batch.nbytes == keys.nbytes + weights.nbytes
            got_keys, got_weights = batch.columns
            assert np.array_equal(got_keys, keys)
            assert np.array_equal(got_weights, weights)


# ---------------------------------------------------------------------------
# Transport identity
# ---------------------------------------------------------------------------


class TestPartitionBatchInto:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=200),
        st.integers(1, 8),
    )
    def test_matches_materialized_partitioning(self, raw_keys, partitions):
        keys = np.array(raw_keys, dtype=np.int64)
        payload = np.arange(len(keys), dtype=np.float64)
        expected = partition_batch((keys, payload), keys, partitions)
        with SharedBlockStore() as store:
            writer = ArenaWriter(
                store.allocate(arena_capacity(len(keys), 16, partitions, 2))
            )
            got = partition_batch_into((keys, payload), keys, partitions, writer)
            assert [p for p, _ in got] == [p for p, _ in expected]
            for (_, desc), (_, batch) in zip(got, expected):
                assert len(desc) == len(batch)
                for desc_col, col in zip(desc.columns, batch.columns):
                    assert desc_col.dtype == col.dtype
                    assert np.array_equal(desc_col, col)

    def test_empty_input_returns_nothing(self):
        with SharedBlockStore() as store:
            writer = ArenaWriter(store.allocate(64))
            keys = np.empty(0, dtype=np.int64)
            assert partition_batch_into((keys,), keys, 4, writer) == []


class TestStringHashColumn:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.text(max_size=12), min_size=1, max_size=100),
        st.integers(1, 9),
    )
    def test_matches_scalar_partitioner(self, values, buckets):
        column = np.array(values)
        assignment = stable_hash_str_array(column, buckets)
        for value, bucket in zip(column.tolist(), assignment.tolist()):
            assert bucket == hash_partitioner(value, buckets)


# ---------------------------------------------------------------------------
# Hypothesis differential: descriptor path == sequential oracle
# ---------------------------------------------------------------------------

_uris_a = st.lists(
    st.integers(0, 14).map("a{}".format), min_size=1, max_size=6, unique=True
)
_uris_b = st.lists(
    st.integers(0, 14).map("b{}".format), min_size=1, max_size=6, unique=True
)
_block_collections = st.lists(
    st.tuples(_uris_a, _uris_b), min_size=1, max_size=12
)


def _build_blocks(raw: list[tuple[list[str], list[str]]]) -> BlockCollection:
    """A bipartite block collection from generated member lists."""
    return BlockCollection(
        [Block(f"k{index}", side1, side2) for index, (side1, side2) in enumerate(raw)],
        name="generated",
    )


def _edges(edge_list):
    return [(edge.pair, edge.weight) for edge in edge_list]


class TestDifferentialIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        _block_collections,
        st.sampled_from(SCHEME_NAMES),
        st.sampled_from(PRUNER_NAMES),
        st.integers(1, 4),
    )
    def test_serial_executor_bit_identical(
        self, raw, scheme_name, pruner_name, workers
    ):
        blocks = _build_blocks(raw)
        expected = _edges(
            registry.create("pruner", pruner_name).prune(
                BlockingGraph(blocks, registry.create("weighting", scheme_name))
            )
        )
        with MapReduceEngine(workers=workers, executor="serial") as engine:
            parallel, _ = parallel_metablocking_ids(
                engine, blocks, registry.create("weighting", scheme_name), registry.create("pruner", pruner_name)
            )
        assert _edges(parallel) == expected
        assert leaked_segments() == []

    @settings(max_examples=8, deadline=None)
    @given(
        _block_collections,
        st.sampled_from(SCHEME_NAMES),
        st.sampled_from(PRUNER_NAMES),
    )
    def test_process_executor_bit_identical(self, raw, scheme_name, pruner_name):
        if not ProcessExecutor.available():
            pytest.skip("fork start method unavailable")
        blocks = _build_blocks(raw)
        expected = _edges(
            registry.create("pruner", pruner_name).prune(
                BlockingGraph(blocks, registry.create("weighting", scheme_name))
            )
        )
        for engine in _process_engines():
            parallel, _ = parallel_metablocking_ids(
                engine, blocks, registry.create("weighting", scheme_name), registry.create("pruner", pruner_name)
            )
            assert _edges(parallel) == expected, engine.workers


#: persistent process engines shared by every hypothesis example — pool
#: startup would otherwise dominate; torn down by the module fixture below
_ENGINES: dict[int, MapReduceEngine] = {}


def _process_engines():
    if not _ENGINES:
        for workers in (1, 2, 4):
            _ENGINES[workers] = MapReduceEngine(
                workers=workers, executor="process"
            )
    return _ENGINES.values()


@pytest.fixture(scope="module", autouse=True)
def _close_engines():
    yield
    while _ENGINES:
        _, engine = _ENGINES.popitem()
        engine.close()


# ---------------------------------------------------------------------------
# /dev/shm accounting
# ---------------------------------------------------------------------------


class TestSegmentAccounting:
    def test_clean_run_leaves_no_segments(self):
        blocks = _build_blocks([(["a0", "a1"], ["b0"]), (["a1"], ["b0", "b1"])])
        with MapReduceEngine(workers=3) as engine:
            parallel_metablocking_ids(
                engine, blocks, ARCS(), CNP()
            )
        assert leaked_segments() == []

    def test_driver_crash_releases_store(self, monkeypatch):
        """A failure mid-driver (after publish) still unlinks everything."""
        blocks = _build_blocks([(["a0", "a1"], ["b0", "b1"])])
        engine = MapReduceEngine(workers=2)

        def explode(*args, **kwargs):
            raise RuntimeError("simulated phase failure")

        monkeypatch.setattr(engine, "run_array", explode)
        with pytest.raises(RuntimeError, match="simulated"):
            parallel_pair_table(engine, blocks)
        # The driver's finally released (and destroyed) its store: the
        # engine tracks nothing and /dev/shm is clean.
        assert engine._stores == set()
        assert leaked_segments() == []
        engine.close()

    def test_engine_close_reaps_adopted_stores(self):
        """The safety net: adopted-but-never-released stores die with
        the engine, so even a driver that skipped its finally cannot
        leak past ``engine.close()``."""
        engine = MapReduceEngine(workers=2)
        store = SharedBlockStore()
        engine.adopt_store(store)
        store.publish_arrays(np.arange(16))
        assert any(
            name.startswith(store.store_id) for name in leaked_segments()
        )
        engine.close()
        assert leaked_segments() == []

    def test_release_store_is_idempotent_with_close(self):
        engine = MapReduceEngine(workers=2)
        store = SharedBlockStore()
        engine.adopt_store(store)
        store.allocate(256)
        engine.release_store(store)
        assert leaked_segments() == []
        engine.close()  # must not trip over the already-released store
        assert leaked_segments() == []


# ---------------------------------------------------------------------------
# Resource-tracker ownership (needs a driver that never made a segment
# before its pool forked, hence a fresh interpreter per test)
# ---------------------------------------------------------------------------

_CHAIN = """
from repro.datasets import load_movies
from repro.mapreduce import (
    MapReduceEngine, leaked_segments, parallel_metablocking_ids,
    parallel_token_blocking,
)
from repro.metablocking import ARCS, CNP

kb1, kb2, _ = load_movies()
with MapReduceEngine(workers=2, executor="process") as engine:
    blocks, _ = parallel_token_blocking(engine, kb1, kb2)  # forks, no segment yet
    edges, jobs = parallel_metablocking_ids(
        engine, blocks, ARCS(), CNP()
    )
assert edges and len(jobs) == 2
assert leaked_segments() == [], leaked_segments()
"""

_KILLED_WORKER = """
import os, signal, sys
import numpy as np
from repro.mapreduce import (
    MapReduceEngine, ProcessExecutor, SharedBlockStore, attach_array,
    leaked_segments,
)

def attach_sum_die_once(sentinel, refs):
    total = sum(float(attach_array(ref).sum()) for ref in refs)
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return total

executor = ProcessExecutor(workers=2, task_timeout_s=30.0, retry_backoff_s=0.2)
engine = MapReduceEngine(workers=2, executor=executor)
try:
    assert executor.run_specs([(len, ("ab",)), (len, ("abc",))]) == [2, 3]  # forks
    first, second = SharedBlockStore(), SharedBlockStore()
    engine.adopt_store(first)
    engine.adopt_store(second)
    refs = first.publish_arrays(np.arange(64.0)) + second.publish_arrays(np.ones(8))
    live = leaked_segments()
    totals = executor.run_specs([(attach_sum_die_once, (sys.argv[1], refs))] * 4)
    assert totals == [2016.0 + 8.0] * 4, totals
    assert leaked_segments() == live  # the dead worker took no segment with it
finally:
    engine.close()
assert leaked_segments() == [], leaked_segments()
"""


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[2] / "src"
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif(
    not ProcessExecutor.available(), reason="fork start method unavailable"
)
class TestDriverOwnsTheTracker:
    """Workers forked before the driver made its first segment must not
    start resource trackers of their own: those claim every segment the
    worker attaches and unlink it when the worker goes away."""

    def test_blocking_then_metablocking_ends_with_clean_stderr(self):
        result = _run_fresh(_CHAIN)
        assert result.returncode == 0, result.stderr
        assert result.stderr == "", result.stderr  # no tracker warning at exit

    def test_killed_worker_leaves_segments_attachable(self, tmp_path):
        result = _run_fresh(_KILLED_WORKER, str(tmp_path / "died-once"))
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr, result.stderr
