"""ProcessExecutor failure-path coverage: timeouts and worker deaths.

The per-phase hard timeout exists so a deadlocked worker fails the job
instead of hanging the driver.  These tests pin the whole path on the
dispatch route (picklable specs on the persistent pool): the stuck
phase raises, the stuck pool is torn down, and the executor remains
usable — the next phase builds a fresh pool and completes.

A worker *dying* mid-phase (OOM kill, segfault) is a different failure:
``multiprocessing.Pool`` silently respawns the process but the task it
was running is lost, so without intervention the phase hangs until the
timeout.  The executor treats the death as transient — it re-drives the
whole phase on a fresh pool with bounded attempts — and these tests
cover both the recovered case (worker dies once, phase completes on the
re-drive) and the give-up case (workers keep dying, bounded attempts
exhaust into a ``RuntimeError``).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.mapreduce import (
    ArrayMapReduceJob,
    MapReduceEngine,
    ProcessExecutor,
    SharedBlockStore,
    attach_array,
    leaked_segments,
)

from .array_jobs import SUM_JOB, run_sum

pytestmark = pytest.mark.skipif(
    not ProcessExecutor.available(), reason="fork start method unavailable"
)


def _sleep_forever(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _die_once_then(sentinel: str, value: int) -> int:
    """SIGKILL the calling worker the first time, succeed afterwards.

    The sentinel file is the cross-attempt memory: the first execution
    creates it and kills its own process (a real abrupt death, no
    exception propagation); the re-driven attempt finds it and returns.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _always_die(value: int) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return value  # pragma: no cover - never reached


def _attach_sum_die_once(sentinel: str, ref) -> float:
    """Attach a published array, then die the first time around.

    The shared-memory analogue of :func:`_die_once_then`: proves a
    re-driven phase re-attaches the driver's segments on the fresh pool
    and reads the same bytes.
    """
    total = float(attach_array(ref).sum())
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return total


class TestSpecPathTimeout:
    def test_timeout_surfaces_and_pool_recovers(self):
        executor = ProcessExecutor(workers=2, task_timeout_s=0.2)
        try:
            with pytest.raises(RuntimeError, match="exceeded"):
                executor.run_specs(
                    [(_sleep_forever, (30.0,)), (_sleep_forever, (30.0,))]
                )
            # The stuck pool was terminated by the timeout handler...
            assert executor._pool is None
            # ...and the executor still serves work: a fresh pool is
            # built lazily and the phase completes.
            results = executor.run_specs(
                [(sorted, ([3, 1],)), (sorted, ([2, 0],))]
            )
            assert results == [[1, 3], [0, 2]]
        finally:
            executor.close()

    def test_timeout_does_not_leak_into_later_phases(self):
        executor = ProcessExecutor(workers=2, task_timeout_s=0.2)
        try:
            with pytest.raises(RuntimeError):
                executor.run_specs(
                    [(_sleep_forever, (30.0,)), (_sleep_forever, (30.0,))]
                )
            # Repeated phases after recovery keep working (the killed
            # sleepers must not poison subsequent map_async calls).
            for _ in range(3):
                assert executor.run_specs(
                    [(len, ("ab",)), (len, ("abc",))]
                ) == [2, 3]
        finally:
            executor.close()


class TestWorkerDeathRecovery:
    def test_spec_phase_survives_one_worker_death(self, tmp_path):
        executor = ProcessExecutor(
            workers=2, task_timeout_s=30.0, retry_backoff_s=0.01
        )
        sentinel = str(tmp_path / "died-once")
        try:
            results = executor.run_specs(
                [(_die_once_then, (sentinel, i)) for i in range(4)]
            )
            assert results == [0, 1, 2, 3]
        finally:
            executor.close()

    def test_persistent_deaths_exhaust_attempts_and_raise(self):
        executor = ProcessExecutor(
            workers=2, task_timeout_s=30.0,
            retry_attempts=1, retry_backoff_s=0.01,
        )
        try:
            with pytest.raises(RuntimeError, match="lost workers"):
                executor.run_specs(
                    [(_always_die, (i,)) for i in range(4)]
                )
            # The damaged pool was discarded; the executor still works.
            assert executor.run_specs(
                [(len, ("ab",)), (len, ("abc",))]
            ) == [2, 3]
        finally:
            executor.close()

    def test_executor_usable_after_mixed_failures(self, tmp_path):
        executor = ProcessExecutor(
            workers=2, task_timeout_s=0.5,
            retry_attempts=1, retry_backoff_s=0.01,
        )
        sentinel = str(tmp_path / "died-once")
        try:
            with pytest.raises(RuntimeError, match="exceeded"):
                executor.run_specs(
                    [(_sleep_forever, (30.0,)), (_sleep_forever, (30.0,))]
                )
            assert executor.run_specs(
                [(_die_once_then, (sentinel, i)) for i in range(3)]
            ) == [0, 1, 2]
        finally:
            executor.close()


class TestSegmentCleanupOnFailure:
    """No failure mode may leave a ``repro_shm_*`` segment behind.

    The lifecycle contract says success, crash and re-drive all converge
    to zero surviving segments: the driver's ``finally`` (here played by
    the engine-adoption safety net) unlinks whatever was published, no
    matter how the phase using it died.
    """

    def test_timeout_mid_phase_leaves_no_segments(self):
        engine = MapReduceEngine(
            workers=2, executor=ProcessExecutor(workers=2, task_timeout_s=0.2)
        )
        store = SharedBlockStore()
        engine.adopt_store(store)
        try:
            store.publish_arrays(np.arange(128, dtype=np.int64))
            with pytest.raises(RuntimeError, match="exceeded"):
                engine.executor.run_specs(
                    [(_sleep_forever, (30.0,)), (_sleep_forever, (30.0,))]
                )
        finally:
            engine.close()
        assert leaked_segments() == []

    def test_worker_death_redrives_attachments_and_cleans_up(self, tmp_path):
        """A killed worker's phase re-drives, re-attaches the same
        segments on the fresh pool, and produces the right answer — and
        nothing survives in ``/dev/shm`` afterwards."""
        engine = MapReduceEngine(
            workers=2,
            executor=ProcessExecutor(
                workers=2, task_timeout_s=30.0, retry_backoff_s=0.01
            ),
        )
        store = SharedBlockStore()
        engine.adopt_store(store)
        sentinel = str(tmp_path / "died-once")
        data = np.arange(100, dtype=np.int64)
        try:
            (ref,) = store.publish_arrays(data)
            results = engine.executor.run_specs(
                [(_attach_sum_die_once, (sentinel, ref)) for _ in range(4)]
            )
            assert results == [float(data.sum())] * 4
        finally:
            engine.close()
        assert leaked_segments() == []

    def test_exhausted_attempts_leave_no_segments(self):
        engine = MapReduceEngine(
            workers=2,
            executor=ProcessExecutor(
                workers=2, task_timeout_s=30.0,
                retry_attempts=1, retry_backoff_s=0.01,
            ),
        )
        store = SharedBlockStore()
        engine.adopt_store(store)
        try:
            store.publish_arrays(np.ones(32))
            with pytest.raises(RuntimeError, match="lost workers"):
                engine.executor.run_specs([(_always_die, (i,)) for i in range(4)])
        finally:
            engine.close()
        assert leaked_segments() == []


def _map_stuck(chunk, partitions: int, params: dict):
    time.sleep(30)
    return [], 0  # pragma: no cover - the phase times out first


class TestEngineLevelTimeout:
    def test_stuck_map_phase_fails_the_job(self):
        stuck_job = ArrayMapReduceJob("stuck", _map_stuck, SUM_JOB.reducer)
        engine = MapReduceEngine(
            workers=2, executor=ProcessExecutor(workers=2, task_timeout_s=0.2)
        )
        try:
            with pytest.raises(RuntimeError, match="exceeded"):
                run_sum(engine, range(4), range(4), job=stuck_job)
            # The engine (same executor instance) recovers for the next job.
            output, metrics = run_sum(engine, [i % 2 for i in range(8)], [1] * 8)
            assert dict(output) == {0: 4, 1: 4}
            assert metrics.executor == "process"
        finally:
            engine.close()
