"""The MapReduce job runner: one programming model, two executors.

The engine executes a Hadoop-style job over columnar record batches:

1. the driver pre-splits the input into one chunk per map task;
2. each map task runs the **mapper** over its chunk, combining locally
   (sort + bincount fold) and **partitioning** its output by vectorized
   integer key hash into ``workers`` reduce partitions;
3. the shuffle hands every partition its batches, in map-task order;
4. each reduce task runs the **reducer** over its partition's batches.

Where the work actually happens is pluggable:

* the :class:`SerialExecutor` (default) runs every task in-process in
  deterministic order — the oracle the equivalence suite trusts, with the
  critical-path *time model* (slowest map task plus slowest reduce task,
  in record-cost units) standing in for cluster wall time;
* the :class:`ProcessExecutor` runs map and reduce tasks in real
  ``multiprocessing`` worker processes (fork start method), so wall-clock
  speedup is **measured**, not simulated.  Outputs are identical either
  way: partitioning and output ordering are all decided by deterministic
  driver-side logic.

Either way the data movement is real: the engine counts records and bytes
crossing the shuffle, so experiments can measure skew and shuffle volume
exactly the way the parallel meta-blocking paper does.

There is one job shape, :class:`ArrayMapReduceJob` (tasks exchange the
numpy record batches of :mod:`repro.mapreduce.records`), and one dispatch
route, :meth:`Executor.run_specs` over picklable ``(function, args)``
specs.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import DISABLED, Observability
from repro.obs.metrics import Counter, MetricsRegistry
from repro.utils.rng import stable_hash, stable_hash_int

#: seconds a single executor phase may take before a deadlock is assumed
DEFAULT_TASK_TIMEOUT_S = 600.0


def hash_partitioner(key: Any, partitions: int) -> int:
    """Hadoop-style deterministic hash partitioning of one scalar key.

    The scalar reference the vectorised routing of
    :mod:`repro.mapreduce.records` is checked against
    (``tests/mapreduce/test_hash_fuzz.py``).  Integer keys (packed int64
    pairs, dense entity ids, cardinalities) are hashed directly through
    the splitmix64 :func:`~repro.utils.rng.stable_hash_int`; every other
    key type goes through ``stable_hash(repr(key))``.

    ``bool`` is an ``int`` subclass but has a distinct ``repr``; the
    exact type check keeps bool keys on the ``repr`` path.
    """
    if type(key) is int:
        return stable_hash_int(key, partitions)
    return stable_hash(repr(key), partitions)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class Executor(ABC):
    """Runs a phase's tasks and returns their results in task order."""

    #: label recorded in job metrics
    name = "executor"

    @abstractmethod
    def run_specs(self, specs: list[tuple[Callable, tuple]]) -> list[Any]:
        """Run ``(function, args)`` task specs; results in spec order.

        Specs must be picklable (module-level function, array/scalar
        args) so process pools can ship them without fork-inheritance
        tricks.
        """

    def close(self) -> None:
        """Release executor resources (worker pools); idempotent."""


class SerialExecutor(Executor):
    """The deterministic in-process oracle: tasks run inline, in order."""

    name = "serial"

    def run_specs(self, specs: list[tuple[Callable, tuple]]) -> list[Any]:
        return [fn(*args) for fn, args in specs]


def _apply_spec(spec: tuple[Callable, tuple]) -> Any:
    fn, args = spec
    return fn(*args)


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    import os

    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux POSIX
        return max(1, os.cpu_count() or 1)


class _WorkerLoss(Exception):
    """A pool worker died mid-phase (its in-flight task is lost)."""


class ProcessExecutor(Executor):
    """Real ``multiprocessing`` workers (fork start method, POSIX only).

    Task specs (picklable module-level functions + array args) run on a
    persistent worker pool created lazily on first use, amortizing pool
    start-up across jobs.

    The *pool size* is capped at the CPUs actually available to this
    process: ``workers`` is the **logical** parallelism (task splits,
    shuffle partitions — all decided driver-side, so results never
    depend on it), while oversubscribing a small machine with more
    CPU-bound processes than cores only buys context-switch cache
    thrash.  Queued tasks drain as slots free up, exactly like map
    slots on a real cluster node.

    Every phase waits with a hard *timeout* so a deadlocked worker fails
    the job instead of hanging the driver (the CI smoke step relies on
    this).

    A worker *dying* mid-phase (OOM kill, SIGKILL, segfault) is treated
    as transient, not fatal: ``multiprocessing.Pool`` silently respawns
    the worker but the task it was running is lost, so the phase would
    otherwise hang until the timeout.  The wait loop watches the pool's
    worker PID set; on a change it tears the pool down and re-drives the
    *whole phase* on a fresh pool, up to ``retry_attempts`` times with
    backoff, before surfacing a ``RuntimeError``.  Safe because map and
    reduce tasks are pure functions of their inputs — re-running a phase
    recomputes identical output.

    Args:
        workers: worker process count (also the pool size).
        task_timeout_s: per-phase timeout in seconds.
        retry_attempts: how many times a phase that lost a worker is
            re-driven before giving up.
        retry_backoff_s: base delay between re-drives (doubles per
            attempt).

    Raises:
        RuntimeError: on construction when the platform has no ``fork``
            start method (use :meth:`available` to probe first).
    """

    name = "process"

    def __init__(
        self,
        workers: int,
        task_timeout_s: float = DEFAULT_TASK_TIMEOUT_S,
        retry_attempts: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if not self.available():
            raise RuntimeError(
                "ProcessExecutor needs the 'fork' multiprocessing start "
                "method (POSIX); use SerialExecutor on this platform"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retry_attempts < 0:
            raise ValueError("retry_attempts must be >= 0")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.retry_attempts = retry_attempts
        self.retry_backoff_s = retry_backoff_s
        self.pool_size = min(workers, _available_cpus())
        self._pool = None

    @staticmethod
    def available() -> bool:
        """True when the fork start method exists on this platform."""
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    # -- dispatch ------------------------------------------------------------

    def run_specs(self, specs: list[tuple[Callable, tuple]]) -> list[Any]:
        # No inline shortcut here, deliberately: even a 1-worker or
        # 1-spec phase runs through the pool, so the measured 1-worker
        # baseline includes the same dispatch + shared-memory transport
        # the multi-worker runs pay — the speedup gate compares the
        # backend as deployed, not an idealized in-process variant.
        if not specs:
            return []
        last_loss = None
        for attempt in range(self.retry_attempts + 1):
            if attempt:
                time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
            pool = self._ensure_pool()
            # One queue round trip per pool slot: when logical tasks
            # outnumber slots (workers > CPUs) the surplus rides along
            # in the same chunk instead of paying per-task dispatch.
            chunksize = -(-len(specs) // self.pool_size)
            result = pool.map_async(_apply_spec, specs, chunksize=chunksize)
            try:
                return self._wait(pool, result)
            except _WorkerLoss as loss:
                # The phase's in-flight tasks are gone with the worker;
                # discard the damaged pool and re-drive from scratch.
                last_loss = loss
                self.close()
        raise RuntimeError(
            f"MapReduce phase lost workers in {self.retry_attempts + 1} "
            f"consecutive attempts ({last_loss})"
        )

    def _wait(self, pool, async_result) -> list[Any]:
        """Wait for a phase; fail fast on deadline or worker loss.

        Polls instead of blocking in ``get`` so a worker death (the
        pool silently replaces the process but its task is lost and the
        result would never become ready) is noticed within one poll
        interval rather than at the phase timeout.
        """
        deadline = time.monotonic() + self.task_timeout_s
        known_pids = {worker.pid for worker in pool._pool}
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RuntimeError(
                    f"MapReduce phase exceeded {self.task_timeout_s:.0f}s "
                    "(deadlocked or stuck worker)"
                )
            async_result.wait(min(0.05, remaining))
            if async_result.ready():
                return async_result.get(0)
            current_pids = {worker.pid for worker in pool._pool}
            if current_pids != known_pids:
                raise _WorkerLoss(
                    f"worker set changed {sorted(known_pids)} -> "
                    f"{sorted(current_pids)}"
                )

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from multiprocessing import resource_tracker

            # Start the driver's tracker before forking: a worker that
            # attaches a segment registers it (Python < 3.13), and one
            # forked without a tracker connection would spawn its own —
            # which then "cleans up" the driver's segments when the
            # worker exits or is killed.
            resource_tracker.ensure_running()
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(self.pool_size)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()


def make_executor(executor: str | Executor, workers: int) -> Executor:
    """Resolve an executor argument: an instance, ``"serial"`` or ``"process"``."""
    if isinstance(executor, Executor):
        return executor
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessExecutor(workers)
    raise ValueError(
        f"unknown executor {executor!r}; choose 'serial' or 'process'"
    )


# ---------------------------------------------------------------------------
# Jobs and metrics
# ---------------------------------------------------------------------------


@dataclass
class ArrayMapReduceJob:
    """An array-native MapReduce job over columnar record batches.

    Mappers and reducers are **module-level functions** (picklable, so
    process pools ship them directly) operating on whole chunks:

    * ``mapper(chunk, partitions, params)`` →
      ``(list of (partition, batch), input_rows)`` — the mapper combines
      locally (sort + bincount fold) and routes each output batch by
      vectorized integer hashing;
    * ``reducer(batches, params)`` → ``(output, output_rows)`` — folds
      one partition's batches.

    Batches expose ``__len__`` (rows crossing the shuffle) and
    ``nbytes`` (shuffle bytes); see :mod:`repro.mapreduce.records`.

    ``reduce_extras``, when set, must hold one picklable value per
    reduce partition; the reducer is then called as
    ``reducer(batches, params, extras[partition])`` — how the
    shared-memory drivers hand each reduce task its own output arena.
    """

    name: str
    mapper: Callable[[Any, int, dict], tuple[list[tuple[int, Any]], int]]
    reducer: Callable[[list, dict], tuple[Any, int]]
    params: dict = field(default_factory=dict)
    reduce_extras: list | None = None


def _counter_property(attr: str):
    """A Counter-backed int field that still supports ``m.x += n``."""

    def getter(self):
        return getattr(self, attr).value

    def setter(self, value):
        getattr(self, attr).value = value

    return property(getter, setter)


#: the Counter-backed JobMetrics count fields, in declaration order
_JOB_COUNT_FIELDS = (
    "map_input_records",
    "map_output_records",
    "combine_output_records",
    "shuffle_records",
    "shuffle_bytes",
    "reduce_groups",
    "reduce_output_records",
)


class JobMetrics:
    """Execution metrics of one job run (the paper's cluster counters).

    The record/byte counts are backed by
    :class:`~repro.obs.metrics.Counter` objects; the public int fields
    are live views onto them, so :meth:`bind` can expose the *same*
    objects through a metrics registry (``metrics.txt`` then shows the
    figures the legacy fields report, identically).
    """

    def __init__(
        self, job_name: str, workers: int, executor: str = "serial"
    ) -> None:
        self.job_name = job_name
        self.workers = workers
        self.executor = executor
        for name in _JOB_COUNT_FIELDS:
            setattr(self, "_" + name, Counter())
        self.map_task_costs: list[int] = []
        self.reduce_task_costs: list[int] = []
        #: payload bytes routed to each reduce partition — one entry per
        #: partition, so the per-worker shuffle load is visible instead
        #: of only the (worker-count-invariant) total
        self.shuffle_partition_bytes: list[int] = []
        #: measured wall-clock seconds of the map / reduce phases (real
        #: time, meaningful for comparing executors; the critical path
        #: below stays the simulated cluster model)
        self.map_wall_s = 0.0
        self.reduce_wall_s = 0.0

    map_input_records = _counter_property("_map_input_records")
    map_output_records = _counter_property("_map_output_records")
    combine_output_records = _counter_property("_combine_output_records")
    shuffle_records = _counter_property("_shuffle_records")
    shuffle_bytes = _counter_property("_shuffle_bytes")
    reduce_groups = _counter_property("_reduce_groups")
    reduce_output_records = _counter_property("_reduce_output_records")

    def bind(self, registry: MetricsRegistry, prefix: str = "repro.mapreduce") -> None:
        """Register the backing counters as ``<prefix>.<field>.count``."""
        for name in _JOB_COUNT_FIELDS:
            registry.register(
                f"{prefix}.{name.replace('_', '.')}.count",
                getattr(self, "_" + name),
            )

    @property
    def wall_s(self) -> float:
        """Measured wall-clock seconds of both phases combined."""
        return self.map_wall_s + self.reduce_wall_s

    @property
    def shuffle_bytes_per_worker(self) -> int:
        """Payload bytes the most-loaded reduce partition receives.

        The figure that actually changes with the worker count: the
        total :attr:`shuffle_bytes` is a property of the workload, but
        each worker only receives its partition's share, so this must
        shrink as workers are added (the bench gates on it).
        """
        return max(self.shuffle_partition_bytes, default=0)

    @property
    def critical_path_cost(self) -> int:
        """Slowest map task + slowest reduce task, in record-cost units.

        This is the simulated parallel wall time; with one worker it
        degenerates to the sequential cost, so
        ``metrics(1).critical_path_cost / metrics(w).critical_path_cost``
        is the simulated speedup at *w* workers.
        """
        map_cost = max(self.map_task_costs, default=0)
        reduce_cost = max(self.reduce_task_costs, default=0)
        return map_cost + reduce_cost

    @property
    def skew(self) -> float:
        """Max/mean reduce-task cost ratio (1.0 = perfectly balanced)."""
        costs = [c for c in self.reduce_task_costs if c > 0]
        if not costs:
            return 1.0
        return max(costs) / (sum(costs) / len(costs))


def _timed_spec(fn: Callable, *args) -> tuple[float, Any]:
    """Picklable spec wrapper: ``(duration_s, fn(*args))``."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


class MapReduceEngine:
    """Runs job descriptions over in-memory records.

    Args:
        workers: cluster worker count (map and reduce parallelism).
            Must be >= 1.
        executor: where tasks run — ``"serial"`` (deterministic
            in-process oracle, the default), ``"process"`` (real
            ``multiprocessing`` workers) or an :class:`Executor`
            instance.  Results are identical across executors.
        obs: an :class:`~repro.obs.Observability` handle — every job
            then emits a ``mapreduce.job`` span with
            map/shuffle/reduce children (per-task spans carry
            worker-measured durations) plus aggregate record/byte
            counters.  Default: the disabled no-op handle.
    """

    def __init__(
        self,
        workers: int = 4,
        executor: str | Executor = "serial",
        obs: Observability | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.executor = make_executor(executor, workers)
        self.obs = obs if obs is not None else DISABLED
        #: shared-memory stores currently live under this engine's jobs;
        #: drivers adopt/release around their own try/finally so a crash
        #: anywhere still converges to zero surviving segments
        self._stores: set = set()

    def adopt_store(self, store) -> None:
        """Track a :class:`~repro.mapreduce.shm.SharedBlockStore`.

        Adopted stores are destroyed by :meth:`close` if their driver
        did not release them first — the engine-level safety net behind
        the guaranteed ``close()``/``unlink()`` lifecycle.
        """
        self._stores.add(store)

    def release_store(self, store) -> None:
        """Destroy *store* (idempotent) and stop tracking it."""
        store.destroy()
        self._stores.discard(store)

    def close(self) -> None:
        """Release the executor's resources (worker pools, segments)."""
        while self._stores:
            self._stores.pop().destroy()
        self.executor.close()

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_array(
        self,
        job: ArrayMapReduceJob,
        chunks: list[Any],
        chunk_rows: list[int] | None = None,
    ) -> tuple[list[Any], JobMetrics]:
        """Execute an array-native *job* over pre-split input *chunks*.

        Args:
            job: the batch job description.
            chunks: one opaque (picklable) payload per map task.
            chunk_rows: optional per-chunk input row counts for the
                metrics (defaults to the mapper-reported counts).

        Returns:
            ``(per_partition_reduce_outputs, metrics)`` with one output
            per partition, in partition order (empty partitions yield
            the reducer's output over zero batches).
        """
        metrics = JobMetrics(
            job_name=job.name, workers=self.workers, executor=self.executor.name
        )
        obs = self.obs

        with obs.span(
            "mapreduce.job",
            job=job.name,
            workers=self.workers,
            executor=self.executor.name,
        ) as job_span:
            specs = [
                (job.mapper, (chunk, self.workers, job.params))
                for chunk in chunks
            ]
            if obs.enabled:
                # The timing wrapper is a module-level function over the
                # picklable spec, so the process pool ships it unchanged.
                specs = [(_timed_spec, (fn,) + args) for fn, args in specs]
            with obs.timed(
                "mapreduce.map",
                metric="repro.mapreduce.map.seconds",
                tasks=len(specs),
            ) as timer:
                raw_results = self.executor.run_specs(specs)
                map_results = self._unwrap_timed(
                    raw_results, "mapreduce.map.task"
                )
            metrics.map_wall_s = timer.duration_s

            with obs.timed(
                "mapreduce.shuffle", metric="repro.mapreduce.shuffle.seconds"
            ) as shuffle_span:
                partitions: list[list[Any]] = [[] for _ in range(self.workers)]
                partition_bytes = [0] * self.workers
                for index, (routed, input_rows) in enumerate(map_results):
                    if chunk_rows is not None:
                        input_rows = chunk_rows[index]
                    metrics.map_input_records += input_rows
                    task_out = 0
                    for partition, batch in routed:
                        rows = len(batch)
                        partitions[partition].append(batch)
                        task_out += rows
                        metrics.shuffle_records += rows
                        partition_bytes[partition] += batch.nbytes
                    metrics.map_output_records += task_out
                    metrics.combine_output_records += task_out
                    metrics.map_task_costs.append(input_rows + task_out)
                metrics.shuffle_bytes += sum(partition_bytes)
                metrics.shuffle_partition_bytes = partition_bytes
                shuffle_span.set(
                    records=metrics.shuffle_records,
                    bytes=metrics.shuffle_bytes,
                )

            if job.reduce_extras is not None:
                if len(job.reduce_extras) != self.workers:
                    raise ValueError(
                        "reduce_extras must hold one entry per partition "
                        f"({len(job.reduce_extras)} != {self.workers})"
                    )
                specs = [
                    (job.reducer, (batches, job.params, extra))
                    for batches, extra in zip(partitions, job.reduce_extras)
                ]
            else:
                specs = [
                    (job.reducer, (batches, job.params)) for batches in partitions
                ]
            if obs.enabled:
                specs = [(_timed_spec, (fn,) + args) for fn, args in specs]
            with obs.timed(
                "mapreduce.reduce",
                metric="repro.mapreduce.reduce.seconds",
                tasks=len(specs),
            ) as timer:
                raw_results = self.executor.run_specs(specs)
                reduce_results = self._unwrap_timed(
                    raw_results, "mapreduce.reduce.task"
                )
            metrics.reduce_wall_s = timer.duration_s

            outputs: list[Any] = []
            for batches, (output, output_rows) in zip(partitions, reduce_results):
                input_rows = sum(len(batch) for batch in batches)
                metrics.reduce_task_costs.append(input_rows + output_rows)
                metrics.reduce_groups += output_rows
                metrics.reduce_output_records += output_rows
                outputs.append(output)
            job_span.set(
                input_records=metrics.map_input_records,
                output_records=metrics.reduce_output_records,
            )
        self._count_job(metrics)
        return outputs, metrics

    def _unwrap_timed(self, results: list[Any], name: str) -> list[Any]:
        """Emit per-task spans from ``(duration, result)`` wrappers."""
        if not self.obs.enabled:
            return results
        unwrapped = []
        for index, (task_s, result) in enumerate(results):
            self.obs.event(name, task_s, worker=index)
            unwrapped.append(result)
        return unwrapped

    def _count_job(self, metrics: JobMetrics) -> None:
        """Fold one job's counts into the engine's aggregate counters."""
        obs = self.obs
        if not obs.enabled:
            return
        obs.count("repro.mapreduce.jobs.count")
        obs.count(
            "repro.mapreduce.map.input.records.count",
            metrics.map_input_records,
        )
        obs.count(
            "repro.mapreduce.shuffle.records.count", metrics.shuffle_records
        )
        obs.count("repro.mapreduce.shuffle.bytes.count", metrics.shuffle_bytes)
        obs.count(
            "repro.mapreduce.reduce.output.records.count",
            metrics.reduce_output_records,
        )
