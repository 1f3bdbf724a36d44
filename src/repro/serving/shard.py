"""One shard: a forked worker process serving the weigh plane.

The child process owns a full streaming replica — store, incremental
block index, delta pair table — built by applying the router's ingest
broadcast in sequence (or recovered from a per-shard WAL + snapshot
directory after a crash), and answers weigh queries for the candidate
partitions it is asked to serve.  A daemon thread beats a shared
heartbeat cell so the supervisor can tell *stuck* (alive, stale
heartbeat) from *slow* (alive, beating, main loop busy) from *dead*.

:class:`ShardHandle` is the parent-side view: it owns the two one-way
pipes (requests down, responses up; :mod:`repro.serving.channel`),
spawns/kills/respawns the process, and tracks the supervision state.
Pipes are remade on every spawn — a SIGKILLed process can leave half a
frame in its response stream, and the replacement must start clean.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

from repro.api.registry import registry
from repro.blocking.base import Blocker
from repro.serving import messages
from repro.serving.channel import FrameReader, FrameWriter, encode, wait_ready
from repro.stream.durability import (
    CrashError,
    CrashyFiles,
    Durability,
    recover as recover_state,
)
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.store import StreamingEntityStore
from repro.utils.rng import stable_hash_int

#: seconds between heartbeat updates in the child
DEFAULT_HEARTBEAT_INTERVAL_S = 0.05


@dataclass
class ShardConfig:
    """Everything a shard process needs to build (or rebuild) itself."""

    shard_id: int
    n_partitions: int
    sources: tuple[str, ...] = ("kb1", "kb2")
    blocker: Blocker | None = None
    #: per-shard WAL + snapshot directory (None = in-memory only; a
    #: respawned in-memory shard starts empty and is fully re-driven)
    durability_dir: str | None = None
    fsync_every: int = 1
    snapshot_every: int | None = None
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S
    #: torn-write fault injection: CrashyFiles byte budget for this
    #: spawn's durability I/O (None = plain OS files)
    crash_budget: int | None = None


def _beat(heartbeat, interval_s: float) -> None:
    while True:
        heartbeat.value = time.monotonic()
        time.sleep(interval_s)


def _build_state(config: ShardConfig, files):
    """Fresh or WAL-recovered replica; returns (store, index, pairs,

    durability, recovered_events)."""
    if config.durability_dir is not None:
        try:
            result = recover_state(
                config.durability_dir, blocker=config.blocker, files=files
            )
            store, index, pairs = result.store, result.index, result.pairs
            recovered = store.version
        except FileNotFoundError:
            store = StreamingEntityStore(sources=config.sources)
            index = IncrementalBlockIndex(store, config.blocker)
            pairs = DeltaPairTable(index)
            recovered = 0
        controller = Durability(
            config.durability_dir,
            fsync_every=config.fsync_every,
            snapshot_every=config.snapshot_every,
            files=files,
        )
        controller.bind(store, index, pairs)
        return store, index, pairs, controller, recovered
    store = StreamingEntityStore(sources=config.sources)
    index = IncrementalBlockIndex(store, config.blocker)
    pairs = DeltaPairTable(index)
    return store, index, pairs, None, 0


class _Shutdown(Exception):
    """Raised by the SIGTERM handler to unwind into the clean exit."""


def shard_main(
    config: ShardConfig, request_fd, response_fd, heartbeat, router_fds
) -> None:
    """The shard process entry point (runs in the forked child).

    Applies ingest messages in arrival order, answers weigh queries for
    the requested partitions, and exits cleanly on a :class:`~repro.
    serving.messages.Stop` pill, SIGTERM or the router closing the
    request pipe (durability synced — the supervised-shutdown path is
    always recovery-clean).  An injected
    :class:`~repro.stream.durability.CrashError` (torn write) kills the
    process like a power cut would: no sync, non-zero exit, recovery
    left to the WAL.  ``router_fds`` (the router's pipe ends the fork
    copied in) are closed first, so a pipe's EOF means its owner let go.
    """

    def _on_sigterm(_signum, _frame):
        raise _Shutdown()

    signal.signal(signal.SIGTERM, _on_sigterm)
    for fd in router_fds:
        os.close(fd)
    requests = Connection(request_fd, writable=False)
    responses = Connection(response_fd, readable=False)
    files = (
        CrashyFiles(config.crash_budget)
        if config.crash_budget is not None
        else None
    )
    try:
        store, index, pairs, durability, recovered = _build_state(config, files)
    except CrashError:
        os._exit(1)

    threading.Thread(
        target=_beat,
        args=(heartbeat, config.heartbeat_interval_s),
        daemon=True,
    ).start()
    responses.send(messages.Ready(config.shard_id, store.version, recovered))

    applying = 0.0  # seconds spent on mutations since the previous answer
    try:
        while True:
            message = requests.recv()
            started = time.perf_counter()
            if isinstance(message, messages.Ingest):
                if message.op == "insert":
                    store.insert(message.description, message.source)
                else:
                    store.delete(message.uri)
                applying += time.perf_counter() - started
            elif isinstance(message, messages.Query):
                responses.send(
                    _answer(message, config, store, index, pairs, applying, started)
                )
                applying = 0.0
            elif isinstance(message, messages.Sync):
                responses.send(
                    messages.Synced(
                        message.sync_id, config.shard_id, store.version
                    )
                )
            elif isinstance(message, messages.Stall):
                time.sleep(message.seconds)
            elif isinstance(message, messages.Stop):
                if durability is not None:
                    durability.close()
                responses.send(messages.Stopped(config.shard_id))
                return
    except (_Shutdown, EOFError):  # SIGTERM / the router let go of the pipe
        if durability is not None:
            durability.close()
        responses.send(messages.Stopped(config.shard_id))
    except CrashError:
        # Injected torn write: die like a crash (no durability sync).
        os._exit(1)


def _answer(
    query: messages.Query,
    config: ShardConfig,
    store: StreamingEntityStore,
    index: IncrementalBlockIndex,
    pairs: DeltaPairTable,
    applying_s: float,
    started: float,
) -> messages.Answer:
    """Weigh the query's candidates owned by the requested partitions."""
    entity_id = store.interner.get(query.uri, -1)
    wanted = set(query.partitions)
    if entity_id >= 0:
        owned = [
            candidate_id
            for candidate_id in index.neighbours_of(entity_id)
            if stable_hash_int(candidate_id, config.n_partitions) in wanted
        ]
        weighting = registry.create("weighting", query.scheme)
        weights = pairs.weigh(weighting, entity_id, owned)
    else:
        weights = {}
    return messages.Answer(
        request_id=query.request_id,
        shard_id=config.shard_id,
        partitions=query.partitions,
        weights=weights,
        entities_placed=pairs.entities_placed,
        total_assignments=pairs.total_assignments,
        version=store.version,
        busy_s=applying_s + time.perf_counter() - started,
    )


class ShardHandle:
    """Parent-side handle: process lifecycle + pipe ends + liveness probes.

    ``siblings`` is the tier's handle list: a forked shard closes the
    copies it inherits of their router-side pipe ends (and of its own).
    """

    def __init__(self, config: ShardConfig, context, siblings=()) -> None:
        self.config = config
        self.context = context
        self.siblings = siblings
        self.process = None
        self.writer: FrameWriter | None = None
        self.reader: FrameReader | None = None
        self.heartbeat = None
        #: supervision state (owned by the Supervisor): "live",
        #: "recovering" or "dead"
        self.state = "dead"
        self.spawn_count = 0
        #: monotonic time the current outage was detected (None = none)
        self.down_since: float | None = None

    @property
    def shard_id(self) -> int:
        return self.config.shard_id

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def spawn(self, crash_budget: int | None = None) -> None:
        """Fork a fresh shard process with fresh pipes.

        ``crash_budget`` arms a :class:`~repro.stream.durability.
        CrashyFiles` byte budget in the child (torn-write fault
        injection); it applies to this spawn only — a respawn after the
        injected crash gets plain OS files again.
        """
        self._close_channel()
        request_fd, request_end = os.pipe()
        response_end, response_fd = os.pipe()
        self.writer = FrameWriter(request_end)
        self.reader = FrameReader(response_end)
        self.heartbeat = self.context.Value("d", time.monotonic())
        # The budget rides on a per-spawn copy so the fault never
        # outlives the spawn it was scheduled for.
        config = ShardConfig(**{**self.config.__dict__, "crash_budget": crash_budget})
        router_fds = [
            end.fd for handle in {self, *self.siblings}
            for end in (handle.writer, handle.reader) if end is not None
        ]
        self.process = self.context.Process(
            target=shard_main,
            args=(config, request_fd, response_fd, self.heartbeat, router_fds),
            daemon=True,
        )
        self.process.start()
        # Copies held here would keep a dead shard's pipe from reaching EOF.
        os.close(request_fd)
        os.close(response_fd)
        self.spawn_count += 1
        self.state = "recovering"

    def _close_channel(self) -> None:
        for end in (self.writer, self.reader):
            if end is not None:
                os.close(end.fd)
        self.writer = self.reader = None

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def heartbeat_age_s(self, now: float | None = None) -> float:
        """Seconds since the child last beat (inf before first spawn)."""
        if self.heartbeat is None:
            return float("inf")
        return (now if now is not None else time.monotonic()) - self.heartbeat.value

    def send(self, message) -> None:
        """Frame *message* for the shard; never blocks (see FrameWriter)."""
        self.writer.send(encode(message))

    def kill(self) -> None:
        """SIGKILL the process (fault injection / stuck-shard recovery)."""
        if self.process is not None and self.process.is_alive():
            os.kill(self.process.pid, signal.SIGKILL)
        if self.process is not None:
            self.process.join(timeout=5.0)

    def freeze(self) -> None:
        """SIGSTOP the process: alive but silent (stale heartbeat)."""
        if self.process is not None and self.process.is_alive():
            os.kill(self.process.pid, signal.SIGSTOP)

    def stop(self, timeout_s: float = 10.0) -> bool:
        """Poison-pill shutdown; True when the process exited in time."""
        if self.process is None:
            return True
        if self.process.is_alive():
            self.send(messages.Stop())
            deadline = time.monotonic() + timeout_s
            # The pill may sit behind pending bytes: push until it is out.
            while self.writer.pending and self.process.is_alive():
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                wait_ready([self.process.sentinel], [self.writer.fd], remaining)
                self.writer.flush()
            self.process.join(timeout=max(deadline - time.monotonic(), 0.0))
        exited = not self.process.is_alive()
        if not exited:
            self.kill()
        self._close_channel()
        return exited
