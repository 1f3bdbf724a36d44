"""Shard supervision: liveness, retry/hedge policy, respawn.

The supervisor is deliberately single-threaded: the router calls
:meth:`Supervisor.tick` from its own loop (every ingest, every wake-up
while waiting on answers — at once when a process sentinel fires, and
no later than :meth:`Supervisor.next_check_at`), so death detection,
respawn and re-drive interleave deterministically with the request
stream — a respawned shard's catch-up events are written *before* the
shard is marked live, and FIFO pipe ordering then guarantees any later
query sees the caught-up state.

Two distinct failure signals:

* **dead** — the process is gone (``is_alive()`` false).  A SIGKILL,
  an injected torn write, an OOM.
* **stuck** — the process is alive but its heartbeat is stale past the
  deadline (a SIGSTOP freeze, a hard hang).  The supervisor SIGKILLs it
  into the dead path; a merely *slow* shard keeps beating (the
  heartbeat lives on its own thread) and is the hedging policy's
  problem, not the respawn path's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs import DISABLED
from repro.utils.rng import deterministic_rng

#: supervision states
LIVE = "live"
RECOVERING = "recovering"
DEAD = "dead"


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    ``attempts`` counts *re*-sends: a request is sent once and retried
    at most ``attempts`` more times before its partition is given up.
    """

    attempts: int = 2
    timeout_s: float = 2.0
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5
    jitter: float = 0.25

    def backoff_s(self, attempt: int, rng) -> float:
        """Delay before re-send number *attempt* (1-based)."""
        delay = min(self.base_delay_s * (2 ** (attempt - 1)), self.max_delay_s)
        return delay * (1.0 + self.jitter * rng.random())


@dataclass
class HedgePolicy:
    """Duplicate slow requests to a second shard after a p99 delay.

    Until ``min_samples`` shard latencies are observed the hedge fires
    after ``default_delay_s``; afterwards after ``multiplier`` × the
    observed ``quantile`` latency, floored at ``min_delay_s``.  The
    first answer wins; the loser is ignored.
    """

    enabled: bool = True
    quantile: float = 0.99
    multiplier: float = 2.0
    min_delay_s: float = 0.01
    default_delay_s: float = 0.08
    min_samples: int = 20

    def delay_s(self, sorted_latencies: list[float]) -> float:
        if len(sorted_latencies) < self.min_samples:
            return self.default_delay_s
        index = min(
            int(self.quantile * len(sorted_latencies)),
            len(sorted_latencies) - 1,
        )
        return max(self.min_delay_s, self.multiplier * sorted_latencies[index])


class Supervisor:
    """Heartbeat monitoring + automatic respawn over a shard set.

    Args:
        shards: the :class:`~repro.serving.shard.ShardHandle` list.
        heartbeat_deadline_s: stale-heartbeat threshold past which an
            alive process is declared stuck and killed.
        auto_respawn: respawn dead shards (False = leave them dead, the
            degraded-service study configuration).
        max_respawns: per-shard lifetime respawn budget — a crash-looping
            shard (e.g. corrupt state directory) is eventually left dead
            instead of flapping forever.
        retry / hedge: the request-level policies (the router applies
            them; they live here so one object owns all robustness
            knobs).
        on_respawn: callback ``(shard_id, recovered_version)`` invoked
            when a respawned shard reports ready, *before* it is marked
            live — the router re-drives the missed suffix here.
        stats: optional :class:`~repro.serving.router.ServingStats`.
        seed: jitter RNG seed (deterministic backoff sequences).
    """

    def __init__(
        self,
        shards,
        heartbeat_deadline_s: float = 2.0,
        auto_respawn: bool = True,
        max_respawns: int = 10,
        retry: RetryPolicy | None = None,
        hedge: HedgePolicy | None = None,
        on_respawn=None,
        stats=None,
        obs=None,
        seed: int = 17,
        min_tick_interval_s: float = 0.005,
    ) -> None:
        self.shards = list(shards)
        self.heartbeat_deadline_s = heartbeat_deadline_s
        self.auto_respawn = auto_respawn
        self.max_respawns = max_respawns
        self.retry = retry or RetryPolicy()
        self.hedge = hedge or HedgePolicy()
        self.on_respawn = on_respawn
        self.stats = stats
        self.obs = obs if obs is not None else DISABLED
        self.rng = deterministic_rng(seed, "serving-supervisor")
        self.min_tick_interval_s = min_tick_interval_s
        self._last_tick = 0.0
        #: (shard_id, event, monotonic time) health-event log
        self.events: list[tuple[int, str, float]] = []

    # -- liveness ------------------------------------------------------------

    def tick(self, now: float | None = None, force: bool = False) -> None:
        """One supervision pass; throttled to ``min_tick_interval_s``."""
        now = now if now is not None else time.monotonic()
        if not force and now - self._last_tick < self.min_tick_interval_s:
            return
        self._last_tick = now
        for handle in self.shards:
            if handle.state == DEAD:
                continue
            if not handle.is_alive():
                self._mark_dead(handle, now, "died")
            elif (
                handle.state == LIVE
                and handle.heartbeat_age_s(now) > self.heartbeat_deadline_s
            ):
                # Alive but silent past the deadline: stuck, not slow.
                handle.kill()
                self._mark_dead(handle, now, "stuck")

    def next_check_at(self, now: float) -> float:
        """The moment the oldest live heartbeat would go stale (deaths
        need no timer: the router watches the process sentinels)."""
        ages = [h.heartbeat_age_s(now) for h in self.shards if h.state == LIVE]
        return now + self.heartbeat_deadline_s - max(ages, default=float("-inf"))

    def _mark_dead(self, handle, now: float, cause: str) -> None:
        was_recovering = handle.state == RECOVERING
        handle.state = DEAD
        if handle.down_since is None:
            handle.down_since = now
        self.events.append((handle.shard_id, cause, now))
        if self.stats is not None:
            self.stats.shard_deaths += 1
        self.obs.count("repro.serving.shard.dead.count")
        if self.auto_respawn:
            # A shard that keeps dying during recovery burns through the
            # respawn budget and stays dead — no infinite flap loop.
            if was_recovering and handle.spawn_count >= self.max_respawns:
                self.events.append((handle.shard_id, "gave-up", now))
                return
            self.respawn(handle)

    def respawn(self, handle) -> None:
        """Fork a replacement process (state becomes RECOVERING)."""
        handle.spawn()
        self.events.append((handle.shard_id, "respawn", time.monotonic()))
        if self.stats is not None:
            self.stats.respawns += 1
        self.obs.count("repro.serving.respawn.count")

    def on_ready(self, shard_id: int, version: int) -> None:
        """A (re)spawned shard reported ready: re-drive, then go live."""
        handle = self.shards[shard_id]
        if handle.state != RECOVERING:
            return
        if self.on_respawn is not None:
            self.on_respawn(shard_id, version)
        handle.state = LIVE
        now = time.monotonic()
        self.events.append((shard_id, "live", now))
        if handle.down_since is not None:
            healthy_s = now - handle.down_since
            handle.down_since = None
            if self.stats is not None:
                self.stats.time_to_healthy_hist.observe(healthy_s)
            self.obs.observe(
                "repro.serving.time.to.healthy.seconds", healthy_s
            )

    # -- routing helpers -----------------------------------------------------

    def live_ids(self) -> list[int]:
        return [h.shard_id for h in self.shards if h.state == LIVE]

    def pick_other(self, exclude) -> int | None:
        """Lowest-id live shard not in *exclude* (deterministic)."""
        for handle in self.shards:
            if handle.state == LIVE and handle.shard_id not in exclude:
                return handle.shard_id
        return None

    def all_live(self) -> bool:
        return all(h.state == LIVE for h in self.shards)
