"""The serving front end: ingest broadcast, query fan-out, merge.

One :class:`Router` owns the tier.  It keeps a replica of the store for
the *match plane* (descriptions, interner, similarity index, match
graph — everything :func:`~repro.stream.resolver.run_match_phase`
needs), broadcasts every accepted mutation to the shard processes in
sequence, and resolves queries by fanning the weigh phase out: each
candidate partition is requested from its home shard, the per-partition
weight maps are merged (partitions are disjoint, so the merge is a
plain union), and pruning + matching run router-side through the same
extracted phase functions the single-store resolver uses.  Weights
depend only on replicated global statistics, so the merged result is
bit-identical to :class:`~repro.stream.resolver.StreamResolver` on the
same event sequence — :func:`verify_equivalence` asserts exactly that
against a freshly replayed oracle.

Robustness is supervised, not assumed: dead or stuck shards are
respawned (WAL recovery + re-drive of the missed suffix), timed-out
requests retry with exponential backoff + jitter and fail over to
another live shard (every shard replicates all partitions), slow
requests are hedged after a p99-derived delay, and when a partition
stays unreachable past the retry budget the query degrades gracefully:
the partial merge is served tagged ``degraded=True`` with coverage
accounting instead of an exception.

The router is single-threaded by design — supervision runs inline
(:meth:`Router.pump`) between pipe operations, so respawn, re-drive
and the request stream interleave deterministically.  It never sleeps
on a timer and never blocks on a peer: writes are non-blocking with a
pending buffer, reads take only complete frames, and the one place it
waits (:meth:`Router._wait`) is a readiness wait over the shards' pipes
and process sentinels, bounded by the nearest retry / hedge / heartbeat
deadline.
"""

from __future__ import annotations

import os
import time
from bisect import insort
from dataclasses import dataclass, field

from repro.blocking.base import Blocker
from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.matching.matcher import ThresholdMatcher
from repro.model.description import EntityDescription
from repro.obs import DISABLED, Observability
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.serving import messages
from repro.serving.channel import encode, wait_ready
from repro.serving.shard import ShardConfig, ShardHandle
from repro.serving.supervisor import (
    DEAD,
    LIVE,
    HedgePolicy,
    RetryPolicy,
    Supervisor,
)
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.resolver import (
    StreamMatch,
    _StreamContext,
    prune_neighbourhood,
    query_components,
    run_match_phase,
)
from repro.stream.similarity import StreamingSimilarityIndex
from repro.stream.store import StreamingEntityStore


def _count_property(attr: str):
    """A Counter-backed int field that still supports ``stats.x += 1``."""

    def getter(self):
        return getattr(self, attr).value

    def setter(self, value):
        getattr(self, attr).value = value

    return property(getter, setter)


class ServingStats:
    """Tier-level robustness accounting, backed by metric primitives.

    Like :class:`~repro.stream.workload.WorkloadStats`, the counts live
    in :class:`~repro.obs.metrics.Counter` / :class:`~repro.obs.metrics.
    Histogram` objects and :meth:`bind` registers the *same objects* in
    a registry — the exported ``metrics.txt`` figures equal these by
    construction.
    """

    def __init__(self) -> None:
        self._queries = Counter()
        self._degraded = Counter()
        self._retries = Counter()
        self._hedges = Counter()
        self._hedge_wins = Counter()
        self._failovers = Counter()
        self._respawns = Counter()
        self._shard_deaths = Counter()
        #: end-to-end query latency (router-side)
        self.query_hist = Histogram()
        #: per-shard request latency (send → answer), the hedge input
        self.shard_hist = Histogram()
        #: the same latencies kept sorted, so the hedge delay is an index
        self.shard_latencies: list[float] = []
        #: per-query fan-out time not spent computing in a shard
        self.transit_hist = Histogram()
        #: outage-detected → shard live again
        self.time_to_healthy_hist = Histogram()

    queries = _count_property("_queries")
    degraded = _count_property("_degraded")
    retries = _count_property("_retries")
    hedges = _count_property("_hedges")
    hedge_wins = _count_property("_hedge_wins")
    failovers = _count_property("_failovers")
    respawns = _count_property("_respawns")
    shard_deaths = _count_property("_shard_deaths")

    def bind(self, registry: MetricsRegistry) -> None:
        registry.register("repro.serving.query.count", self._queries)
        registry.register("repro.serving.degraded.count", self._degraded)
        registry.register("repro.serving.retry.count", self._retries)
        registry.register("repro.serving.hedge.count", self._hedges)
        registry.register("repro.serving.hedge.win.count", self._hedge_wins)
        registry.register("repro.serving.failover.count", self._failovers)
        registry.register("repro.serving.respawn.count", self._respawns)
        registry.register("repro.serving.shard.dead.count", self._shard_deaths)
        registry.register("repro.serving.query.seconds", self.query_hist)
        registry.register("repro.serving.shard.request.seconds", self.shard_hist)
        registry.register("repro.serving.transit.seconds", self.transit_hist)
        registry.register(
            "repro.serving.time.to.healthy.seconds", self.time_to_healthy_hist
        )

    def summary_rows(self) -> list[dict[str, str]]:
        """Report-ready rows for ``format_table``."""
        query = self.query_hist.summary()
        rows = [
            {"metric": "queries served", "value": str(self.queries)},
            {"metric": "degraded responses", "value": str(self.degraded)},
            {"metric": "retries / failovers",
             "value": f"{self.retries} / {self.failovers}"},
            {"metric": "hedges (wins)",
             "value": f"{self.hedges} ({self.hedge_wins})"},
            {"metric": "shard deaths / respawns",
             "value": f"{self.shard_deaths} / {self.respawns}"},
            {"metric": "query p50 / p99 (ms)",
             "value": f"{query['p50'] * 1e3:.3f} / {query['p99'] * 1e3:.3f}"},
        ]
        if self.time_to_healthy_hist.count:
            tth = self.time_to_healthy_hist.summary()
            rows.append(
                {"metric": "time-to-healthy mean / max (s)",
                 "value": f"{tth['mean']:.3f} / {tth['max']:.3f}"}
            )
        return rows


@dataclass
class RoutedQueryResult:
    """One merged query outcome, with degradation accounting.

    The degradation contract: ``degraded`` is True exactly when at
    least one candidate partition was unreachable, ``coverage`` is the
    fraction of partitions that answered, and ``missing_partitions``
    names the gap — a partial result is always *labelled*, never
    silent.
    """

    uri: str
    matches: list[StreamMatch]
    candidates: int
    scheduled: int
    comparisons: int
    skipped_decided: int
    degraded: bool
    coverage: float
    missing_partitions: tuple[int, ...]
    #: merged candidate-id → weight map (the pruning input)
    weights: dict[int, float] = field(default_factory=dict, repr=False)
    latency: dict[str, float] = field(default_factory=dict)

    def matched_uris(self) -> list[str]:
        return [match.uri for match in self.matches]


@dataclass
class _LogEntry:
    seq: int
    op: str
    description: EntityDescription | None
    uri: str | None
    source: int
    #: router-store version after applying this entry (replicas agree)
    version_after: int
    #: the entry's Ingest message, encoded once for broadcast and re-drive
    frame: bytes


class _Slot:
    """In-flight state of one partition's weigh request."""

    __slots__ = (
        "partition", "shard_id", "sent_at", "attempt",
        "resend_at", "hedge_shard", "done",
    )

    def __init__(self, partition: int) -> None:
        self.partition = partition
        self.shard_id: int | None = None
        self.sent_at = 0.0
        self.attempt = 1
        self.resend_at: float | None = None
        self.hedge_shard: int | None = None
        self.done = False

    def timer(self, now: float, retry, hedge, hedge_delay: float) -> float:
        """When this unanswered slot next acts if no response arrives."""
        if self.resend_at is not None:
            return self.resend_at
        timeout_at = self.sent_at + retry.timeout_s
        hedge_at = self.sent_at + hedge_delay
        # A hedge already due found no second shard to go to.
        if hedge.enabled and self.hedge_shard is None and hedge_at > now:
            return min(timeout_at, hedge_at)
        return timeout_at


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_equivalence`."""

    ok: bool
    checked: int
    mismatches: list[str]


class Router:
    """Front end of a sharded serving tier (spawns the shards itself).

    Args:
        n_shards: worker process count == candidate partition count.
        clean_clean: two-source store (kb1/kb2) vs dirty single-source.
        blocker: key extractor for every replica's incremental index.
        threshold: match threshold of the router-side cosine matcher.
        benefit: scheduler benefit model (default: quantity).
        scheme / pruner / budget: per-query defaults.
        durability_root: per-shard WAL directories under
            ``<root>/shard-<i>`` — shards then recover their own state
            on respawn instead of a full re-drive.
        fsync_every / snapshot_every: each shard's durability knobs.
        failover: reroute a dead shard's partitions to a live shard.
        degrade: serve labelled partial merges when partitions stay
            unreachable (False = raise instead).
        auto_respawn / heartbeat_deadline_s / retry / hedge: supervisor
            and request-robustness policies.
        crash_budgets: shard id → CrashyFiles byte budget armed on the
            *initial* spawn (torn-write fault injection).
        query_timeout_s: overall per-query deadline.
        obs: observability handle; the tier's counters/histograms are
            registered in its registry and queries emit spans.
    """

    def __init__(
        self,
        n_shards: int,
        clean_clean: bool = True,
        blocker: Blocker | None = None,
        threshold: float = 0.4,
        benefit: BenefitModel | None = None,
        scheme: str = "ARCS",
        pruner: str = "CNP",
        budget: int | None = None,
        durability_root: str | None = None,
        fsync_every: int = 1,
        snapshot_every: int | None = None,
        failover: bool = True,
        degrade: bool = True,
        auto_respawn: bool = True,
        heartbeat_deadline_s: float = 2.0,
        retry: RetryPolicy | None = None,
        hedge: HedgePolicy | None = None,
        crash_budgets: dict[int, int] | None = None,
        query_timeout_s: float = 30.0,
        start_timeout_s: float = 60.0,
        obs: Observability | None = None,
        seed: int = 17,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        import multiprocessing

        self.n_shards = n_shards
        self.obs = obs if obs is not None else DISABLED
        self.blocker = blocker
        self.threshold = threshold
        self.scheme = scheme
        self.pruner = pruner
        self.budget = budget
        self.failover = failover
        self.degrade = degrade
        self.query_timeout_s = query_timeout_s
        self._sources = ("kb1", "kb2") if clean_clean else ("stream",)

        # The match-plane replica: store + similarity + decisions.  The
        # router does not maintain a block index or pair table — the
        # weigh plane is exactly the work the shards take over.
        self.store = StreamingEntityStore(sources=self._sources)
        self.similarity = StreamingSimilarityIndex(self.store)
        self.context = _StreamContext(self.store)
        self.matcher = ThresholdMatcher(
            self.similarity, threshold=threshold, measure="cosine"
        )
        self.matcher.attach(self.context)
        self.benefit = benefit or QuantityBenefit()

        self.stats = ServingStats()
        if self.obs.enabled:
            self.stats.bind(self.obs.registry)

        self.log: list[_LogEntry] = []
        self._seq = 0
        self._request_seq = 0
        self._sync_seq = 0
        self._current_request: int | None = None
        self._answers: dict[int, messages.Answer] = {}
        self._sync_acks: dict[int, dict[int, int]] = {}

        context = multiprocessing.get_context("fork")
        self.shards: list[ShardHandle] = []  # every handle is given this list
        self.shards += [
            ShardHandle(
                ShardConfig(
                    shard_id=shard_id,
                    n_partitions=n_shards,
                    sources=self._sources,
                    blocker=blocker,
                    durability_dir=(
                        os.path.join(durability_root, f"shard-{shard_id}")
                        if durability_root
                        else None
                    ),
                    fsync_every=fsync_every,
                    snapshot_every=snapshot_every,
                ),
                context,
                self.shards,
            )
            for shard_id in range(n_shards)
        ]
        self.supervisor = Supervisor(
            self.shards,
            heartbeat_deadline_s=heartbeat_deadline_s,
            auto_respawn=auto_respawn,
            retry=retry,
            hedge=hedge,
            on_respawn=self._redrive,
            stats=self.stats,
            seed=seed,
        )
        self._closed = False
        budgets = crash_budgets or {}
        for handle in self.shards:
            handle.spawn(crash_budget=budgets.get(handle.shard_id))
        self._await_all_live(start_timeout_s)

    # -- lifecycle -----------------------------------------------------------

    def _await_all_live(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.pump()
            if self.supervisor.all_live():
                return
            self._wait(deadline)
        self.close()
        raise RuntimeError(
            f"serving tier failed to start within {timeout_s:.0f}s"
        )

    def close(self) -> None:
        """Poison-pill shutdown of every shard; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.supervisor.auto_respawn = False
        for handle in self.shards:
            handle.stop()
            handle.state = DEAD

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervision pump ----------------------------------------------------

    def pump(self) -> int:
        """One supervision tick + flush pending writes + drain responses.

        Never blocks.  Returns the number of messages handled; callers
        waiting on external progress should :meth:`idle` when it is 0.
        """
        self.supervisor.tick()
        handled = 0
        for handle in self.shards:
            if handle.reader is None:  # stopped: its pipes are closed
                continue
            handle.writer.flush()
            for message in handle.reader.read():
                handled += 1
                self._on_response(message)
        return handled

    def _wait(self, until: float) -> None:
        """Block until something can happen, at the latest at *until*.

        Something is a response to read, room in a pipe for pending
        request bytes, a shard exiting (its sentinel) or the oldest live
        heartbeat falling due; the last two force the supervision tick
        past its throttle.  A pipe at EOF and a shard left dead are not
        watched: they stay "ready" for ever and would make this a spin.
        """
        now = time.monotonic()
        until = min(until, self.supervisor.next_check_at(now))
        watched = [h for h in self.shards if h.state != DEAD]
        sentinels = [h.process.sentinel for h in watched]
        readable = [h.reader.fd for h in watched if not h.reader.eof]
        writable = [h.writer.fd for h in watched if h.writer.pending]
        ready = wait_ready(sentinels + readable, writable, until - now)
        if not ready or not ready.isdisjoint(sentinels):
            self.supervisor.tick(force=True)

    def idle(self, timeout_s: float) -> None:
        """Sleep until a response, a shard death or the timeout; then pump
        (for drivers between operations: supervision keeps moving)."""
        self._wait(time.monotonic() + timeout_s)
        self.pump()

    def _on_response(self, message) -> None:
        if isinstance(message, messages.Answer):
            if message.request_id == self._current_request:
                self._answers.setdefault(message.partitions[0], message)
        elif isinstance(message, messages.Ready):
            self.supervisor.on_ready(message.shard_id, message.version)
        elif isinstance(message, messages.Synced):
            acks = self._sync_acks.get(message.sync_id)
            if acks is not None:
                acks[message.shard_id] = message.version
        # Stopped needs no bookkeeping: stop() joins on the process.

    def _redrive(self, shard_id: int, version: int) -> None:
        """Catch a respawned shard up to the router's event log.

        Runs *before* the shard is marked live, so its FIFO request
        queue holds the full missed suffix ahead of any future query —
        later queries therefore always see the caught-up state.
        """
        writer = self.shards[shard_id].writer
        for entry in self.log:
            if entry.version_after > version:
                writer.send(entry.frame)

    # -- ingestion -----------------------------------------------------------

    def ingest(self, description: EntityDescription, source: int = 0) -> int:
        """Apply + broadcast one insert; returns the entity id."""
        self.pump()
        entity_id = self.store.insert(description, source)
        self._log_and_broadcast("insert", description, None, source)
        return entity_id

    def delete(self, uri: str) -> bool:
        """Apply + broadcast one retraction; True when the URI was live."""
        self.pump()
        present = self.store.delete(uri)
        self._log_and_broadcast("delete", None, uri, 0)
        return present

    def _log_and_broadcast(
        self,
        op: str,
        description: EntityDescription | None,
        uri: str | None,
        source: int,
    ) -> None:
        self._seq += 1
        # Encoded once: every replica, live or re-driven, gets these bytes.
        frame = encode(messages.Ingest(self._seq, op, description, uri, source))
        self.log.append(
            _LogEntry(
                self._seq, op, description, uri, source, self.store.version, frame
            )
        )
        for handle in self.shards:
            # Only live shards receive the broadcast directly; anything
            # else catches up through the re-drive on ready.
            if handle.state == LIVE:
                handle.writer.send(frame)

    # -- query fan-out -------------------------------------------------------

    def resolve(
        self,
        description: EntityDescription,
        source: int = 0,
        scheme: str | None = None,
        pruner: str | None = None,
        budget: int | None = None,
        ingest: bool = True,
        _context=None,
        _matcher=None,
    ) -> RoutedQueryResult:
        """Resolve one description through the tier.

        Mirrors :meth:`~repro.stream.resolver.StreamResolver.resolve`
        (same defaults, same semantics) with the weigh phase executed
        across the shards.  ``_context`` / ``_matcher`` override the
        match plane for one call — the equivalence verifier uses fresh
        planes so verification never pollutes serving decisions.
        """
        scheme = scheme if scheme is not None else self.scheme
        pruner = pruner if pruner is not None else self.pruner
        budget = budget if budget is not None else self.budget
        # Names resolve before any shard sees a Query.
        _weighting, pruning = query_components(scheme, pruner)
        with self.obs.span("serving.query", source=source) as span:
            result = self._resolve(
                description, source, scheme, pruning, budget, ingest,
                _context or self.context, _matcher or self.matcher,
            )
            span.set(
                candidates=result.candidates,
                degraded=result.degraded,
                coverage=result.coverage,
            )
        return result

    def _resolve(
        self, description, source, scheme, pruning, budget, ingest,
        context, matcher,
    ) -> RoutedQueryResult:
        t_total = time.perf_counter()
        latency: dict[str, float] = {}

        t0 = time.perf_counter()
        if ingest:
            self.ingest(description, source)
        else:
            self.pump()
        latency["ingest_s"] = time.perf_counter() - t0

        uri = description.uri
        t0 = time.perf_counter()
        answers, missing = self._fan_out(uri, source, scheme)
        latency["fanout_s"] = time.perf_counter() - t0
        # Compute or transport?  The slowest merged answer's busy time
        # (capped: mutations applied before the fan-out are not its wait)
        # against the rest — serialisation, pipes, wake-ups.
        busy = max((answer.busy_s for answer in answers.values()), default=0.0)
        latency["shard_s"] = min(busy, latency["fanout_s"])
        latency["transit_s"] = latency["fanout_s"] - latency["shard_s"]

        degraded = bool(missing)
        coverage = (self.n_shards - len(missing)) / self.n_shards
        if degraded and not self.degrade:
            raise RuntimeError(
                f"partitions {sorted(missing)} unavailable and graceful "
                "degradation is disabled"
            )

        weights: dict[int, float] = {}
        entities_placed, total_assignments = 1, 0
        for answer in answers.values():
            weights.update(answer.weights)
            entities_placed = answer.entities_placed
            total_assignments = answer.total_assignments

        t0 = time.perf_counter()
        uris = self.store.interner.uri_table()
        survivors = prune_neighbourhood(
            weights, pruning, uris, entities_placed, total_assignments
        )
        matches, scheduled, comparisons, skipped = run_match_phase(
            uri, survivors, weights, budget, context, matcher, self.benefit
        )
        latency["match_s"] = time.perf_counter() - t0
        latency["total_s"] = time.perf_counter() - t_total

        self.stats.queries += 1
        self.stats.query_hist.observe(latency["total_s"])
        self.stats.transit_hist.observe(latency["transit_s"])
        if degraded:
            self.stats.degraded += 1
        return RoutedQueryResult(
            uri=uri,
            matches=matches,
            candidates=len(weights),
            scheduled=scheduled,
            comparisons=comparisons,
            skipped_decided=skipped,
            degraded=degraded,
            coverage=coverage,
            missing_partitions=tuple(sorted(missing)),
            weights=weights,
            latency=latency,
        )

    def _fan_out(
        self, uri: str, source: int, scheme: str
    ) -> tuple[dict[int, messages.Answer], set[int]]:
        """Request every partition's weights; retry/hedge/fail over.

        Returns ``(answers by partition, failed partitions)``.
        """
        self._request_seq += 1
        request_id = self._request_seq
        self._current_request = request_id
        self._answers = {}
        retry = self.supervisor.retry
        hedge = self.supervisor.hedge
        hedge_delay = hedge.delay_s(self.stats.shard_latencies)

        slots = [_Slot(partition) for partition in range(self.n_shards)]
        failed: set[int] = set()
        now = time.monotonic()
        for slot in slots:
            self._assign(slot, request_id, uri, source, scheme, now, failed)

        deadline = now + self.query_timeout_s
        try:
            while True:
                self.pump()
                now = time.monotonic()
                timers = []  # of the slots still waiting after this pass
                for slot in slots:
                    if slot.done or slot.partition in failed:
                        continue
                    if now >= deadline:
                        failed.add(slot.partition)
                        continue
                    self._advance_slot(
                        slot, request_id, uri, source, scheme,
                        now, retry, hedge, hedge_delay, failed,
                    )
                    if not slot.done and slot.partition not in failed:
                        timers.append(slot.timer(now, retry, hedge, hedge_delay))
                if not timers:
                    break
                self._wait(min(deadline, *timers))
            return dict(self._answers), failed
        finally:
            self._current_request = None
            self._answers = {}

    def _assign(
        self, slot: _Slot, request_id, uri, source, scheme, now, failed,
    ) -> None:
        """Initial dispatch: home shard if live, else fail over."""
        home = slot.partition
        if self.shards[home].state == LIVE:
            slot.shard_id = home
        elif self.failover:
            other = self.supervisor.pick_other({home})
            if other is None:
                # Nothing live right now — defer, the retry path keeps
                # probing while the supervisor respawns.
                slot.shard_id = home
                slot.resend_at = now
                return
            slot.shard_id = other
            self.stats.failovers += 1
        else:
            # No failover: wait for the home shard to come back (the
            # retry budget bounds how long).
            slot.shard_id = home
            slot.resend_at = now
            return
        self._send_slot(slot, request_id, uri, source, scheme, now)

    def _send_slot(self, slot, request_id, uri, source, scheme, now) -> None:
        self.shards[slot.shard_id].send(
            messages.Query(request_id, (slot.partition,), uri, source, scheme)
        )
        slot.sent_at = now

    def _advance_slot(
        self, slot, request_id, uri, source, scheme,
        now, retry, hedge, hedge_delay, failed,
    ) -> None:
        answer = self._answers.get(slot.partition)
        if answer is not None:
            slot.done = True
            if slot.sent_at:
                took = now - slot.sent_at
                self.stats.shard_hist.observe(took)
                insort(self.stats.shard_latencies, took)
            if slot.hedge_shard is not None and answer.shard_id == slot.hedge_shard:
                self.stats.hedge_wins += 1
            return

        if slot.resend_at is not None:
            # Backing off (or waiting for any shard to come live).
            if now < slot.resend_at:
                return
            target = self.shards[slot.shard_id]
            if target.state != LIVE:
                if self.failover:
                    other = self.supervisor.pick_other({slot.shard_id})
                    if other is not None:
                        slot.shard_id = other
                        self.stats.failovers += 1
                    else:
                        slot.resend_at = now + retry.base_delay_s
                        return
                else:
                    if slot.attempt > retry.attempts:
                        failed.add(slot.partition)
                        return
                    slot.attempt += 1
                    self.stats.retries += 1
                    slot.resend_at = now + retry.backoff_s(
                        slot.attempt - 1, self.supervisor.rng
                    )
                    return
            slot.resend_at = None
            self._send_slot(slot, request_id, uri, source, scheme, now)
            return

        target = self.shards[slot.shard_id]
        timed_out = now - slot.sent_at > retry.timeout_s
        if target.state != LIVE or timed_out:
            if slot.attempt > retry.attempts:
                failed.add(slot.partition)
                return
            slot.attempt += 1
            self.stats.retries += 1
            if target.state != LIVE and self.failover:
                other = self.supervisor.pick_other({slot.shard_id})
                if other is not None:
                    slot.shard_id = other
                    self.stats.failovers += 1
            slot.resend_at = now + retry.backoff_s(
                slot.attempt - 1, self.supervisor.rng
            )
            return

        if (
            hedge.enabled
            and slot.hedge_shard is None
            and now - slot.sent_at >= hedge_delay
        ):
            other = self.supervisor.pick_other({slot.shard_id})
            if other is not None:
                self.shards[other].send(
                    messages.Query(
                        request_id, (slot.partition,), uri, source, scheme
                    )
                )
                slot.hedge_shard = other
                self.stats.hedges += 1

    # -- barriers ------------------------------------------------------------

    def sync(self, timeout_s: float = 30.0) -> bool:
        """Wait until every shard is live and caught up to the log.

        True when all shards acknowledged the router's current store
        version; False on timeout (some shard stayed down or behind).
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.pump()
            if not self.supervisor.all_live():
                self._wait(deadline)
                continue
            self._sync_seq += 1
            sync_id = self._sync_seq
            acks = self._sync_acks[sync_id] = {}
            for handle in self.shards:
                handle.send(messages.Sync(sync_id))
            round_deadline = min(deadline, time.monotonic() + 2.0)
            while time.monotonic() < round_deadline:
                self.pump()
                if len(acks) == self.n_shards:
                    break
                if not self.supervisor.all_live():
                    break
                self._wait(round_deadline)
            del self._sync_acks[sync_id]
            if len(acks) == self.n_shards:
                # Acked after applying everything sent: retrying is futile.
                return all(
                    version == self.store.version for version in acks.values()
                )
        return False

    # -- fresh match planes (verification) -----------------------------------

    def fresh_match_plane(self, store: StreamingEntityStore):
        """A fresh (context, matcher) pair over *store*.

        Decisions recorded through it never touch the serving match
        graph — the verifier's isolation mechanism.
        """
        context = _StreamContext(store)
        matcher = ThresholdMatcher(
            StreamingSimilarityIndex(store),
            threshold=self.threshold,
            measure="cosine",
        )
        matcher.attach(context)
        return context, matcher


def verify_equivalence(
    router: Router,
    queries: list[tuple[EntityDescription, int]],
    scheme: str | None = None,
    pruner: str | None = None,
    budget: int | None = None,
    sync_timeout_s: float = 30.0,
) -> VerificationReport:
    """Assert the tier's merges are bit-identical to a single store.

    Replays the router's full event log into a fresh single-store
    oracle (store + incremental index + pair table), then resolves
    every query on both sides through *fresh, isolated* match planes —
    so the comparison depends only on store/index state, not on which
    match decisions were recorded during outages.  Compared per query:
    the merged weight map (float-exact), the pruned survivor list and
    the match list (URI, similarity and weight all bit-equal).

    The tier side must be at full coverage: :meth:`Router.sync` runs
    first, and any degraded answer is itself a mismatch.
    """
    scheme = scheme if scheme is not None else router.scheme
    pruner = pruner if pruner is not None else router.pruner
    budget = budget if budget is not None else router.budget
    weighting, pruning = query_components(scheme, pruner)
    if not router.sync(timeout_s=sync_timeout_s):
        return VerificationReport(
            ok=False, checked=0,
            mismatches=["tier did not reach a healthy synced state"],
        )

    oracle_store = StreamingEntityStore(sources=router._sources)
    oracle_index = IncrementalBlockIndex(oracle_store, router.blocker)
    oracle_pairs = DeltaPairTable(oracle_index)
    for entry in router.log:
        if entry.op == "insert":
            oracle_store.insert(entry.description, entry.source)
        else:
            oracle_store.delete(entry.uri)

    tier_plane = router.fresh_match_plane(router.store)
    oracle_plane = router.fresh_match_plane(oracle_store)

    mismatches: list[str] = []
    for description, source in queries:
        uri = description.uri
        result = router.resolve(
            description, source, scheme=scheme, pruner=pruner, budget=budget,
            ingest=False, _context=tier_plane[0], _matcher=tier_plane[1],
        )
        if result.degraded:
            mismatches.append(
                f"{uri}: degraded during verification "
                f"(missing {result.missing_partitions})"
            )
            continue

        entity_id = oracle_store.interner.get(uri, -1)
        candidate_ids = (
            oracle_index.neighbours_of(entity_id) if entity_id >= 0 else []
        )
        oracle_weights = oracle_pairs.weigh(weighting, entity_id, candidate_ids)
        if result.weights != oracle_weights:
            mismatches.append(f"{uri}: merged weights diverge from oracle")
            continue
        oracle_survivors = prune_neighbourhood(
            oracle_weights, pruning, oracle_store.interner.uri_table(),
            oracle_pairs.entities_placed, oracle_pairs.total_assignments,
        )
        oracle_matches, _, oracle_comparisons, _ = run_match_phase(
            uri, oracle_survivors, oracle_weights, budget,
            oracle_plane[0], oracle_plane[1], router.benefit,
        )
        if result.matches != oracle_matches:
            mismatches.append(f"{uri}: match list diverges from oracle")
        elif result.comparisons != oracle_comparisons:
            mismatches.append(f"{uri}: comparison count diverges from oracle")
    return VerificationReport(
        ok=not mismatches, checked=len(queries), mismatches=mismatches
    )
