"""Open-loop load harness with a declarative fault schedule.

The generator is wrk2-style open loop: arrivals are scheduled on a
fixed timeline (optionally ramped), and each operation's latency is
measured from its *scheduled* arrival, not from when the loop got
around to issuing it — so a stalled tier shows up as queueing delay
instead of being silently absorbed (the coordinated-omission trap).

Faults are declarative strings, parsed by :func:`parse_fault`::

    kill:1@t=5              SIGKILL shard 1 five seconds in
    kill:1@e=120            ... or right before event #120
    stall:0@t=2:dur=0.8     block shard 0's main loop for 800 ms
    freeze:0@t=3            SIGSTOP shard 0 (alive, heartbeat stale)
    torn:1@spawn:budget=4096  CrashyFiles byte budget at spawn — the
                            shard's durability I/O tears mid-run

``kill``/``stall``/``freeze`` are fired by this harness while driving
load; ``torn`` is armed at spawn time (pass it to the router via
``crash_budgets`` — see :func:`spawn_budgets`), because a torn write is
a property of the shard's file layer, not an external signal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram
from repro.serving import messages
from repro.serving.router import Router
from repro.stream.workload import WorkloadEvent

_FAULT_KINDS = ("kill", "stall", "freeze", "torn")


@dataclass
class Fault:
    """One scheduled fault against one shard."""

    kind: str
    shard: int
    at_s: float | None = None
    at_event: int | None = None
    at_spawn: bool = False
    duration_s: float = 0.0
    budget: int | None = None
    fired: bool = False

    def spec(self) -> str:
        """Round-trip back to the declarative string form."""
        if self.at_spawn:
            trigger = "spawn"
        elif self.at_event is not None:
            trigger = f"e={self.at_event}"
        else:
            trigger = f"t={self.at_s:g}"
        text = f"{self.kind}:{self.shard}@{trigger}"
        if self.kind == "stall":
            text += f":dur={self.duration_s:g}"
        if self.kind == "torn":
            text += f":budget={self.budget}"
        return text


def parse_fault(spec: str) -> Fault:
    """Parse one declarative fault spec (see module docstring)."""
    try:
        head, rest = spec.split("@", 1)
        kind, shard_text = head.split(":", 1)
    except ValueError:
        raise ValueError(f"malformed fault spec {spec!r}") from None
    if kind not in _FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} (expected one of {_FAULT_KINDS})"
        )
    fault = Fault(kind=kind, shard=int(shard_text))
    parts = rest.split(":")
    trigger = parts[0]
    if trigger == "spawn":
        fault.at_spawn = True
    elif trigger.startswith("t="):
        fault.at_s = float(trigger[2:])
    elif trigger.startswith("e="):
        fault.at_event = int(trigger[2:])
    else:
        raise ValueError(
            f"malformed fault trigger {trigger!r} (want t=<s>, e=<n> or spawn)"
        )
    for option in parts[1:]:
        key, _, value = option.partition("=")
        if key == "dur":
            fault.duration_s = float(value)
        elif key == "budget":
            fault.budget = int(value)
        else:
            raise ValueError(f"unknown fault option {key!r} in {spec!r}")
    if fault.kind == "stall" and fault.duration_s <= 0.0:
        raise ValueError("stall faults need dur=<seconds>")
    if fault.kind == "torn":
        if not fault.at_spawn:
            raise ValueError("torn faults are spawn-time only (use @spawn)")
        if fault.budget is None:
            raise ValueError("torn faults need budget=<bytes>")
    elif fault.at_spawn:
        raise ValueError("@spawn is only valid for torn faults")
    return fault


def spawn_budgets(faults) -> dict[int, int]:
    """The ``Router(crash_budgets=...)`` map for the torn faults."""
    return {f.shard: f.budget for f in faults if f.kind == "torn"}


@dataclass
class LoadReport:
    """Everything one open-loop run measured."""

    duration_s: float
    events: int
    queries: int
    degraded_queries: int
    achieved_eps: float
    target_eps: float
    #: (event index, scheduled time rel. start, latency_s, degraded)
    samples: list[tuple[int, float, float, bool]] = field(repr=False)
    #: harness fault log: (spec, fired-at time rel. start)
    fault_log: list[tuple[str, float]]
    #: ``time.monotonic()`` at loop start — subtract it from supervisor
    #: event times to place deaths/respawns on the report timeline
    start_monotonic: float = 0.0

    def latencies_s(self) -> list[float]:
        return [latency for _, _, latency, _ in self.samples]

    def degraded_after(self, t_s: float) -> int:
        """Degraded responses scheduled at or after *t_s* — the
        "degraded queries after recovery" gate input."""
        return sum(
            1 for _, at, _, degraded in self.samples
            if degraded and at >= t_s
        )

    def period_rows(self, period_s: float = 1.0) -> list[dict[str, str]]:
        """Per-period latency table (nearest-rank percentiles)."""
        buckets: dict[int, Histogram] = {}
        degraded: dict[int, int] = {}
        for _, at, latency, was_degraded in self.samples:
            period = int(at // period_s)
            buckets.setdefault(period, Histogram()).observe(latency)
            degraded[period] = degraded.get(period, 0) + int(was_degraded)
        rows = []
        for period in sorted(buckets):
            hist = buckets[period]
            rows.append({
                "period": f"{period * period_s:.0f}-{(period + 1) * period_s:.0f}s",
                "ops": str(hist.count),
                "p50_ms": f"{hist.p50 * 1e3:.2f}",
                "p90_ms": f"{hist.p90 * 1e3:.2f}",
                "p99_ms": f"{hist.p99 * 1e3:.2f}",
                "degraded": str(degraded[period]),
            })
        return rows


def run_open_loop(
    router: Router,
    events: list[WorkloadEvent],
    rate_eps: float = 200.0,
    ramp_s: float = 0.0,
    faults: tuple[Fault, ...] | list[Fault] = (),
    scheme: str | None = None,
    pruner: str | None = None,
    budget: int | None = None,
) -> LoadReport:
    """Drive *events* through the tier at a scheduled open-loop rate.

    Arrivals integrate a rate that ramps linearly from 10 % to 100 % of
    ``rate_eps`` over ``ramp_s`` seconds.  ``kill``/``stall``/``freeze``
    faults fire from this loop when their time or event-index trigger is
    reached; torn faults must already be armed on the router (see
    :func:`spawn_budgets`).

    The router is left running — shutdown (poison pills) is the
    caller's job, so a report can be followed by verification.
    """
    if rate_eps <= 0:
        raise ValueError("rate_eps must be positive")
    pending = [f for f in faults if not f.at_spawn]
    fault_log: list[tuple[str, float]] = []
    samples: list[tuple[int, float, float, bool]] = []
    queries = degraded_queries = 0

    def rate_at(t: float) -> float:
        if ramp_s <= 0.0 or t >= ramp_s:
            return rate_eps
        return rate_eps * (0.1 + 0.9 * (t / ramp_s))

    def fire(fault: Fault, now_rel: float) -> None:
        fault.fired = True
        handle = router.shards[fault.shard]
        if fault.kind == "kill":
            handle.kill()
        elif fault.kind == "freeze":
            handle.freeze()
        elif fault.kind == "stall":
            handle.send(messages.Stall(fault.duration_s))
        fault_log.append((fault.spec(), now_rel))

    start = time.monotonic()
    scheduled = 0.0
    for index, event in enumerate(events):
        for fault in pending:
            if (
                not fault.fired
                and fault.at_event is not None
                and index >= fault.at_event
            ):
                fire(fault, time.monotonic() - start)
        while True:
            now_rel = time.monotonic() - start
            for fault in pending:
                if (
                    not fault.fired
                    and fault.at_s is not None
                    and now_rel >= fault.at_s
                ):
                    fire(fault, now_rel)
            if now_rel >= scheduled:
                break
            # Idle until the next arrival or timed fault; a response or
            # a death wakes the router early, so supervision is not
            # deferred to the next operation.
            due = [f.at_s for f in pending if not f.fired and f.at_s is not None]
            router.idle(min([scheduled, *due]) - now_rel)

        if event.kind == "delete":
            router.delete(event.description.uri)
        else:
            # Both inserts and explicit queries resolve (streaming ER:
            # every arriving description is matched on arrival).
            result = router.resolve(
                event.description,
                source=event.source,
                scheme=scheme,
                pruner=pruner,
                budget=budget,
                ingest=event.kind == "insert",
            )
            latency = (time.monotonic() - start) - scheduled
            samples.append((index, scheduled, latency, result.degraded))
            queries += 1
            degraded_queries += int(result.degraded)
        scheduled += 1.0 / rate_at(scheduled)

    duration = time.monotonic() - start
    return LoadReport(
        duration_s=duration,
        events=len(events),
        queries=queries,
        degraded_queries=degraded_queries,
        achieved_eps=len(events) / duration if duration > 0 else 0.0,
        target_eps=rate_eps,
        samples=samples,
        fault_log=fault_log,
        start_monotonic=start,
    )
