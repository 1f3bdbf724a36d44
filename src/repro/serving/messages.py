"""The message protocol between the router and its shard processes.

Requests travel down a per-shard one-way pipe (FIFO — ingest-before-
query ordering is the protocol's consistency guarantee), responses up a
second one (one writer per pipe, so a SIGKILLed shard can tear at most
the last frame of its own stream, which the respawn replaces).  All
message types are plain frozen dataclasses of picklable fields, framed
by :mod:`repro.serving.channel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.description import EntityDescription

# -- requests: router → shard -------------------------------------------------


@dataclass(frozen=True)
class Ingest:
    """Apply one store mutation.  ``op`` is ``"insert"`` or ``"delete"``."""

    seq: int
    op: str
    description: EntityDescription | None
    uri: str | None
    source: int


@dataclass(frozen=True)
class Query:
    """Weigh the query's candidates falling into *partitions*."""

    request_id: int
    partitions: tuple[int, ...]
    uri: str
    source: int
    scheme: str


@dataclass(frozen=True)
class Sync:
    """Barrier probe: answer with the shard's applied store version."""

    sync_id: int


@dataclass(frozen=True)
class Stall:
    """Fault injection: block the shard's main loop for *seconds*.

    The heartbeat thread keeps beating, so the shard looks alive but
    slow — the shape hedging exists for.
    """

    seconds: float


@dataclass(frozen=True)
class Stop:
    """Poison pill: close durability cleanly and exit the main loop."""


# -- responses: shard → router ------------------------------------------------


@dataclass(frozen=True)
class Ready:
    """Sent once per (re)spawn after state is (re)built.

    ``version`` is the store version the shard recovered to — the
    router re-drives every logged event past it.
    """

    shard_id: int
    version: int
    recovered_events: int


@dataclass(frozen=True)
class Answer:
    """One query's per-partition weigh result.

    ``weights`` maps candidate entity id → scheme weight for the
    candidates owned by ``partitions``; ``entities_placed`` /
    ``total_assignments`` are the global placement aggregates the
    router's CNP pruning needs (identical on every replica).
    ``busy_s`` is the time the shard spent on this query plus on the
    mutations it applied since its previous answer.
    """

    request_id: int
    shard_id: int
    partitions: tuple[int, ...]
    weights: dict[int, float]
    entities_placed: int
    total_assignments: int
    version: int
    busy_s: float = 0.0


@dataclass(frozen=True)
class Synced:
    """Barrier acknowledgement for one :class:`Sync` probe."""

    sync_id: int
    shard_id: int
    version: int


@dataclass(frozen=True)
class Stopped:
    """Clean-shutdown acknowledgement to a :class:`Stop` pill."""

    shard_id: int
