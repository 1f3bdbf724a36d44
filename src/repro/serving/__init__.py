"""Fault-tolerant sharded serving tier over the streaming resolver.

The streaming layer (:mod:`repro.stream`) serves one resolver in one
process.  This package turns it into a production-shaped tier: N worker
processes (**shards**) each hold a full replica of the streaming state
and own a disjoint slice of the *candidate partition space* (entity ids
hashed via :func:`~repro.utils.rng.stable_hash_int`); a front-end
:class:`~repro.serving.router.Router` broadcasts ingest events to every
shard, fans each query's weigh phase out across the shards, and merges
the per-partition candidate weights into results **bit-identical** to
the single-store :class:`~repro.stream.resolver.StreamResolver` — by
construction, because shards and router execute the same extracted
phase functions (:meth:`~repro.stream.pairs.DeltaPairTable.weigh`, which
runs the registry scheme's batch array kernels over a candidate slice,
:func:`~repro.stream.resolver.prune_neighbourhood`, which applies the
registry pruner's node rule over the merged neighbourhood in ascending
entity-id order, and :func:`~repro.stream.resolver.run_match_phase`)
over replicas built from the same event sequence.  The merge order of
the per-partition answers therefore never reaches a result.

Failure is a first-class input: a :class:`~repro.serving.supervisor.
Supervisor` heartbeat-monitors the shards, retries timed-out requests
with exponential backoff + jitter, hedges slow requests after a
p99-derived delay, respawns dead shards (recovering their state from a
per-shard :class:`~repro.stream.durability.Durability` WAL when
configured, re-driving the missed event suffix either way), and — when
a partition stays unreachable past the retry budget — degrades
gracefully: the router serves the partial merge tagged
``degraded=True`` with per-response coverage accounting instead of
failing the query.

The :mod:`~repro.serving.harness` module drives the tier with an
open-loop (constant-rate) load generator supporting ramp-up, a
declarative fault schedule (``kill:1@t=5``, ``stall:0@t=2:dur=0.8``,
``torn:1@spawn:budget=4096``) and per-period latency tables.
"""

from repro.serving.harness import (
    Fault,
    LoadReport,
    parse_fault,
    run_open_loop,
    spawn_budgets,
)
from repro.serving.local import LocalTier
from repro.serving.partition import owner_of, split_by_owner
from repro.serving.router import (
    RoutedQueryResult,
    Router,
    ServingStats,
    VerificationReport,
    verify_equivalence,
)
from repro.serving.shard import ShardConfig, ShardHandle
from repro.serving.supervisor import (
    DEAD,
    LIVE,
    RECOVERING,
    HedgePolicy,
    RetryPolicy,
    Supervisor,
)

__all__ = [
    "DEAD",
    "Fault",
    "HedgePolicy",
    "LIVE",
    "LoadReport",
    "LocalTier",
    "RECOVERING",
    "RetryPolicy",
    "RoutedQueryResult",
    "Router",
    "ServingStats",
    "ShardConfig",
    "ShardHandle",
    "Supervisor",
    "VerificationReport",
    "owner_of",
    "parse_fault",
    "run_open_loop",
    "spawn_budgets",
    "split_by_owner",
    "verify_equivalence",
]
