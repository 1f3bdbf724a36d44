"""An in-process model of the sharded tier (no processes, no queues).

:class:`LocalTier` performs the router's query plan — split the
candidate neighbourhood by partition owner, weigh the live partitions'
candidates (together: one pass over the query's star, where the router
merges one weight map per shard), prune, match — over a single
in-process replica.  Because every real shard replicates the same
state, one replica models them all; what is left to test is the
*plan*: that it is bit-identical to the single-store resolver for any
shard count, any merge interleaving, and any subset of partitions
marked down (degraded coverage accounting).

That makes this the property-test surface: hypothesis can drive shard
counts, interleavings and failure subsets through thousands of cases in
seconds, which the multiprocessing tier could never afford.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from repro.blocking.base import Blocker
from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.matching.matcher import ThresholdMatcher
from repro.model.description import EntityDescription
from repro.serving.partition import split_by_owner
from repro.serving.router import RoutedQueryResult
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.resolver import (
    _StreamContext,
    prune_neighbourhood,
    query_components,
    run_match_phase,
)
from repro.stream.similarity import StreamingSimilarityIndex
from repro.stream.store import StreamingEntityStore


class LocalTier:
    """The tier's merge semantics without the process machinery.

    Args:
        n_partitions: how many ways the candidate space is split.
        down: mutable set of partitions currently "unreachable" — their
            candidates are dropped from the merge and the result is
            tagged degraded, mirroring the router's no-failover path.
    """

    def __init__(
        self,
        n_partitions: int,
        clean_clean: bool = True,
        blocker: Blocker | None = None,
        threshold: float = 0.4,
        benefit: BenefitModel | None = None,
        scheme: str = "ARCS",
        pruner: str = "CNP",
        budget: int | None = None,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.n_partitions = n_partitions
        self.scheme = scheme
        self.pruner = pruner
        self.budget = budget
        sources = ("kb1", "kb2") if clean_clean else ("stream",)
        self.store = StreamingEntityStore(sources=sources)
        self.index = IncrementalBlockIndex(self.store, blocker)
        self.pairs = DeltaPairTable(self.index)
        self.context = _StreamContext(self.store)
        self.matcher = ThresholdMatcher(
            StreamingSimilarityIndex(self.store),
            threshold=threshold,
            measure="cosine",
        )
        self.matcher.attach(self.context)
        self.benefit = benefit or QuantityBenefit()
        self.down: set[int] = set()

    def ingest(self, description: EntityDescription, source: int = 0) -> int:
        return self.store.insert(description, source)

    def delete(self, uri: str) -> bool:
        return self.store.delete(uri)

    def resolve(
        self,
        description: EntityDescription,
        source: int = 0,
        scheme: str | None = None,
        pruner: str | None = None,
        budget: int | None = None,
        ingest: bool = True,
        order: Sequence[int] | None = None,
    ) -> RoutedQueryResult:
        """Resolve through the partition-split-and-merge plan.

        ``order`` is the merge interleaving — the sequence in which the
        per-partition candidates are gathered for the one weighing of the
        live partitions (default: partition order).  Results must not
        depend on it; the property tests drive random permutations to
        prove that.
        """
        scheme = scheme if scheme is not None else self.scheme
        pruner = pruner if pruner is not None else self.pruner
        budget = budget if budget is not None else self.budget
        weighting, pruning = query_components(scheme, pruner)
        if ingest:
            self.ingest(description, source)
        uri = description.uri
        entity_id = self.store.interner.get(uri, -1)
        candidates = (
            self.index.neighbours_of(entity_id) if entity_id >= 0 else []
        )
        split = split_by_owner(candidates, self.n_partitions)

        merge_order = list(order) if order is not None else list(range(self.n_partitions))
        if sorted(merge_order) != list(range(self.n_partitions)):
            raise ValueError("order must be a permutation of the partitions")
        missing = {p for p in self.down if 0 <= p < self.n_partitions}
        live = (split[partition] for partition in merge_order if partition not in missing)
        weights = self.pairs.weigh(weighting, entity_id, chain.from_iterable(live))

        survivors = prune_neighbourhood(
            weights, pruning, self.store.interner.uri_table(),
            self.pairs.entities_placed, self.pairs.total_assignments,
        )
        matches, scheduled, comparisons, skipped = run_match_phase(
            uri, survivors, weights, budget, self.context, self.matcher, self.benefit
        )
        coverage = (self.n_partitions - len(missing)) / self.n_partitions
        return RoutedQueryResult(
            uri=uri,
            matches=matches,
            candidates=len(weights),
            scheduled=scheduled,
            comparisons=comparisons,
            skipped_decided=skipped,
            degraded=bool(missing),
            coverage=coverage,
            missing_partitions=tuple(sorted(missing)),
            weights=weights,
        )
