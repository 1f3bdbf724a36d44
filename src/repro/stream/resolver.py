"""Query-time entity resolution against the live streaming state.

:class:`StreamResolver` is the serving layer: descriptions arrive (one
at a time or in micro-batches) and queries resolve an incoming
description against everything ingested so far — candidate generation
from the incremental block index, meta-blocking weights from the delta
pair table under the batch weighting scheme, node-centric pruning under
the batch pruner's rule, prioritization through the existing
:class:`~repro.core.scheduler.ComparisonScheduler`, and decisions from
the existing :class:`~repro.matching.matcher.ThresholdMatcher` over the
streaming similarity index.  Every query returns per-phase latency so
the workload driver can report where time goes.

The resolver also exposes the batch bridge: :meth:`graph` /
:meth:`pruned_edges` run the standard meta-blocking machinery over a
snapshot of the streamed state, producing results bit-identical to the
batch pipeline on the same corpus.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.blocking.base import Blocker
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.matching.matcher import MatchGraph, Matcher, ThresholdMatcher
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.pruning import CEP, CNP, WEP, WNP, PruningScheme, node_budget
from repro.metablocking.weighting import WeightingScheme
from repro.model.collection import neighbourhood
from repro.model.description import EntityDescription
from repro.model.interner import pack_pair
from repro.obs import DISABLED, Observability
from repro.stream.durability import (
    Durability,
    OsFiles,
    RecoveryReport,
    recover as recover_state,
)
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.processed_view import IncrementalProcessedView
from repro.stream.similarity import StreamingSimilarityIndex
from repro.stream.store import StreamingEntityStore


@dataclass(frozen=True)
class StreamMatch:
    """One positive decision returned by a query."""

    uri: str
    similarity: float
    weight: float


# ---------------------------------------------------------------------------
# The three query phases, as reusable functions.
#
# The sharded serving tier (:mod:`repro.serving`) executes the same
# query pipeline with the phases split across processes: shards weigh
# their owned candidates (:meth:`~repro.stream.pairs.DeltaPairTable.weigh`),
# the router prunes the merged neighbourhood and runs the match phase.
# Sharing these functions — not copies of them — is what makes the
# merged results bit-identical to this resolver by construction.
# ---------------------------------------------------------------------------


def query_components(
    scheme: str, pruner: str
) -> tuple[WeightingScheme, PruningScheme | None]:
    """Resolve a query's scheme and pruner names through the registry.

    Called before a query touches state: without it a bad name would
    only surface once a candidate exists to be weighed or pruned, so
    the same call would succeed on an empty store and fail on a full
    one.  ``"none"`` (any case) keeps every candidate and resolves to
    ``None``.

    Raises:
        KeyError: for an unregistered name, naming the registered
            ones, or a pruner with no node-centric rule.
    """
    from repro.api.registry import registry

    weighting = registry.create("weighting", scheme)
    if pruner.lower() == "none":
        return weighting, None
    pruning = registry.create("pruner", pruner)
    if not isinstance(pruning, (WNP, WEP, CNP, CEP)):
        raise KeyError(f"pruner {pruner!r} has no node-centric query rule")
    return weighting, pruning


def prune_neighbourhood(
    weights: dict[int, float],
    pruning: PruningScheme | None,
    uris: list[str],
    entities_placed: int,
    total_assignments: int,
) -> list[tuple[int, float]]:
    """Node-centric pruning of one query neighbourhood.

    The batch pruner's node rule applied to the query's star: the WNP
    family (and WEP) keeps the candidates at or above the neighbourhood
    mean, the CNP family (and CEP) the top ``k`` —
    :func:`~repro.metablocking.pruning.node_budget` of the pair table's
    placement aggregates, as batch CNP derives it from the processed
    collection — and ``None`` keeps every candidate.  The neighbourhood
    is folded in ascending entity-id order, so the mean does not depend
    on the order *weights* was filled in.  Survivors come weight
    descending, partner URI ascending — the batch pruners' order.
    """
    if not weights:
        return []

    def rank(item):
        return -item[1], uris[item[0]]

    items = weights.items()
    if isinstance(pruning, (CNP, CEP)):
        k = node_budget(total_assignments, entities_placed)
        return heapq.nsmallest(k, items, key=rank)
    if pruning is not None:
        mean = sum(weights[partner] for partner in sorted(weights)) / len(weights)
        items = [item for item in items if item[1] >= mean]
    return sorted(items, key=rank)


def run_match_phase(
    uri_q: str,
    survivors: list[tuple[int, float]],
    weights: dict[int, float],
    budget: int | None,
    context: ResolutionContext,
    matcher: Matcher,
    benefit: BenefitModel,
) -> tuple[list[StreamMatch], int, int, int]:
    """Schedule, compare and decide the pruned survivors.

    Candidate ids are *context*'s: a stream context adopts its store's
    interner.  Returns ``(matches, scheduled, comparisons,
    skipped_decided)`` — exactly the match section of a single-store
    :meth:`StreamResolver.resolve`, operating on whichever *context* and
    *matcher* the caller serves decisions from.
    """
    query = context.interner.get(uri_q)
    scheduler = ComparisonScheduler(benefit, context)
    scheduler.add_keys(
        [pack_pair(query, candidate) for candidate, _ in survivors],
        [weight for _, weight in survivors],
    )
    scheduled = len(scheduler)
    limit = len(scheduler) if budget is None else max(budget, 0)
    graph = context.match_graph
    ordered: list[tuple[int, int]] = []
    skipped = 0
    while scheduler and len(ordered) < limit:
        key, _priority = scheduler.pop_key()
        if key in graph.rows:
            skipped += 1
            continue
        ordered.append(context.oriented(key))
    # Every pair is decided before any is recorded, as one batch.
    decisions = [matcher.decide_ids(a, b) for a, b in ordered]
    uris = context.uris
    matches: list[StreamMatch] = []
    for (a, b), (score, is_match) in zip(ordered, decisions):
        graph.record_ids(a, b, score, is_match)
        if is_match:
            other = b if a == query else a
            matches.append(StreamMatch(uris[other], score, weights[other]))
    # Matches decided by earlier queries are still matches: a repeat
    # lookup must report them, not silently skip them as "already
    # decided".  They follow the fresh decisions, sorted by URI.
    fresh = {b if a == query else a for a, b in ordered}
    earlier = graph.partner_ids.get(query, set()) - fresh
    for partner in sorted(earlier, key=uris.__getitem__):
        score = graph.score[graph.rows[pack_pair(query, partner)]]
        matches.append(StreamMatch(uris[partner], score, weights.get(partner, 0.0)))
    return matches, scheduled, len(ordered), skipped


@dataclass
class StreamQueryResult:
    """Outcome of resolving one description, with latency accounting."""

    uri: str
    matches: list[StreamMatch]
    candidates: int
    scheduled: int
    comparisons: int
    skipped_decided: int
    #: per-phase wall-clock seconds: ingest/candidates/weigh/match/total
    latency: dict[str, float] = field(default_factory=dict)

    def matched_uris(self) -> list[str]:
        """URIs decided as matches, best first."""
        return [match.uri for match in self.matches]


class _StreamContext(ResolutionContext):
    """A resolution context over a live store, in the store's id space.

    It follows inserts and deletes: a retracted URI is forgotten — its
    home, source tag and match decisions — and re-homed by its next
    insert, in whichever source; every mutation drops the derived links.
    """

    def __init__(self, store: StreamingEntityStore) -> None:
        super().__init__(store.collections, store.interner)
        store.subscribe(self._register)
        store.subscribe_delete(self._forget)

    def _register(self, description, source, entity_id, was_present) -> None:
        self._adopt(entity_id, description.source, self.collections[source])
        self.links.clear()

    def _forget(self, uri, source, entity_id) -> None:
        # A delete retracts the URI from every source holding it (one
        # notification per source), so no holder is left to stay home.
        self._home.pop(entity_id, None)
        self._source.pop(entity_id, None)
        self.match_graph.forget(entity_id)
        self.links.clear()

    def _link(self, entity_id: int) -> tuple[tuple[int, ...], ...]:
        # Every event drops the links, so a pass over the whole collection
        # would be redone per event: derive the one id read, from its
        # home's URI graph.
        collection = self._home.get(entity_id)
        if collection is None:
            return ((), (), ())
        uri, ids_of = self.uris[entity_id], self.interner.ids_of
        out, inverse = collection.graph()
        ids_out, ids_in = tuple(ids_of(out.get(uri, ()))), tuple(ids_of(inverse.get(uri, ())))
        links = self.links[entity_id] = ids_out, ids_in, neighbourhood(ids_out, ids_in)
        return links


class StreamResolver:
    """Streaming ER façade: ingest + query over one live store.

    Args:
        store: existing store to serve, or None to create one
            (*clean_clean* picks one or two sources then).
        blocker: key extractor for the incremental index.
        clean_clean: with no *store*, build a two-source store.
        threshold: match threshold of the default cosine matcher.
        matcher: override the decision matcher (must handle the
            streaming similarity index's URIs).
        benefit: scheduler benefit model (default: quantity).
        processed_view: serve candidates and weights from an
            :class:`~repro.stream.processed_view.IncrementalProcessedView`
            — the incrementally-maintained purge/filter survivors —
            instead of the raw index.  Queries auto-reconcile the view when its
            staleness bound is reached, with the reconcile time reported
            separately from serve time in the latency split.  The
            resolver maintains the one statistics table its queries
            read: ``view_pairs`` under a view (``pairs`` is None), the
            raw ``pairs`` without one (``view_pairs`` is None).
        purging / filtering: the processed view's operators (defaults
            match the batch pipeline).
        reconcile_every: the view's reconcile cadence in inserts
            (None = adaptive; see ``IncrementalProcessedView``).
        durability: crash safety — a
            :class:`~repro.stream.durability.Durability` controller, or
            a directory path (a default controller is created there).
            Every insert/delete is then write-ahead logged before it is
            applied, and :meth:`recover` can rebuild this resolver's
            state after a crash.
        obs: an :class:`~repro.obs.Observability` handle — every
            insert/delete/query then emits spans (queries one child
            span per phase) and per-phase latency histograms, and the
            handle is propagated into the processed view and the
            durability layer.  Default: the disabled no-op handle.
    """

    def __init__(
        self,
        store: StreamingEntityStore | None = None,
        blocker: Blocker | None = None,
        clean_clean: bool = False,
        threshold: float = 0.4,
        matcher: Matcher | None = None,
        benefit: BenefitModel | None = None,
        processed_view: bool = False,
        purging: BlockPurging | None = None,
        filtering: BlockFiltering | None = None,
        reconcile_every: int | None = None,
        durability: Durability | str | None = None,
        obs: Observability | None = None,
        _components: tuple | None = None,
    ) -> None:
        self.obs = obs if obs is not None else DISABLED
        if store is None:
            sources = ("kb1", "kb2") if clean_clean else ("stream",)
            store = StreamingEntityStore(sources=sources)
        self.store = store
        if _components is not None:
            # Recovery path: the derived structures were rebuilt (and
            # already subscribed to the store) by the durability layer.
            self.index, self.pairs, self.view, self.view_pairs = _components
            if self.view is not None:
                self.view.obs = self.obs
        else:
            self.index = IncrementalBlockIndex(store, blocker)
            self.pairs = self.view = self.view_pairs = None
            if processed_view:
                self.view = IncrementalProcessedView(
                    self.index, purging, filtering, reconcile_every=reconcile_every
                )
                self.view.obs = self.obs
                self.view_pairs = DeltaPairTable(self.view)
            else:
                self.pairs = DeltaPairTable(self.index)
            # A pre-populated store is replayed into every derived
            # structure (after the pair table and view attached, so no
            # delta is lost); on an empty store these are no-ops.
            self.index.replay_store()
        #: the statistics table queries weigh and prune against
        self._query_table = self.pairs if self.view is None else self.view_pairs
        self.similarity = StreamingSimilarityIndex(store)
        self.context = _StreamContext(store)
        self.matcher = matcher or ThresholdMatcher(
            self.similarity, threshold=threshold, measure="cosine"
        )
        self.matcher.attach(self.context)
        self.benefit = benefit or QuantityBenefit()
        #: how the state was rebuilt, when this resolver came from
        #: :meth:`recover` (None for a fresh resolver)
        self.recovery: RecoveryReport | None = None
        self.durability: Durability | None = None
        if durability is not None:
            if isinstance(durability, str):
                durability = Durability(durability)
            durability.obs = self.obs
            durability.bind(
                store, self.index, self.pairs, self.view, self.view_pairs
            )
            self.durability = durability

    # -- ingestion -----------------------------------------------------------

    def ingest(self, description: EntityDescription, source: int = 0) -> int:
        """Ingest one description; returns its entity id."""
        if not self.obs.enabled:
            return self.store.insert(description, source)
        with self.obs.span("stream.insert", source=source) as span:
            entity_id = self.store.insert(description, source)
            span.set(entity_id=entity_id)
        return entity_id

    def ingest_batch(self, descriptions, source: int = 0) -> list[int]:
        """Ingest a micro-batch of descriptions."""
        if not self.obs.enabled:
            return self.store.insert_batch(descriptions, source)
        with self.obs.span("stream.insert_batch", source=source) as span:
            ids = self.store.insert_batch(descriptions, source)
            span.set(count=len(ids))
        return ids

    def delete(self, uri: str) -> bool:
        """Retract *uri* from the live corpus; True when it was held.

        The retraction flows through the whole delta chain — posting
        lists, pair statistics, similarity state and (when active) the
        processed view's survivors — so subsequent queries neither see
        the entity as a candidate nor weigh against its blocks.  Match
        decisions recorded against it are dropped: a re-inserted URI is
        compared afresh.
        """
        if not self.obs.enabled:
            return self.store.delete(uri)
        with self.obs.span("stream.delete") as span:
            present = self.store.delete(uri)
            span.set(present=present)
        return present

    @property
    def match_graph(self) -> MatchGraph:
        """Decisions accumulated across every query on this resolver."""
        return self.context.match_graph

    # -- query-time resolution -----------------------------------------------

    def resolve(
        self,
        description: EntityDescription,
        source: int = 0,
        scheme: str = "ARCS",
        pruner: str = "CNP",
        budget: int | None = None,
        ingest: bool = True,
    ) -> StreamQueryResult:
        """Resolve one incoming description against the ingested corpus.

        Args:
            description: the incoming entity.
            source: its KB ordinal (clean-clean stores compare only
                across sources).
            scheme: registered weighting scheme scoring the candidate
                pairs.
            pruner: local pruning of the candidate neighbourhood — a
                registered pruner (the CNP family and CEP keep the
                top-k, k derived like batch CNP; the WNP family and WEP
                the candidates at or above the neighbourhood mean) or
                ``"none"``.
            budget: cap on comparisons actually executed (None: all
                survivors).
            ingest: insert the description first (the default); with
                ``False`` the description must already be in the store.

        Returns:
            The query result with matches (weight-ordered execution,
            similarity recorded) and per-phase latency.

        Raises:
            KeyError: for an unknown *scheme* or *pruner*, before the
                description is ingested.
        """
        with self.obs.span("stream.query", source=source) as query_span:
            result = self._resolve(
                description, source, scheme, pruner, budget, ingest
            )
            query_span.set(
                candidates=result.candidates,
                comparisons=result.comparisons,
                matches=len(result.matches),
            )
        return result

    def _resolve(
        self,
        description: EntityDescription,
        source: int,
        scheme: str,
        pruner: str,
        budget: int | None,
        ingest: bool,
    ) -> StreamQueryResult:
        weighting, pruning = query_components(scheme, pruner)
        obs = self.obs
        t_total = time.perf_counter()
        latency: dict[str, float] = {}

        with obs.timed(
            "stream.query.ingest", metric="repro.stream.query.ingest.seconds"
        ) as timer:
            if ingest:
                entity_id = self.store.insert(description, source)
            else:
                entity_id = self.store.interner.id_of(description.uri)
        latency["ingest_s"] = timer.duration_s

        # Reconcile-vs-serve split: the view's periodic exact repair is
        # accounted separately, so the workload driver can report where
        # processed-view time goes (amortized repair vs per-query serve).
        latency["reconcile_s"] = 0.0
        if self.view is not None and self.view.due:
            with obs.span("stream.query.reconcile") as timer:
                if self.durability is not None:
                    self.durability.log_reconcile()
                self.view.reconcile()
                if self.durability is not None:
                    self.durability.maybe_snapshot()
            latency["reconcile_s"] = timer.duration_s

        # Candidates, weights and the CNP budget all come from the one
        # table queries read: under a view, the survivors' — matching
        # batch CNP, whose k comes from the processed collection.
        table = self._query_table
        with obs.timed(
            "stream.query.candidates",
            metric="repro.stream.query.candidates.seconds",
        ) as timer:
            candidate_ids = table.source.neighbours_of(entity_id)
        latency["candidates_s"] = timer.duration_s

        uri_q = description.uri

        with obs.timed(
            "stream.query.weigh", metric="repro.stream.query.weigh.seconds"
        ) as timer:
            weights = table.weigh(weighting, entity_id, candidate_ids)
            survivors = prune_neighbourhood(
                weights,
                pruning,
                self.store.interner.uri_table(),
                table.entities_placed,
                table.total_assignments,
            )
        latency["weigh_s"] = timer.duration_s

        with obs.timed(
            "stream.query.match", metric="repro.stream.query.match.seconds"
        ) as timer:
            matches, scheduled, comparisons, skipped = run_match_phase(
                uri_q,
                survivors,
                weights,
                budget,
                self.context,
                self.matcher,
                self.benefit,
            )
        latency["match_s"] = timer.duration_s
        latency["total_s"] = time.perf_counter() - t_total
        latency["serve_s"] = latency["total_s"] - latency["reconcile_s"]

        return StreamQueryResult(
            uri=uri_q,
            matches=matches,
            candidates=len(candidate_ids),
            scheduled=scheduled,
            comparisons=comparisons,
            skipped_decided=skipped,
            latency=latency,
        )

    # -- durability ----------------------------------------------------------

    def close(self) -> None:
        """Sync and close the attached durability controller, if any.

        The clean-shutdown path: after this, :meth:`recover` rebuilds
        the exact current state with zero lost events.
        """
        if self.durability is not None:
            self.durability.close()

    @classmethod
    def recover(
        cls,
        directory: str,
        blocker: Blocker | None = None,
        files: OsFiles | None = None,
        from_scratch: bool = False,
        resume: bool = False,
        fsync_every: int = 1,
        snapshot_every: int | None = None,
        **serving_kwargs,
    ) -> "StreamResolver":
        """Rebuild a resolver from a durability directory after a crash.

        Restores the newest valid snapshot and replays the WAL suffix
        (see :func:`repro.stream.durability.recover`), then wires the
        serving layer — similarity, context, matcher — from the live
        store, which rebuilds them to scores identical to the
        uninterrupted run.  The match-decision graph is *not* recovered
        (a documented limitation: decisions are serving artifacts, not
        store state).

        Args:
            directory: the durability directory of the crashed run.
            blocker: must match the original run's blocker (key
                extraction is not serialized).
            files: file layer override (fault-injection seam).
            from_scratch: ignore snapshots; replay the whole WAL.
            resume: re-attach a durability controller on the same
                directory so the recovered resolver keeps logging where
                the crashed process stopped.
            fsync_every / snapshot_every: the resumed controller's knobs
                (ignored without *resume*).
            serving_kwargs: forwarded to the constructor (threshold,
                matcher, benefit, ...).

        Raises:
            FileNotFoundError: when the directory has no usable WAL.
        """
        result = recover_state(
            directory,
            blocker=blocker,
            files=files,
            from_scratch=from_scratch,
            obs=serving_kwargs.get("obs"),
        )
        controller = None
        if resume:
            controller = Durability(
                directory,
                fsync_every=fsync_every,
                snapshot_every=snapshot_every,
                files=files,
            )
        resolver = cls(
            store=result.store,
            blocker=blocker,
            durability=controller,
            _components=(
                result.index,
                result.pairs,
                result.view,
                result.view_pairs,
            ),
            **serving_kwargs,
        )
        resolver.recovery = result.report
        return resolver

    # -- the batch bridge ----------------------------------------------------

    def graph(
        self,
        scheme: str = "ARCS",
        processed: bool = True,
        purging: BlockPurging | None = None,
        filtering: BlockFiltering | None = None,
    ) -> BlockingGraph:
        """Standard blocking graph over the streamed state.

        Built from the (processed) snapshot, so weights, pair table and
        anything derived are bit-identical to the batch pipeline over
        the same corpus.  *scheme* is a registered weighting name
        (case-insensitive; unknown names raise a ``KeyError``).
        """
        from repro.api.registry import registry

        blocks = (
            self.index.snapshot_processed(purging, filtering)
            if processed
            else self.index.snapshot()
        )
        return BlockingGraph(blocks, registry.create("weighting", scheme))

    def pruned_edges(
        self, scheme: str = "ARCS", pruner: str = "CNP", processed: bool = True
    ) -> list[WeightedEdge]:
        """Batch-identical pruned edge list over the streamed state."""
        from repro.api.registry import registry

        pruning = registry.create("pruner", pruner)
        return pruning.prune(self.graph(scheme, processed=processed))
