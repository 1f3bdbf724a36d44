"""The progressive resolution engine: schedule → match → update, on budget.

:class:`ProgressiveER` wires the scheduler, a pairwise matcher, the benefit
model, the (optional) update-phase propagator and the cost budget into the
pay-as-you-go loop the poster's Figure 1 depicts.  Ground truth, when
supplied, is used for instrumentation only (the recall series of the
progressive curve); resolution decisions never see it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_
from typing import Sequence

from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.core.budget import CostBudget
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.evaluation.progressive import ProgressiveCurve
from repro.matching.matcher import Matcher, MatchGraph
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection, adjacency
from repro.model.description import EntityDescription
from repro.model.interner import PAIR_MASK, PAIR_SHIFT, EntityInterner, pack_pair


_NO_LINKS: tuple[tuple[int, ...], ...] = ((), (), ())


class _Links(dict):
    """id → (out-, in-, out-then-in neighbour ids); reading a missing id
    derives it through the context, held weakly: the context holds the
    map, and a cycle would keep both (and the collections) alive until
    the cyclic collector runs."""

    def __init__(self, context: "ResolutionContext") -> None:
        super().__init__()
        self.context = weakref.ref(context)

    def __missing__(self, entity_id: int) -> tuple[tuple[int, ...], ...]:
        return self.context()._link(entity_id)


class ResolutionContext:
    """What matchers, benefit models and the update phase may look at.

    Bundles the input collections (for profile shapes and the relationship
    graph) with the evolving match graph, in one id space: every URI the
    collections describe is interned once, first collection wins, in
    collection order — the rows :class:`~repro.matching.similarity.
    SimilarityIndex` builds over the same collections.  Per id the context
    holds the home collection, the source tag and, in :attr:`links`, the
    out-, in- and out-then-in neighbours as tuples of ids: the first read
    of an id homed in a collection derives every id homed there from one
    id pass over the collection's :meth:`~repro.model.collection.
    EntityCollection.references`, memoised (so the collections must not
    change during resolution).  The progressive loop speaks ids only; the
    URI methods are the boundary and read the collections live.

    Args:
        collections: the input KBs.
        interner: the id space to adopt (default: a new one).
    """

    def __init__(
        self,
        collections: list[EntityCollection],
        interner: EntityInterner | None = None,
    ) -> None:
        if not collections:
            raise ValueError("at least one collection is required")
        self.collections = collections
        self.interner = interner if interner is not None else EntityInterner()
        #: id → URI (the interner's live table)
        self.uris = self.interner.uri_table()
        self.match_graph = MatchGraph(self.interner)
        self._home: dict[int, EntityCollection] = {}
        self._source: dict[int, str] = {}
        #: id → (out-, in-, out-then-in neighbour ids), derived on a miss
        self.links = _Links(self)
        intern = self.interner.intern
        for collection in collections:
            for description in collection:
                self._adopt(intern(description.uri), description.source, collection)

    def _adopt(self, entity_id: int, source: str, collection: EntityCollection) -> None:
        """Record *collection* as the home of an id seen for the first time."""
        if entity_id not in self._home:
            self._home[entity_id] = collection
            self._source[entity_id] = source

    # -- ids -------------------------------------------------------------------

    def key(self, uri_a: str, uri_b: str) -> int:
        """Packed id pair of two URIs, interning unseen ones.

        Raises:
            ValueError: for a self-comparison.
        """
        if uri_a == uri_b:
            raise ValueError(f"self-comparison: {uri_a!r}")
        intern = self.interner.intern
        return pack_pair(intern(uri_a), intern(uri_b))

    def key_of(self, uri_a: str, uri_b: str) -> int | None:
        """Packed id pair of two URIs, or None when either is unknown."""
        get = self.interner.get
        id_a, id_b = get(uri_a), get(uri_b)
        if id_a < 0 or id_b < 0 or id_a == id_b:
            return None
        return pack_pair(id_a, id_b)

    def oriented(self, key: int) -> tuple[int, int]:
        """The ids of a packed pair in URI order: the orientation every
        pair is scored and reported in."""
        a, b = key >> PAIR_SHIFT, key & PAIR_MASK
        uris = self.uris
        return (a, b) if uris[a] < uris[b] else (b, a)

    def description_of_id(self, entity_id: int) -> EntityDescription | None:
        """The description of *entity_id*, or None if unknown."""
        return self.description(self.uris[entity_id]) if entity_id >= 0 else None

    def same_source_ids(self, a: int, b: int) -> bool:
        """True if both descriptions come from the same KB (clean-clean
        guard); unknown ids are never considered same-source."""
        source = self._source.get(a)
        return bool(source) and source == self._source.get(b)

    def neighbor_ids(self, entity_id: int) -> tuple[int, ...]:
        """Out-neighbours of *entity_id* in its home collection."""
        return self.links[entity_id][0]

    def inverse_neighbor_ids(self, entity_id: int) -> tuple[int, ...]:
        """In-neighbours of *entity_id* in its home collection."""
        return self.links[entity_id][1]

    def neighborhood_ids(self, entity_id: int) -> tuple[int, ...]:
        """Out- then in-neighbours of *entity_id*, deduplicated."""
        return self.links[entity_id][2]

    def _link(self, entity_id: int) -> tuple[tuple[int, ...], ...]:
        """Derive the links of every id homed where *entity_id* is, from
        one id pass over that collection's reference columns."""
        collection = self._home.get(entity_id)
        if collection is None:
            return _NO_LINKS
        home, links = self._home, self.links
        out, inverse = adjacency(*map(self.interner.ids_of, collection.references()))
        ids = self.interner.ids_of(collection.uris())
        homed = compress(ids, map(is_, map(home.get, ids), repeat(collection)))
        links.update(dict.fromkeys(homed, _NO_LINKS))  # most ids have no links
        for i in out.keys() | inverse.keys():
            if home.get(i) is collection:
                ids_out, ids_in = tuple(out.get(i, ())), tuple(inverse.get(i, ()))
                # neighbourhood(ids_out, ids_in), inlined
                links[i] = ids_out, ids_in, tuple(dict.fromkeys(ids_out + ids_in))
        return links.get(entity_id, _NO_LINKS)

    def vicinity_ids(self, a: int, b: int) -> set[int]:
        """Both ids and their neighbourhoods — every description whose
        queued comparisons a match of the pair touches."""
        links = self.links
        return {a, b, *links[a][2], *links[b][2]}

    def has_shared_descriptions(self) -> bool:
        """True when some URI is described by more than one collection.

        Such a URI is a neighbour of descriptions in every collection
        holding it but lists only its home collection's neighbours, so
        neighbourhoods are then not symmetric.
        """
        return len(self._home) < sum(len(c) for c in self.collections)

    # -- URIs ------------------------------------------------------------------

    def _from_home(self, uri: str, read, default=()):
        home = self._home.get(self.interner.get(uri))
        return read(home, uri) if home is not None else default

    def description(self, uri: str) -> EntityDescription | None:
        """The description with *uri*, or None if unknown."""
        return self._from_home(uri, EntityCollection.get, None)

    def source_of(self, uri: str) -> str:
        """Source tag of the description (empty for unknown URIs)."""
        return self._source.get(self.interner.get(uri), "")

    def same_source(self, uri_a: str, uri_b: str) -> bool:
        """:meth:`same_source_ids` of two URIs."""
        return self.same_source_ids(self.interner.get(uri_a), self.interner.get(uri_b))

    def neighbors(self, uri: str) -> list[str]:
        """Out-neighbours of *uri* in its home collection."""
        return self._from_home(uri, EntityCollection.neighbors, [])

    def inverse_neighbors(self, uri: str) -> list[str]:
        """In-neighbours of *uri* in its home collection."""
        return self._from_home(uri, EntityCollection.inverse_neighbors, [])

    def neighborhood(self, uri: str) -> Sequence[str]:
        """Out- then in-neighbours of *uri*, deduplicated: the collection's
        memoised :meth:`~repro.model.collection.EntityCollection.all_neighbors`
        (read-only; empty for unknown URIs)."""
        return self._from_home(uri, EntityCollection.all_neighbors)


@dataclass
class ProgressiveResult:
    """Outcome of one progressive run."""

    match_graph: MatchGraph
    curve: ProgressiveCurve
    budget: CostBudget
    benefit_total: float = 0.0
    skipped_decided: int = 0
    discovered_pairs: int = 0
    #: matched pairs found only via update-phase discovery (not blocked)
    discovered_matches: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def comparisons_executed(self) -> int:
        """Comparisons actually run."""
        return self.budget.comparisons_executed

    def matched_pairs(self) -> set[tuple[str, str]]:
        """Canonical pairs decided as matches."""
        return self.match_graph.matched_pairs()


class ProgressiveER:
    """The MinoanER progressive matching loop.

    Args:
        matcher: pairwise match decider (the expensive operation).
        budget: cost budget; consumed copy is returned in the result.
        benefit: benefit model targeted by scheduling (default: quantity,
            the [1] baseline — pass a quality-aware model for MinoanER's
            behaviour).
        updater: neighbour-evidence propagator; ``None`` disables the
            update phase (static scheduling).
        checkpoint_every: progressive-curve sampling period, in
            comparisons.
        refresh_estimates: after each confirmed match, re-estimate the
            queued pairs touching the descriptions the benefit model
            declares stale (:meth:`~repro.core.benefit.BenefitModel.stale_after`),
            so state-dependent benefit estimates (coverage, relationship
            completeness) stay current.  Charged to the budget as one
            scheduling operation per queued pair touching the matched
            descriptions or their neighbours.
    """

    def __init__(
        self,
        matcher: Matcher,
        budget: CostBudget | None = None,
        benefit: BenefitModel | None = None,
        updater: NeighborEvidencePropagator | None = None,
        checkpoint_every: int = 10,
        refresh_estimates: bool = True,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.matcher = matcher
        self.budget = budget or CostBudget()
        self.benefit = benefit or QuantityBenefit()
        self.updater = updater
        self.checkpoint_every = checkpoint_every
        self.refresh_estimates = refresh_estimates

    def run(
        self,
        edges: list[WeightedEdge],
        collections: list[EntityCollection],
        gold: GoldStandard | None = None,
        label: str | None = None,
    ) -> ProgressiveResult:
        """Resolve progressively over the candidate *edges*.

        Args:
            edges: weighted comparisons surviving meta-blocking.
            collections: the input KBs (context for benefits/updates).
            gold: optional ground truth — instrumentation only.
            label: curve label (defaults to the benefit model's name).

        Returns:
            The :class:`ProgressiveResult` with the consumed budget, the
            match graph and the progressive curve.
        """
        session = self.session(edges, collections, gold=gold, label=label)
        return session.advance(self.budget.max_cost)

    def session(
        self,
        edges: list[WeightedEdge],
        collections: list[EntityCollection],
        gold: GoldStandard | None = None,
        label: str | None = None,
    ):
        """Create a resumable :class:`~repro.core.session.ProgressiveSession`
        with this engine's configuration (budget instalments are granted by
        the caller via ``advance``)."""
        from repro.core.session import ProgressiveSession

        return ProgressiveSession(
            matcher=self.matcher,
            edges=edges,
            collections=collections,
            benefit=self.benefit,
            updater=self.updater,
            gold=gold,
            label=label,
            checkpoint_every=self.checkpoint_every,
            scheduling_cost_weight=self.budget.scheduling_cost_weight,
            refresh_estimates=self.refresh_estimates,
        )
