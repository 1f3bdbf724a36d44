"""The progressive resolution engine: schedule → match → update, on budget.

:class:`ProgressiveER` wires the scheduler, a pairwise matcher, the benefit
model, the (optional) update-phase propagator and the cost budget into the
pay-as-you-go loop the poster's Figure 1 depicts.  Ground truth, when
supplied, is used for instrumentation only (the recall series of the
progressive curve); resolution decisions never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.core.budget import CostBudget
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.evaluation.progressive import ProgressiveCurve
from repro.matching.matcher import Matcher, MatchGraph
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


class ResolutionContext:
    """What benefit models and the update phase may look at.

    Bundles the input collections (for profile shapes and the relationship
    graph) with the evolving match graph.  All lookups are by URI and work
    across any number of collections.
    """

    def __init__(self, collections: list[EntityCollection]) -> None:
        if not collections:
            raise ValueError("at least one collection is required")
        self.collections = collections
        self.match_graph = MatchGraph()
        self._home: dict[str, EntityCollection] = {}
        self._source: dict[str, str] = {}
        for collection in collections:
            for description in collection:
                self._adopt(description, collection)

    def _adopt(self, description: EntityDescription, collection: EntityCollection) -> None:
        """Record *collection* as the home of a URI seen for the first time."""
        if description.uri not in self._home:
            self._home[description.uri] = collection
            self._source[description.uri] = description.source

    def description(self, uri: str) -> EntityDescription | None:
        """The description with *uri*, or None if unknown."""
        home = self._home.get(uri)
        return home.get(uri) if home is not None else None

    def source_of(self, uri: str) -> str:
        """Source tag of the description (empty for unknown URIs)."""
        return self._source.get(uri, "")

    def same_source(self, uri_a: str, uri_b: str) -> bool:
        """True if both descriptions come from the same KB (clean-clean guard).

        Unknown URIs are never considered same-source.
        """
        source_a = self._source.get(uri_a)
        return bool(source_a) and source_a == self._source.get(uri_b)

    def neighbors(self, uri: str) -> list[str]:
        """Out-neighbours of *uri* in its home collection."""
        home = self._home.get(uri)
        return home.neighbors(uri) if home is not None else []

    def inverse_neighbors(self, uri: str) -> list[str]:
        """In-neighbours of *uri* in its home collection."""
        home = self._home.get(uri)
        return home.inverse_neighbors(uri) if home is not None else []

    def neighborhood(self, uri: str) -> Sequence[str]:
        """Out- then in-neighbours of *uri*, deduplicated: the collection's
        memoised :meth:`~repro.model.collection.EntityCollection.all_neighbors`
        (read-only; empty for unknown URIs)."""
        home = self._home.get(uri)
        return home.all_neighbors(uri) if home is not None else ()

    def vicinity(self, pair: tuple[str, str]) -> set[str]:
        """Both endpoints of *pair* and their neighbourhoods — every
        description whose queued comparisons a match of *pair* touches."""
        touched = set(pair)
        for uri in pair:
            touched.update(self.neighborhood(uri))
        return touched

    def has_shared_descriptions(self) -> bool:
        """True when some URI is described by more than one collection.

        Such a URI is a neighbour of descriptions in every collection
        holding it but lists only its home collection's neighbours, so
        neighbourhoods are then not symmetric.
        """
        return len(self._home) < sum(len(c) for c in self.collections)


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
