"""Benefit models: what a resolved pair is worth.

Existing progressive ER (Altowim et al. [1]) maximizes the **quantity** of
entity pairs resolved within the budget.  MinoanER's position is that
different data-quality goals value matches differently, and the scheduler
should target the chosen goal.  The paper names three quality dimensions,
implemented here alongside the quantity baseline:

* **attribute completeness** — "the number of descriptions resolved,
  corresponding to the same real-world entity": merging many complementary
  descriptions of one entity yields complete attribute profiles, so a
  match is worth the *new* attribute evidence it contributes to the
  merged profile;
* **entity coverage** — "the number of real-world entities resolved":
  every distinct entity with at least one resolved pair counts once, so a
  match touching two so-far-unresolved descriptions is worth more than
  one extending an already-resolved entity;
* **relationship completeness** — "the number of real-world entity graphs
  resolved": a match is worth the relationship edges it completes —
  neighbour pairs that are themselves resolved — so resolution
  concentrates on finishing connected groups rather than scattering.

Each model supplies three functions over ids of the resolution context:
:meth:`~BenefitModel.estimate`, a cheap pre-comparison proxy the scheduler
multiplies into comparison priorities; :meth:`~BenefitModel.realized_ids`,
the actual benefit recorded after a match is confirmed (used for the
benefit@budget curves of E6); and
:meth:`~BenefitModel.stale_after`, the descriptions whose queued pairs'
estimates a confirmed match can have changed — the update phase
re-estimates those and nothing else.  None touches the ground truth —
benefit is a property of the resolver's own progress.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ResolutionContext


class BenefitModel(ABC):
    """Values the outcome of comparisons under one quality goal."""

    #: name used in experiment tables and the registry
    name = "benefit"

    @abstractmethod
    def estimate(self, a: int, b: int, context: "ResolutionContext") -> float:
        """Cheap pre-comparison proxy of the marginal benefit of the pair
        of context ids *a*, *b* (symmetric in the two).

        Must be computable without executing the comparison (no similarity
        evaluation): only profile shapes, current match state and the
        relationship graph may be consulted.  Returned values should be
        positive and roughly in [0, 2] so that schemes are comparable.
        """

    @abstractmethod
    def realized_ids(self, a: int, b: int, context: "ResolutionContext") -> float:
        """Actual benefit of the confirmed match of ids *a* and *b*.

        Called *after* the match is recorded in the context's match graph.
        """

    def stale_after(self, a: int, b: int, context: "ResolutionContext") -> Iterable[int]:
        """Ids whose queued pairs the match of *a* and *b* may have re-valued.

        Called after a confirmed match is recorded; every queued pair
        touching a returned id is re-estimated.  The default is the
        conservative answer — both endpoints and their neighbourhoods,
        all an estimate may read of the match state — so a model that
        overrides nothing stays correct; override it to return less.
        """
        return context.vicinity_ids(a, b)


def _newly_resolved(a: int, b: int, context: "ResolutionContext") -> list[int]:
    """Endpoints of a recorded match that had no partner before it."""
    partners = context.match_graph.partner_ids
    return [x for x, other in ((a, b), (b, a)) if partners.get(x) == {other}]


class QuantityBenefit(BenefitModel):
    """The baseline of [1]: every resolved pair is worth exactly 1.

    Estimation is uniform, so scheduling degenerates to pure
    match-likelihood (edge weight) ordering — the behaviour progressive
    relational ER exhibits.
    """

    name = "quantity"

    def estimate(self, a: int, b: int, context: "ResolutionContext") -> float:
        return 1.0

    def realized_ids(self, a: int, b: int, context: "ResolutionContext") -> float:
        return 1.0

    def stale_after(self, a: int, b: int, context: "ResolutionContext") -> Iterable[int]:
        return ()  # the estimate is a constant


class AttributeCompletenessBenefit(BenefitModel):
    """Value = new attribute evidence added to the merged entity profile.

    Realized benefit of a match is the fraction of the smaller
    description's attribute-value pairs that were *not* already present in
    the other description — pure duplicates contribute nothing; richly
    complementary descriptions contribute up to 1.  The estimate is a
    **gentle tie-breaker** (range [0.75, 1.25]) combining two shape signals
    observable without comparing values: property-set complementarity (low
    overlap promises new properties) and profile-size imbalance (merging a
    sparse copy into a rich one enriches the sparse side most).  The tight
    range deliberately keeps match likelihood (the edge weight) dominant —
    a wide multiplier would steer the scheduler into low-evidence pairs
    and lose more attribute evidence to failed comparisons than it gains
    from better-targeted merges (measured in E6).
    """

    name = "attribute-completeness"

    def estimate(self, a: int, b: int, context: "ResolutionContext") -> float:
        desc_a = context.description_of_id(a)
        desc_b = context.description_of_id(b)
        if desc_a is None or desc_b is None:
            return 1.0
        props_a = set(desc_a.properties())
        props_b = set(desc_b.properties())
        if not props_a or not props_b:
            return 1.0
        union = len(props_a | props_b)
        complementarity = 1.0 - (len(props_a & props_b) / union if union else 0.0)
        size_a, size_b = len(desc_a), len(desc_b)
        imbalance = (
            abs(size_a - size_b) / max(size_a, size_b) if max(size_a, size_b) else 0.0
        )
        return 0.75 + 0.25 * complementarity + 0.25 * imbalance

    def realized_ids(self, a: int, b: int, context: "ResolutionContext") -> float:
        desc_a = context.description_of_id(a)
        desc_b = context.description_of_id(b)
        if desc_a is None or desc_b is None:
            return 0.0
        pairs_a = set(desc_a.pairs())
        pairs_b = set(desc_b.pairs())
        smaller = min(len(pairs_a), len(pairs_b))
        if smaller == 0:
            return 0.0
        new_evidence = len(pairs_b - pairs_a) + len(pairs_a - pairs_b)
        return min(1.0, new_evidence / (2 * smaller))

    def stale_after(self, a: int, b: int, context: "ResolutionContext") -> Iterable[int]:
        return ()  # the estimate reads profile shapes, never match state


class EntityCoverageBenefit(BenefitModel):
    """Value = resolving a real-world entity that had no resolved pair yet.

    A match between two unresolved descriptions covers one new entity
    (benefit 1); extending an already-resolved cluster adds coverage only
    marginally (benefit 0.1).  The estimate reads the current match state:
    pairs of still-unresolved descriptions are promising, pairs inside
    resolved neighbourhoods are not urgent.
    """

    name = "entity-coverage"

    #: residual value of enlarging an already-covered entity
    extension_value = 0.1

    def estimate(self, a: int, b: int, context: "ResolutionContext") -> float:
        partners = context.match_graph.partner_ids
        resolved_a = a in partners
        resolved_b = b in partners
        if not resolved_a and not resolved_b:
            return 1.0
        if resolved_a and resolved_b:
            return self.extension_value
        return 0.5

    def realized_ids(self, a: int, b: int, context: "ResolutionContext") -> float:
        partners = context.match_graph.partner_ids
        # The match is already recorded, so "new entity" means the two
        # endpoints have no *other* partners.
        if partners.get(a, set()) <= {b} and partners.get(b, set()) <= {a}:
            return 1.0
        return self.extension_value

    def stale_after(self, a: int, b: int, context: "ResolutionContext") -> Iterable[int]:
        return _newly_resolved(a, b, context)


class RelationshipCompletenessBenefit(BenefitModel):
    """Value = relationship edges completed between resolved entities.

    A relationship edge (a → b in some KB) is *completed* when both of its
    endpoints are resolved; completed edges stitch resolved entities into
    resolved **entity graphs**.  The realized benefit of a match is a base
    value plus one for every incident relationship edge it completes (both
    endpoints now resolved).  The estimate favours pairs adjacent to
    already-resolved neighbours — exactly the frontier that finishes
    partially resolved graphs.
    """

    name = "relationship-completeness"

    base_value = 0.25

    #: multiplier when both endpoints already belong to resolved entities —
    #: an intra-cluster extension completes no new relationship edges worth
    #: spending budget on while unresolved frontier pairs remain
    redundancy_discount = 0.1

    def estimate(self, a: int, b: int, context: "ResolutionContext") -> float:
        resolved = context.match_graph.partner_ids.__contains__
        if resolved(a) and resolved(b):
            return self.base_value * self.redundancy_discount
        resolved_neighbors = 0
        total_neighbors = 0
        for entity_id in (a, b):
            for neighbors in (
                context.neighbor_ids(entity_id),
                context.inverse_neighbor_ids(entity_id),
            ):
                total_neighbors += len(neighbors)
                resolved_neighbors += sum(map(resolved, neighbors))
        if total_neighbors == 0:
            # A relationship-free entity is a one-entity graph: a single
            # match completes it — the cheapest graph on offer.
            return 1.0
        return self.base_value + resolved_neighbors / total_neighbors

    def realized_ids(self, a: int, b: int, context: "ResolutionContext") -> float:
        resolved = context.match_graph.partner_ids.__contains__
        completed = sum(map(resolved, context.neighbor_ids(a)))
        completed += sum(map(resolved, context.neighbor_ids(b)))
        return self.base_value + float(completed)

    def stale_after(self, a: int, b: int, context: "ResolutionContext") -> Iterable[int]:
        if context.has_shared_descriptions():
            # Neighbourhoods are then not symmetric: a pair can read the
            # resolved flag of a description that does not list it, and
            # catches up only when the conservative set of a later match
            # covers it.
            return super().stale_after(a, b, context)
        stale: list[int] = []
        for entity_id in _newly_resolved(a, b, context):
            stale.append(entity_id)
            stale.extend(context.neighborhood_ids(entity_id))
        return stale


#: name → class table the component registry (``repro.api``) registers
BENEFITS: dict[str, type[BenefitModel]] = {
    cls.name: cls
    for cls in (
        QuantityBenefit,
        AttributeCompletenessBenefit,
        EntityCoverageBenefit,
        RelationshipCompletenessBenefit,
    )
}
