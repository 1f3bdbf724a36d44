"""Neighbour-evidence-aware matching.

The poster's update phase makes missed pairs *reachable*; this matcher
makes them *matchable*.  Somehow-similar descriptions at the LOD periphery
share too few tokens for any value-similarity threshold to accept them —
which is precisely why blocking missed them in the first place.  MinoanER
therefore treats "the partial matching results as a similarity evidence
for their neighbor descriptions": if the entities two descriptions relate
to have already been matched to each other, that is co-reference evidence
in its own right.

:class:`NeighborAwareMatcher` wraps any value matcher and augments its
score::

    score = value_similarity + evidence_weight × matched_neighbour_fraction

where the matched-neighbour fraction counts, in each direction, the
members of one description's neighbourhood that are (transitively)
matched into the other's, and divides the smaller count by the smaller
neighbourhood's size — symmetric in the two descriptions and never above
1.  Two neighbours co-refer exactly when their clusters have the same
union-find root, so the counts come from one root lookup per resolved
neighbour of the context's memoised id neighbourhoods, not from a
question per neighbour pair.  The engine binds the live resolution context before
execution, so the evidence grows as matching progresses — early decisions
are value-driven, late decisions increasingly graph-driven, which is the
pay-as-you-go behaviour the poster describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.matching.matcher import Matcher
from repro.model.interner import PAIR_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ResolutionContext


class NeighborAwareMatcher(Matcher):
    """Combine a value matcher with neighbour co-reference evidence.

    Args:
        base: the underlying value matcher (its ``threshold`` attribute is
            reused unless *threshold* is given).
        evidence_weight: weight of the matched-neighbour fraction added to
            the value score.  0 makes this matcher equivalent to *base*.
        threshold: decision threshold on the combined score; defaults to
            ``base.threshold`` (and to 0.5 when the base has none).
        min_value_similarity: floor on the *value* score below which no
            amount of neighbour evidence can produce a match.  Two spokes
            of the same hub (a film's two different actors, say) inherit
            full neighbour evidence from the hub match without co-referring
            at all; demanding a sliver of value agreement (any common
            token) filters those out.

    The matcher is inert until an engine attaches it to a resolution
    context; unbound, it behaves exactly like *base*.
    """

    def __init__(
        self,
        base: Matcher,
        evidence_weight: float = 0.3,
        threshold: float | None = None,
        min_value_similarity: float = 1e-9,
    ) -> None:
        if evidence_weight < 0:
            raise ValueError("evidence_weight must be non-negative")
        if min_value_similarity < 0:
            raise ValueError("min_value_similarity must be non-negative")
        self.base = base
        self.evidence_weight = evidence_weight
        self.threshold = (
            threshold
            if threshold is not None
            else getattr(base, "threshold", 0.5)
        )
        self.min_value_similarity = min_value_similarity
        #: the value matcher's primed scores (see :meth:`Matcher.primed_scores`)
        self._values: dict[int, float] = {}

    def bind(self, context: "ResolutionContext") -> None:
        super().bind(context)
        self.base.attach(context)
        self._values = self.base.primed_scores()

    def prime(self, ids_a, ids_b) -> None:
        """Forward batch pre-scoring to the value matcher (evidence is
        state-dependent and never cacheable)."""
        self.base.prime(ids_a, ids_b)

    def evidence_ids(self, a: int, b: int) -> float:
        """Matched-neighbour fraction of two context ids, in [0, 1] (0
        when unbound).

        Symmetric: the smaller of "members of *a*'s neighbourhood matched
        into *b*'s" and the converse, over the smaller neighbourhood's
        size.
        """
        context = self._context
        if context is None or self.evidence_weight == 0:
            return 0.0
        graph = context.match_graph
        if not graph.match_count:
            return 0.0
        neighbors_a = context.links[a][2]
        neighbors_b = context.links[b][2]
        if not neighbors_a or not neighbors_b:
            return 0.0
        roots_a = graph.roots(neighbors_a)
        roots_b = graph.roots(neighbors_b) if roots_a else ()
        if not roots_b:
            return 0.0
        matched = min(
            sum(map(set(roots_b).__contains__, roots_a)),
            sum(map(set(roots_a).__contains__, roots_b)),
        )
        return matched / min(len(neighbors_a), len(neighbors_b))

    def neighbor_evidence(self, uri_a: str, uri_b: str) -> float:
        """:meth:`evidence_ids` of two URIs."""
        if self._context is None:
            return 0.0
        get = self._context.interner.get
        return self.evidence_ids(get(uri_a), get(uri_b))

    def similarity(self, uri_a: str, uri_b: str) -> float:
        value = self.base.similarity(uri_a, uri_b)
        return value + self.evidence_weight * self.neighbor_evidence(uri_a, uri_b)

    def verdict(self, uri_a: str, uri_b: str) -> tuple[float, bool]:
        value = self.base.similarity(uri_a, uri_b)
        score = value + self.evidence_weight * self.neighbor_evidence(uri_a, uri_b)
        return score, score >= self.threshold and value >= self.min_value_similarity

    def decide_ids(self, a: int, b: int) -> tuple[float, bool]:
        # pack_pair, inlined: a primed value score costs no call
        value = self._values.get(a << PAIR_SHIFT | b if a < b else b << PAIR_SHIFT | a)
        if value is None:
            value = self.base.decide_ids(a, b)[0]
        score, context = value, self._context
        # Without a match, or a neighbourhood on either side, evidence is 0.
        if context is not None and context.match_graph.match_count:
            links = context.links
            if links[a][2] and links[b][2]:
                score = value + self.evidence_weight * self.evidence_ids(a, b)
        return score, score >= self.threshold and value >= self.min_value_similarity
