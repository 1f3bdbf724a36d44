"""Tests for the benefit models."""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.core.benefit import (
    BENEFITS,
    AttributeCompletenessBenefit,
    EntityCoverageBenefit,
    QuantityBenefit,
    RelationshipCompletenessBenefit,
)
from repro.core.engine import ResolutionContext
from repro.matching.matcher import MatchDecision
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def context() -> ResolutionContext:
    kb1 = EntityCollection(
        [
            EntityDescription(
                "http://a/film",
                {"title": ["alpha"], "director": ["http://a/person"]},
                source="kb1",
            ),
            EntityDescription(
                "http://a/person", {"name": ["bob"], "born": ["1950"]}, source="kb1"
            ),
        ],
        name="kb1",
    )
    kb2 = EntityCollection(
        [
            EntityDescription(
                "http://b/film",
                {"label": ["alpha"], "maker": ["http://b/person"], "year": ["1999"]},
                source="kb2",
            ),
            EntityDescription("http://b/person", {"label": ["bob"]}, source="kb2"),
        ],
        name="kb2",
    )
    return ResolutionContext([kb1, kb2])


def match(a: str, b: str) -> MatchDecision:
    return MatchDecision(a, b, 1.0, True)


def non_match(a: str, b: str) -> MatchDecision:
    return MatchDecision(a, b, 0.0, False)


def estimate(model, uri_a: str, uri_b: str, ctx: ResolutionContext) -> float:
    """The model's estimate of a URI pair (models read context ids)."""
    return model.estimate(ctx.interner.get(uri_a), ctx.interner.get(uri_b), ctx)


class TestQuantity:
    def test_uniform_estimate(self):
        ctx = context()
        model = QuantityBenefit()
        assert estimate(model, "http://a/film", "http://b/film", ctx) == 1.0

    def test_realized_counts_matches_only(self):
        ctx = context()
        model = QuantityBenefit()
        assert model.realized(match("http://a/film", "http://b/film"), ctx) == 1.0
        assert model.realized(non_match("http://a/film", "http://b/person"), ctx) == 0.0


class TestAttributeCompleteness:
    def test_complementary_properties_estimated_higher(self):
        ctx = context()
        model = AttributeCompletenessBenefit()
        # film/film share no property names (proprietary vocabularies):
        # complementarity 1.0; sizes 2 vs 3 give imbalance 1/3.
        complementary = estimate(model, "http://a/film", "http://b/film", ctx)
        assert complementary == pytest.approx(0.75 + 0.25 + 0.25 / 3)

    def test_estimates_stay_in_tiebreaker_range(self):
        ctx = context()
        model = AttributeCompletenessBenefit()
        for a in ("http://a/film", "http://a/person"):
            for b in ("http://b/film", "http://b/person"):
                assert 0.75 <= estimate(model, a, b, ctx) <= 1.25

    def test_unknown_uri_gets_default(self):
        ctx = context()
        model = AttributeCompletenessBenefit()
        assert estimate(model, "ghost", "http://b/film", ctx) == 1.0

    def test_realized_rewards_new_evidence(self):
        ctx = context()
        model = AttributeCompletenessBenefit()
        decision = match("http://a/film", "http://b/film")
        ctx.match_graph.record(decision)
        assert model.realized(decision, ctx) > 0.5

    def test_realized_zero_for_non_match(self):
        ctx = context()
        model = AttributeCompletenessBenefit()
        assert model.realized(non_match("http://a/film", "http://b/film"), ctx) == 0.0


class TestEntityCoverage:
    def test_unresolved_pair_estimated_highest(self):
        ctx = context()
        model = EntityCoverageBenefit()
        assert estimate(model, "http://a/film", "http://b/film", ctx) == 1.0

    def test_resolved_pair_estimated_low(self):
        ctx = context()
        ctx.match_graph.record(match("http://a/film", "http://b/film"))
        ctx.match_graph.record(match("http://a/person", "http://b/person"))
        model = EntityCoverageBenefit()
        assert (
            estimate(model, "http://a/film", "http://b/person", ctx)
            == model.extension_value
        )

    def test_half_resolved_pair_estimated_mid(self):
        ctx = context()
        ctx.match_graph.record(match("http://a/film", "http://b/film"))
        model = EntityCoverageBenefit()
        assert estimate(model, "http://a/film", "http://b/person", ctx) == 0.5

    def test_realized_new_entity(self):
        ctx = context()
        decision = match("http://a/film", "http://b/film")
        ctx.match_graph.record(decision)
        assert EntityCoverageBenefit().realized(decision, ctx) == 1.0

    def test_realized_extension(self):
        ctx = context()
        first = match("http://a/film", "http://b/film")
        ctx.match_graph.record(first)
        second = match("http://b/film", "http://a/person")
        ctx.match_graph.record(second)
        assert (
            EntityCoverageBenefit().realized(second, ctx)
            == EntityCoverageBenefit.extension_value
        )


class TestRelationshipCompleteness:
    def test_estimate_favours_resolved_neighbourhoods(self):
        ctx = context()
        model = RelationshipCompletenessBenefit()
        before = estimate(model, "http://a/film", "http://b/film", ctx)
        # Resolve the directors; the films' neighbourhood is now resolved.
        ctx.match_graph.record(match("http://a/person", "http://b/person"))
        after = estimate(model, "http://a/film", "http://b/film", ctx)
        assert after > before

    def test_realized_counts_completed_edges(self):
        ctx = context()
        model = RelationshipCompletenessBenefit()
        ctx.match_graph.record(match("http://a/person", "http://b/person"))
        decision = match("http://a/film", "http://b/film")
        ctx.match_graph.record(decision)
        # Both films reference their (resolved) director: 2 completed edges.
        assert model.realized(decision, ctx) == pytest.approx(model.base_value + 2)

    def test_no_neighbors_gets_base(self):
        ctx = context()
        model = RelationshipCompletenessBenefit()
        assert (
            estimate(model, "http://a/person", "http://b/person", ctx)
            >= model.base_value
        )


class TestRegistry:
    def test_all_models_registered(self):
        assert set(BENEFITS) == {
            "quantity",
            "attribute-completeness",
            "entity-coverage",
            "relationship-completeness",
        }

    @pytest.mark.parametrize("name", sorted(BENEFITS))
    def test_estimates_positive(self, name):
        ctx = context()
        model = registry.create("benefit", name)
        assert estimate(model, "http://a/film", "http://b/film", ctx) > 0
