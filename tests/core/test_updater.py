"""Tests for neighbour-evidence propagation (the update phase)."""

from __future__ import annotations

import pytest

from repro.core.benefit import QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.core.session import ProgressiveSession
from repro.core.updater import NeighborEvidencePropagator
from repro.matching.matcher import MatchDecision, OracleMatcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def film_context() -> ResolutionContext:
    """Two KBs: films referencing their directors."""
    kb1 = EntityCollection(
        [
            EntityDescription(
                "http://a/film1", {"director": ["http://a/dir"]}, source="kb1"
            ),
            EntityDescription(
                "http://a/film2", {"director": ["http://a/dir"]}, source="kb1"
            ),
            EntityDescription("http://a/dir", {"name": ["dee"]}, source="kb1"),
        ],
        name="kb1",
    )
    kb2 = EntityCollection(
        [
            EntityDescription(
                "http://b/film1", {"maker": ["http://b/dir"]}, source="kb2"
            ),
            EntityDescription(
                "http://b/film2", {"maker": ["http://b/dir"]}, source="kb2"
            ),
            EntityDescription("http://b/dir", {"label": ["dee"]}, source="kb2"),
        ],
        name="kb2",
    )
    return ResolutionContext([kb1, kb2])


def director_match() -> tuple[str, str]:
    return ("http://a/dir", "http://b/dir")


def propagate(propagator, match, scheduler, context) -> int:
    """Propagate a confirmed match of two URIs (the propagator reads ids)."""
    left, right = map(context.interner.get, match)
    return propagator.on_match(left, right, scheduler, context)


class TestPropagation:
    def test_boosts_queued_neighbor_pairs(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        scheduler.schedule("http://a/film1", "http://b/film1", 1.0)
        scheduler.schedule("http://a/film2", "http://b/film2", 1.0)
        propagator = NeighborEvidencePropagator(boost_factor=2.0, discovery_weight=0)
        operations = propagate(propagator, director_match(), scheduler, context)
        # Inverse neighbours of the directors are film1/film2 on each side:
        # 2x2 cross pairs, all eligible.
        assert operations == 4
        assert propagator.boosted == 2
        assert scheduler.peek()[1] == pytest.approx(3.0)

    def test_discovers_unblocked_pairs(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator(discovery_weight=0.7)
        propagate(propagator, director_match(), scheduler, context)
        assert propagator.discovered == 4
        assert len(scheduler) == 4
        assert scheduler.discovered_pairs == 4

    def test_discovery_disabled(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator(discovery_weight=0.0)
        propagate(propagator, director_match(), scheduler, context)
        assert len(scheduler) == 0

    def test_non_match_ignored(self):
        # The loop propagates confirmed matches only.
        calls = []

        class Recording(NeighborEvidencePropagator):
            def on_match(self, *args) -> int:
                calls.append(args)
                return super().on_match(*args)

        context = film_context()
        session = ProgressiveSession(
            matcher=OracleMatcher(set()),
            edges=[WeightedEdge("http://a/dir", "http://b/dir", 1.0)],
            collections=context.collections,
            updater=Recording(),
        )
        assert session.advance().comparisons_executed == 1
        assert calls == []

    def test_same_source_pairs_skipped(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator()
        propagate(propagator, director_match(), scheduler, context)
        for pair, _ in scheduler.queued_pairs():
            assert not context.same_source(pair[0], pair[1])

    def test_already_matched_neighbors_skipped(self):
        context = film_context()
        context.match_graph.record(
            MatchDecision("http://a/film1", "http://b/film1", 1.0, True)
        )
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator()
        propagate(propagator, director_match(), scheduler, context)
        assert ("http://a/film1", "http://b/film1") not in scheduler

    def test_fanout_cap(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator(max_neighbor_pairs=1)
        operations = propagate(propagator, director_match(), scheduler, context)
        assert operations <= 1

    def test_outgoing_neighbors_used_for_films(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator(discovery_weight=0.5)
        propagate(propagator, ("http://a/film1", "http://b/film1"), scheduler, context)
        # The films' out-neighbours are the directors.
        assert ("http://a/dir", "http://b/dir") in scheduler

    def test_inverse_neighbors_can_be_disabled(self):
        context = film_context()
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator(use_inverse_neighbors=False)
        operations = propagate(propagator, director_match(), scheduler, context)
        # Directors have no out-neighbours, so nothing propagates.
        assert operations == 0

    def test_no_neighbors_no_operations(self):
        collection = EntityCollection(
            [
                EntityDescription("http://a/x", {"p": ["v"]}, source="kb1"),
                EntityDescription("http://b/y", {"p": ["v"]}, source="kb2"),
            ]
        )
        context = ResolutionContext([collection])
        scheduler = ComparisonScheduler(QuantityBenefit(), context)
        propagator = NeighborEvidencePropagator()
        assert propagate(propagator, ("http://a/x", "http://b/y"), scheduler, context) == 0


class TestValidation:
    def test_negative_boost_rejected(self):
        with pytest.raises(ValueError):
            NeighborEvidencePropagator(boost_factor=-1)

    def test_negative_discovery_rejected(self):
        with pytest.raises(ValueError):
            NeighborEvidencePropagator(discovery_weight=-0.1)

    def test_zero_fanout_rejected(self):
        with pytest.raises(ValueError):
            NeighborEvidencePropagator(max_neighbor_pairs=0)
