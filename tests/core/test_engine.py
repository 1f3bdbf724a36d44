"""Tests for the progressive resolution engine."""

from __future__ import annotations

import pytest

from repro.core.benefit import QuantityBenefit
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER, ResolutionContext
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.matching.matcher import OracleMatcher
from repro.matching.similarity import SimilarityIndex
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def simple_world():
    """Four matching pairs with relationship structure between them."""
    kb1 = EntityCollection(
        [
            EntityDescription("http://a/1", {"p": ["x"], "r": ["http://a/2"]}, source="kb1"),
            EntityDescription("http://a/2", {"p": ["y"]}, source="kb1"),
            EntityDescription("http://a/3", {"p": ["z"]}, source="kb1"),
            EntityDescription("http://a/4", {"p": ["w"]}, source="kb1"),
        ],
        name="kb1",
    )
    kb2 = EntityCollection(
        [
            EntityDescription("http://b/1", {"q": ["x"], "s": ["http://b/2"]}, source="kb2"),
            EntityDescription("http://b/2", {"q": ["y"]}, source="kb2"),
            EntityDescription("http://b/3", {"q": ["z"]}, source="kb2"),
            EntityDescription("http://b/4", {"q": ["w"]}, source="kb2"),
        ],
        name="kb2",
    )
    gold = GoldStandard.from_pairs(
        [(f"http://a/{i}", f"http://b/{i}") for i in range(1, 5)]
    )
    return kb1, kb2, gold


def edges_for(gold, extra=()):  # candidate edges: all gold + distractors
    edges = [WeightedEdge(left, right, 1.0) for left, right in sorted(gold.matches)]
    edges.extend(WeightedEdge(a, b, w) for a, b, w in extra)
    return edges


class TestResolutionContext:
    def test_requires_collections(self):
        with pytest.raises(ValueError):
            ResolutionContext([])

    def test_ids_are_the_similarity_index_rows(self, center_dataset):
        # First collection wins, in collection order: the rows the index
        # builds, so a context id and an index row name one description.
        kb1, kb2 = center_dataset.kb1, center_dataset.kb2
        shared = next(iter(kb2)).copy()
        kb1 = EntityCollection([*kb1, shared], name="kb1")
        context = ResolutionContext([kb1, kb2])
        index = SimilarityIndex([kb1, kb2])
        assert context.uris == list(index._rows) == [*kb1.uris(), *kb2.uris()[1:]]
        assert context.has_shared_descriptions()

    def test_description_lookup(self):
        kb1, kb2, _ = simple_world()
        context = ResolutionContext([kb1, kb2])
        assert context.description("http://a/1") is kb1["http://a/1"]
        assert context.description("ghost") is None

    def test_same_source(self):
        kb1, kb2, _ = simple_world()
        context = ResolutionContext([kb1, kb2])
        a1, a2, b1 = context.interner.ids_of(["http://a/1", "http://a/2", "http://b/1"])
        assert context.same_source_ids(a1, a2)
        assert not context.same_source_ids(a1, b1)
        assert not context.same_source_ids(-1, -1)  # unknown URIs

    def test_neighbors_routed_to_home_collection(self):
        kb1, kb2, _ = simple_world()
        context = ResolutionContext([kb1, kb2])
        a1, a2, b1, b2 = context.interner.ids_of(["http://a/1", "http://a/2", "http://b/1", "http://b/2"])
        assert context.neighbor_ids(a1) == (a2,)
        assert context.inverse_neighbor_ids(b2) == (b1,)
        # memoised: a second read is the same tuple
        assert context.neighborhood_ids(a1) is context.neighborhood_ids(a1)

    def test_neighborhood_ids_are_the_uri_neighbourhood(self):
        # Out-neighbours, then in-neighbours not already listed, from the
        # home collection's URI graph, interned at the test's edge.
        kb1, kb2, _ = simple_world()
        kb1.add(EntityDescription("http://a/2", {"r": ["http://a/1", "http://a/3"]}))
        context = ResolutionContext([kb1, kb2])
        for kb in (kb1, kb2):
            out, inverse = kb.graph()
            for uri in kb.uris():
                expected = list(dict.fromkeys(out.get(uri, []) + inverse.get(uri, [])))
                ids = context.neighborhood_ids(context.interner.id_of(uri))
                assert [context.uris[i] for i in ids] == expected
        a1, a2 = context.interner.ids_of(["http://a/1", "http://a/2"])
        assert context.neighborhood_ids(a2) == (a1, context.interner.id_of("http://a/3"))

    def test_unknown_ids_have_no_links(self):
        kb1, kb2, _ = simple_world()
        context = ResolutionContext([kb1, kb2])
        unseen = context.interner.intern("http://c/1")  # interned, described nowhere
        for entity_id in (unseen, -1):
            assert context.neighbor_ids(entity_id) == ()
            assert context.inverse_neighbor_ids(entity_id) == ()
            assert context.neighborhood_ids(entity_id) == ()

    def test_vicinity_ids(self):
        kb1, kb2, _ = simple_world()
        context = ResolutionContext([kb1, kb2])
        a1, a2, a3, b1, b2 = context.interner.ids_of(
            ["http://a/1", "http://a/2", "http://a/3", "http://b/1", "http://b/2"]
        )
        assert context.vicinity_ids(a1, b1) == {a1, a2, b1, b2}
        assert context.vicinity_ids(a3, b2) == {a3, b2, b1}


class TestRun:
    def test_resolves_everything_without_budget(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(matcher=OracleMatcher(gold.matches))
        result = engine.run(edges_for(gold), [kb1, kb2], gold=gold)
        assert result.match_graph.match_count == 4
        assert result.curve.final("recall") == 1.0

    def test_budget_respected(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(
            matcher=OracleMatcher(gold.matches), budget=CostBudget(2)
        )
        result = engine.run(edges_for(gold), [kb1, kb2], gold=gold)
        assert result.comparisons_executed == 2
        assert result.budget.exhausted

    def test_benefit_accumulates(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(matcher=OracleMatcher(gold.matches))
        result = engine.run(edges_for(gold), [kb1, kb2])
        assert result.benefit_total == pytest.approx(4.0)

    def test_non_matches_realize_no_benefit(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(matcher=OracleMatcher(set()))
        result = engine.run(edges_for(gold), [kb1, kb2])
        assert result.comparisons_executed == 4
        assert result.benefit_total == 0.0

    def test_duplicate_edges_not_reexecuted(self):
        kb1, kb2, gold = simple_world()
        edges = edges_for(gold) + edges_for(gold)
        engine = ProgressiveER(matcher=OracleMatcher(gold.matches))
        result = engine.run(edges, [kb1, kb2])
        assert result.comparisons_executed == 4

    def test_curve_checkpoints_recorded(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(
            matcher=OracleMatcher(gold.matches), checkpoint_every=1
        )
        result = engine.run(edges_for(gold), [kb1, kb2], gold=gold)
        assert len(result.curve) >= 5  # initial + one per comparison
        recall = result.curve.series["recall"]
        assert recall == sorted(recall)  # non-decreasing

    def test_gold_never_affects_decisions(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(matcher=OracleMatcher(gold.matches))
        with_gold = engine.run(edges_for(gold), [kb1, kb2], gold=gold)
        without_gold = engine.run(edges_for(gold), [kb1, kb2])
        assert with_gold.matched_pairs() == without_gold.matched_pairs()

    def test_label_defaults_to_benefit_name(self):
        kb1, kb2, gold = simple_world()
        engine = ProgressiveER(matcher=OracleMatcher(gold.matches))
        result = engine.run(edges_for(gold), [kb1, kb2])
        assert result.curve.label == "quantity"

    def test_invalid_checkpoint_period(self):
        with pytest.raises(ValueError):
            ProgressiveER(matcher=OracleMatcher(set()), checkpoint_every=0)


class TestUpdatePhase:
    def test_discovered_matches_counted(self):
        kb1, kb2, gold = simple_world()
        # The (1,1) pair is blocked; (2,2) is NOT blocked but is reachable
        # through the update phase: 1-1 match propagates to neighbours 2/2.
        blocked = [WeightedEdge("http://a/1", "http://b/1", 1.0)]
        engine = ProgressiveER(
            matcher=OracleMatcher(gold.matches),
            updater=NeighborEvidencePropagator(discovery_weight=0.5),
        )
        result = engine.run(blocked, [kb1, kb2], gold=gold)
        assert result.match_graph.match_count == 2
        assert result.discovered_matches == 1
        assert result.discovered_pairs == 1

    def test_without_updater_unblocked_pair_unreachable(self):
        kb1, kb2, gold = simple_world()
        blocked = [WeightedEdge("http://a/1", "http://b/1", 1.0)]
        engine = ProgressiveER(matcher=OracleMatcher(gold.matches))
        result = engine.run(blocked, [kb1, kb2], gold=gold)
        assert result.match_graph.match_count == 1

    def test_scheduling_operations_charged(self):
        kb1, kb2, gold = simple_world()
        blocked = [WeightedEdge("http://a/1", "http://b/1", 1.0)]
        engine = ProgressiveER(
            matcher=OracleMatcher(gold.matches),
            budget=CostBudget(100, scheduling_cost_weight=0.01),
            updater=NeighborEvidencePropagator(),
        )
        result = engine.run(blocked, [kb1, kb2])
        assert result.budget.scheduling_operations > 0
        assert result.budget.consumed > result.comparisons_executed
