"""Tests for the static/dynamic strategies."""

from __future__ import annotations

import pytest

from repro.core.budget import CostBudget
from repro.core.strategies import dynamic_strategy, static_strategy
from repro.datasets.gold import GoldStandard
from repro.matching.matcher import OracleMatcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def chain_world(n: int = 6):
    """A chain of related entities where only the first pair is blocked.

    a_i references a_{i+1} (same for b): each confirmed match unlocks the
    next pair through neighbour evidence, so only iterative strategies can
    walk the chain.
    """
    kb1_descriptions = []
    kb2_descriptions = []
    for i in range(n):
        attrs1 = {"p": [f"value{i}"]}
        attrs2 = {"q": [f"value{i}"]}
        if i + 1 < n:
            attrs1["r"] = [f"http://a/{i + 1}"]
            attrs2["s"] = [f"http://b/{i + 1}"]
        kb1_descriptions.append(EntityDescription(f"http://a/{i}", attrs1, source="kb1"))
        kb2_descriptions.append(EntityDescription(f"http://b/{i}", attrs2, source="kb2"))
    kb1 = EntityCollection(kb1_descriptions, name="kb1")
    kb2 = EntityCollection(kb2_descriptions, name="kb2")
    gold = GoldStandard.from_pairs([(f"http://a/{i}", f"http://b/{i}") for i in range(n)])
    edges = [WeightedEdge("http://a/0", "http://b/0", 1.0)]
    return kb1, kb2, gold, edges


class TestStatic:
    def test_no_update_phase(self):
        kb1, kb2, gold, edges = chain_world()
        engine = static_strategy(OracleMatcher(gold.matches))
        assert engine.updater is None
        result = engine.run(edges, [kb1, kb2], gold=gold)
        assert result.match_graph.match_count == 1  # chain not walked

    @pytest.mark.parametrize("length", [2, 4, 10])
    def test_only_the_blocked_pair_matches(self, length):
        kb1, kb2, gold, edges = chain_world(length)
        result = static_strategy(OracleMatcher(gold.matches)).run(
            edges, [kb1, kb2], gold=gold
        )
        assert result.match_graph.matched_pairs() == {("http://a/0", "http://b/0")}
        assert result.discovered_matches == 0

    def test_knobs_forwarded(self):
        budget = CostBudget(max_cost=3)
        engine = static_strategy(OracleMatcher(set()), budget=budget, checkpoint_every=7)
        assert engine.budget is budget
        assert engine.checkpoint_every == 7


class TestDynamic:
    def test_walks_the_chain(self):
        kb1, kb2, gold, edges = chain_world()
        engine = dynamic_strategy(OracleMatcher(gold.matches))
        result = engine.run(edges, [kb1, kb2], gold=gold)
        assert result.match_graph.match_count == 6
        assert result.discovered_matches == 5

    @pytest.mark.parametrize("length", [1, 2, 4, 10])
    def test_walks_chains_of_any_length(self, length):
        kb1, kb2, gold, edges = chain_world(length)
        result = dynamic_strategy(OracleMatcher(gold.matches)).run(
            edges, [kb1, kb2], gold=gold
        )
        assert result.match_graph.matched_pairs() == gold.matches
        assert result.discovered_matches == length - 1

    def test_budget_stops_the_walk(self):
        kb1, kb2, gold, edges = chain_world(10)
        engine = dynamic_strategy(OracleMatcher(gold.matches), budget=CostBudget(3))
        result = engine.run(edges, [kb1, kb2], gold=gold)
        assert result.comparisons_executed == 3
        assert result.match_graph.match_count == 3

    def test_knobs_forwarded(self):
        engine = dynamic_strategy(
            OracleMatcher(set()), boost_factor=2.5, discovery_weight=0.25
        )
        assert engine.updater.boost_factor == 2.5
        assert engine.updater.discovery_weight == 0.25
