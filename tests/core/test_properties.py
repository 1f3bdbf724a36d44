"""Property-based tests of core invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benefit import QuantityBenefit
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER, ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.datasets.gold import GoldStandard
from repro.matching.matcher import OracleMatcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

from .id_views import priorities, unpack


def make_context(n: int = 40) -> ResolutionContext:
    collection = EntityCollection(
        [EntityDescription(f"http://e/{i}", {"p": [f"v{i}"]}) for i in range(n)],
        name="kb",
    )
    return ResolutionContext([collection])


edge_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.floats(0.01, 100)),
    max_size=60,
).map(
    lambda raw: [
        WeightedEdge(f"http://e/{min(a, b)}", f"http://e/{max(a, b)}", w)
        for a, b, w in raw
        if a != b
    ]
)


def filled_scheduler(edges: list[WeightedEdge]) -> tuple[ComparisonScheduler, list[int]]:
    """A quantity scheduler holding *edges*, interned at the test's edge,
    and each edge's packed key."""
    scheduler = ComparisonScheduler(QuantityBenefit(), make_context())
    keys = [scheduler.context.key(edge.left, edge.right) for edge in edges]
    scheduler.add_keys(keys, [edge.weight for edge in edges])
    return scheduler, keys


class TestSchedulerProperties:
    @settings(max_examples=40, deadline=None)
    @given(edge_lists)
    def test_quantity_pop_order_is_weight_order(self, edges):
        scheduler, _ = filled_scheduler(edges)
        popped = []
        while scheduler:
            popped.append(scheduler.pop_key()[1])
        assert popped == sorted(popped, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(edge_lists)
    def test_duplicate_edges_keep_max_weight(self, edges):
        scheduler, keys = filled_scheduler(edges)
        best: dict[int, float] = {}
        for key, edge in zip(keys, edges):
            best[key] = max(best.get(key, 0.0), edge.weight)
        assert priorities(scheduler) == best  # quantity: priority == base weight

    @settings(max_examples=30, deadline=None)
    @given(edge_lists, st.floats(0.1, 10))
    def test_boost_only_raises_priority(self, edges, delta):
        scheduler, _ = filled_scheduler(edges)
        if not scheduler:
            return
        before = priorities(scheduler)
        key = max(before, key=before.get)
        assert scheduler.boost_ids(*unpack(key), delta)
        assert priorities(scheduler)[key] >= before[key]


class TestBudgetProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 50), st.integers(0, 100))
    def test_comparisons_never_exceed_budget(self, max_cost, available):
        budget = CostBudget(max_cost)
        executed = 0
        for _ in range(available):
            if budget.exhausted:
                break
            budget.charge_comparison()
            executed += 1
        assert executed == min(max_cost, available)
        assert budget.consumed <= max_cost

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 30),
        st.lists(st.integers(1, 20), max_size=20),
        st.floats(0.0, 1.0),
    )
    def test_scheduling_weight_accounting(self, max_cost, ops, weight):
        budget = CostBudget(max_cost, scheduling_cost_weight=weight)
        for count in ops:
            budget.charge_scheduling(count)
        assert budget.consumed == pytest.approx(sum(ops) * weight)


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(edge_lists, st.integers(0, 30), st.sets(st.integers(0, 20), max_size=10))
    def test_budget_and_recall_invariants(self, edges, max_cost, match_ids):
        gold = GoldStandard.from_pairs(
            [(f"http://e/{i}", f"http://e/{(i + 1) % 21}") for i in match_ids if i != (i + 1) % 21]
        )
        engine = ProgressiveER(
            matcher=OracleMatcher(gold.matches), budget=CostBudget(max_cost)
        )
        collection = EntityCollection(
            [EntityDescription(f"http://e/{i}", {"p": [f"v{i}"]}) for i in range(21)],
            name="kb",
        )
        result = engine.run(edges, [collection], gold=gold if gold.matches else None)
        # Budget invariant.
        assert result.comparisons_executed <= max_cost
        distinct_pairs = {e.pair for e in edges}
        assert result.comparisons_executed <= len(distinct_pairs)
        # Matches are a subset of executed comparisons and of gold.
        assert len(result.matched_pairs()) <= result.comparisons_executed
        assert result.matched_pairs() <= gold.matches
        # Recall series is non-decreasing.
        recall = result.curve.series.get("recall", [])
        assert recall == sorted(recall)
