"""Tests for the comparison scheduler."""

from __future__ import annotations

import pytest

from repro.core.benefit import EntityCoverageBenefit, QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.matching.matcher import MatchDecision
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def make_context() -> ResolutionContext:
    collection = EntityCollection(
        [EntityDescription(f"http://e/{i}", {"p": [f"v{i}"]}) for i in range(6)],
        name="kb",
    )
    return ResolutionContext([collection])


def make_scheduler(benefit=None) -> ComparisonScheduler:
    return ComparisonScheduler(benefit or QuantityBenefit(), make_context())


class TestScheduling:
    def test_add_edges_and_pop_order(self):
        scheduler = make_scheduler()
        scheduler.add_edges(
            [
                WeightedEdge("http://e/0", "http://e/1", 1.0),
                WeightedEdge("http://e/2", "http://e/3", 5.0),
                WeightedEdge("http://e/4", "http://e/5", 3.0),
            ]
        )
        assert len(scheduler) == 3
        pair, priority = scheduler.pop()
        assert pair == ("http://e/2", "http://e/3")
        assert priority == pytest.approx(5.0)

    def test_duplicate_edges_keep_max_weight(self):
        scheduler = make_scheduler()
        assert scheduler.schedule("a", "b", 1.0) is True
        assert scheduler.schedule("b", "a", 3.0) is False
        assert scheduler.base_weight("a", "b") == 3.0
        assert len(scheduler) == 1

    def test_lower_duplicate_ignored(self):
        scheduler = make_scheduler()
        scheduler.schedule("a", "b", 3.0)
        scheduler.schedule("a", "b", 1.0)
        assert scheduler.base_weight("a", "b") == 3.0

    def test_popped_pairs_not_resurrected(self):
        scheduler = make_scheduler()
        scheduler.schedule("a", "b", 1.0)
        scheduler.pop()
        assert scheduler.schedule("a", "b", 9.0) is False
        assert len(scheduler) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make_scheduler().pop()

    def test_contains_and_peek(self):
        scheduler = make_scheduler()
        scheduler.schedule("a", "b", 2.0)
        assert ("a", "b") in scheduler
        assert scheduler.peek()[0] == ("a", "b")


class TestBoosting:
    def test_boost_reorders(self):
        scheduler = make_scheduler()
        scheduler.schedule("a", "b", 1.0)
        scheduler.schedule("c", "d", 2.0)
        assert scheduler.boost("a", "b", 5.0) is True
        assert scheduler.pop()[0] == ("a", "b")

    def test_boost_unqueued_returns_false(self):
        scheduler = make_scheduler()
        assert scheduler.boost("x", "y", 1.0) is False

    def test_discover_counts_new_pairs(self):
        scheduler = make_scheduler()
        scheduler.schedule("a", "b", 1.0)
        assert scheduler.discover("c", "d", 0.5) is True
        assert scheduler.discovered_pairs == 1
        # Re-discovering a queued pair raises weight but is not "new".
        assert scheduler.discover("a", "b", 2.0) is False
        assert scheduler.discovered_pairs == 1

    def test_refresh_recomputes_benefit(self):
        context = make_context()
        scheduler = ComparisonScheduler(EntityCoverageBenefit(), context)
        scheduler.schedule("http://e/0", "http://e/1", 2.0)
        initial = scheduler.peek()[1]
        # Resolving e0 elsewhere drops the pair's coverage estimate.
        context.match_graph.record(
            MatchDecision("http://e/0", "http://e/5", 1.0, True)
        )
        assert scheduler.refresh("http://e/0", "http://e/1") is True
        assert scheduler.peek()[1] < initial

    def test_refresh_unqueued_returns_false(self):
        assert make_scheduler().refresh("x", "y") is False


class TestBenefitWeighting:
    def test_priority_multiplies_weight_and_estimate(self):
        context = make_context()
        scheduler = ComparisonScheduler(EntityCoverageBenefit(), context)
        # Resolve e0-e1; pairs touching them become low priority.
        context.match_graph.record(MatchDecision("http://e/0", "http://e/1", 1.0, True))
        scheduler.schedule("http://e/0", "http://e/2", 2.0)  # estimate 0.5
        scheduler.schedule("http://e/3", "http://e/4", 1.5)  # estimate 1.0
        # 1.5 * 1.0 > 2.0 * 0.5 -> the unresolved pair wins.
        assert scheduler.pop()[0] == ("http://e/3", "http://e/4")

    def test_quantity_benefit_is_pure_weight_order(self):
        scheduler = make_scheduler(QuantityBenefit())
        scheduler.schedule("a", "b", 1.0)
        scheduler.schedule("c", "d", 2.0)
        assert scheduler.pop()[1] == pytest.approx(2.0)


class TestBulkFill:
    """``add_edges`` on any frontier equals one ``schedule`` per edge."""

    EDGES = [
        WeightedEdge("http://e/0", "http://e/1", 1.0),
        WeightedEdge("http://e/2", "http://e/3", 1.0),  # ties with the first
        WeightedEdge("http://e/1", "http://e/0", 2.5),  # raises the first
        WeightedEdge("http://e/4", "http://e/5", 2.5),  # ties with the raised one
        WeightedEdge("http://e/2", "http://e/3", 0.5),  # lower duplicate
        WeightedEdge("http://e/0", "http://e/5", 9.0),
    ]

    def drained(self, fill, prepare=lambda scheduler: None):
        scheduler = make_scheduler(EntityCoverageBenefit())
        prepare(scheduler)
        added = fill(scheduler)
        return added, [scheduler.pop() for _ in range(len(scheduler))]

    def per_edge(self, scheduler):
        return sum(scheduler.schedule(e.left, e.right, e.weight) for e in self.EDGES)

    def bulk(self, scheduler):
        return scheduler.add_edges(iter(self.EDGES))

    def test_empty_frontier(self):
        assert self.drained(self.bulk) == self.drained(self.per_edge)
        assert self.drained(self.bulk)[0] == 4

    def test_used_frontier(self):
        def prepare(scheduler):
            scheduler.schedule("http://e/2", "http://e/3", 0.25)  # queued: merged
            scheduler.schedule("http://e/0", "http://e/5", 1.0)
            scheduler.pop()  # (0, 5) is decided: not resurrected
            scheduler.schedule("http://e/1", "http://e/2", 1.0)

        assert self.drained(self.bulk, prepare) == self.drained(self.per_edge, prepare)
        assert self.drained(self.bulk, prepare)[0] == 2

    def test_buckets_follow_the_fill(self):
        scheduler = make_scheduler()
        scheduler.add_edges(self.EDGES)
        assert scheduler.refresh_involving("http://e/0") == 2
        ids = map(scheduler.context.interner.get, ["http://e/0", "http://e/5", "http://e/9"])
        assert scheduler.count_involving(ids) == 4
        assert scheduler.count_involving([]) == 0
