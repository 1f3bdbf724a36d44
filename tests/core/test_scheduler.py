"""Tests for the comparison scheduler, on its id API.

URIs are interned once, at the test's edge (:func:`key`), and a pop is
read back as its URI-sorted pair (:func:`pop`).
"""

from __future__ import annotations

import pytest

from repro.core.benefit import EntityCoverageBenefit, QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

from .id_views import pair_of, priorities, queued


def make_context() -> ResolutionContext:
    collection = EntityCollection(
        [EntityDescription(f"http://e/{i}", {"p": [f"v{i}"]}) for i in range(8)],
        name="kb",
    )
    return ResolutionContext([collection])


def make_scheduler(benefit=None) -> ComparisonScheduler:
    return ComparisonScheduler(benefit or QuantityBenefit(), make_context())


def uri(i: int) -> str:
    return f"http://e/{i}"


def ids(scheduler, *numbers: int) -> list[int]:
    return [scheduler.context.interner.get(uri(i)) for i in numbers]


def key(scheduler, i: int, j: int) -> int:
    return scheduler.context.key(uri(i), uri(j))


def fill(scheduler, *edges: tuple[int, int, float]) -> int:
    """:meth:`add_keys` of ``(i, j, weight)`` edges over ``http://e/{i}``."""
    return scheduler.add_keys([key(scheduler, i, j) for i, j, _ in edges], [w for *_, w in edges])


def pop(scheduler) -> tuple[tuple[str, str], float]:
    packed, priority = scheduler.pop_key()
    return pair_of(scheduler.context.uris, packed), priority


class TestScheduling:
    def test_add_keys_and_pop_order(self):
        scheduler = make_scheduler()
        assert fill(scheduler, (0, 1, 1.0), (2, 3, 5.0), (4, 5, 3.0)) == 3
        assert len(scheduler) == 3
        pair, priority = pop(scheduler)
        assert pair == (uri(2), uri(3))
        assert priority == pytest.approx(5.0)

    def test_duplicate_edges_keep_max_weight(self):
        scheduler = make_scheduler()
        assert fill(scheduler, (0, 1, 1.0)) == 1
        assert fill(scheduler, (1, 0, 3.0)) == 0
        assert queued(scheduler) == {(uri(0), uri(1)): 3.0}

    def test_lower_duplicate_ignored(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 3.0))
        fill(scheduler, (0, 1, 1.0))
        assert queued(scheduler) == {(uri(0), uri(1)): 3.0}

    def test_popped_pairs_not_resurrected(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 1.0))
        scheduler.pop_key()
        assert fill(scheduler, (0, 1, 9.0)) == 0
        assert scheduler.discover_ids(*ids(scheduler, 0, 1), 9.0) is False
        assert len(scheduler) == 0 and not scheduler

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make_scheduler().pop_key()

    def test_len_counts_queued_pairs_only(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 2.0), (2, 3, 1.0))
        assert len(scheduler) == 2 and scheduler
        popped, _ = scheduler.pop_key()
        assert len(scheduler) == 1
        assert popped not in scheduler._heap and key(scheduler, 2, 3) in scheduler._heap

    def test_unknown_uris_do_not_get_interned_by_lookups(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 1.0))
        x, y = (scheduler.context.interner.get(u) for u in ("http://x", "http://y"))
        assert scheduler.boost_ids(x, y, 1.0) is False
        assert scheduler.refresh_involving_ids([x, y]) == 0
        assert scheduler.count_involving([x]) == 0
        assert len(scheduler.context.interner) == 8  # the described URIs

    def test_keys_are_canonical_and_oriented_by_uri(self):
        scheduler = make_scheduler()
        context = scheduler.context
        # One packed key whichever way round; URI order, not id order,
        # orients it.
        assert key(scheduler, 7, 0) == key(scheduler, 0, 7)
        fill(scheduler, (7, 0, 1.0))
        packed, _ = scheduler.pop_key()
        assert [context.uris[i] for i in context.oriented(packed)] == [uri(0), uri(7)]

    def test_self_comparison_rejected(self):
        with pytest.raises(ValueError):
            key(make_scheduler(), 1, 1)

    def test_tie_break_is_insertion_order(self):
        scheduler = make_scheduler()
        fill(scheduler, (5, 6, 1.0))
        fill(scheduler, (1, 2, 1.0))
        assert pop(scheduler)[0] == (uri(5), uri(6))
        assert pop(scheduler)[0] == (uri(1), uri(2))


class TestBoosting:
    def test_boost_reorders(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 1.0), (2, 3, 2.0))
        assert scheduler.boost_ids(*ids(scheduler, 0, 1), 5.0) is True
        assert pop(scheduler)[0] == (uri(0), uri(1))

    def test_priority_is_base_plus_boosts(self):
        scheduler = make_scheduler()
        fill(scheduler, (1, 2, 2.5))
        scheduler.boost_ids(*ids(scheduler, 2, 1), 1.0)
        scheduler.boost_ids(*ids(scheduler, 1, 2), 0.5)
        assert priorities(scheduler) == {key(scheduler, 1, 2): 4.0}

    def test_rescheduling_a_boosted_pair_keeps_its_boosts(self):
        scheduler = make_scheduler()
        # Weights whose sum depends on the order it is taken in:
        # (w + d1) + d2 is one ulp above w + (d1 + d2).
        w, d1, d2 = 13.445080768798997, 16.95020040137528, 15.277854633342512
        fill(scheduler, (0, 1, w))
        scheduler.boost_ids(*ids(scheduler, 0, 1), d1)
        scheduler.boost_ids(*ids(scheduler, 0, 1), d2)
        boosted = priorities(scheduler)[key(scheduler, 0, 1)]
        assert boosted == pytest.approx((w + d1) + d2, rel=1e-15)
        assert fill(scheduler, (0, 1, 1.0)) == 0  # a lower base changes nothing
        assert priorities(scheduler)[key(scheduler, 0, 1)] == boosted
        fill(scheduler, (1, 0, w + 1.0))  # a higher base keeps the boosts
        assert priorities(scheduler)[key(scheduler, 0, 1)] == pytest.approx(boosted + 1.0)

    def test_boost_unqueued_returns_false(self):
        scheduler = make_scheduler()
        assert scheduler.boost_ids(*ids(scheduler, 6, 7), 1.0) is False

    def test_discover_counts_new_pairs(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 1.0))
        assert scheduler.discover_ids(*ids(scheduler, 2, 3), 0.5) is True
        assert scheduler.discovered_pairs == 1
        # Re-discovering a queued pair raises weight but is not "new".
        assert scheduler.discover_ids(*ids(scheduler, 0, 1), 2.0) is False
        assert scheduler.discovered_pairs == 1
        assert queued(scheduler)[(uri(0), uri(1))] == 2.0

    def test_refresh_recomputes_benefit(self):
        context = make_context()
        scheduler = ComparisonScheduler(EntityCoverageBenefit(), context)
        fill(scheduler, (0, 1, 2.0))
        initial = queued(scheduler)[(uri(0), uri(1))]
        # Resolving e0 elsewhere drops the pair's coverage estimate.
        context.match_graph.record_ids(*ids(scheduler, 0, 5), 1.0, True)
        assert scheduler.refresh_involving_ids(ids(scheduler, 0)) == 1
        assert queued(scheduler)[(uri(0), uri(1))] < initial

    def test_discovered_pairs_join_the_refresh_buckets(self):
        scheduler = make_scheduler()
        fill(scheduler, (0, 1, 1.0))
        assert scheduler.count_involving(ids(scheduler, 0)) == 1  # buckets built
        scheduler.discover_ids(*ids(scheduler, 0, 2), 0.5)
        assert scheduler.count_involving(ids(scheduler, 0)) == 2
        assert scheduler.refresh_involving_ids(ids(scheduler, 2)) == 1

    def test_refresh_unqueued_returns_zero(self):
        scheduler = make_scheduler()
        assert scheduler.refresh_involving_ids(ids(scheduler, 6)) == 0


class TestBenefitWeighting:
    def test_priority_multiplies_weight_and_estimate(self):
        context = make_context()
        scheduler = ComparisonScheduler(EntityCoverageBenefit(), context)
        # Resolve e0-e1; pairs touching them become low priority.
        context.match_graph.record_ids(*ids(scheduler, 0, 1), 1.0, True)
        fill(scheduler, (0, 2, 2.0))  # estimate 0.5
        fill(scheduler, (3, 4, 1.5))  # estimate 1.0
        # 1.5 * 1.0 > 2.0 * 0.5 -> the unresolved pair wins.
        assert pop(scheduler)[0] == (uri(3), uri(4))

    def test_quantity_benefit_is_pure_weight_order(self):
        scheduler = make_scheduler(QuantityBenefit())
        fill(scheduler, (0, 1, 1.0), (2, 3, 2.0))
        assert pop(scheduler)[1] == pytest.approx(2.0)


class TestBulkFill:
    """``add_keys`` on any frontier equals one ``discover_ids`` per edge
    (the one-pair path) but for the discovery counter."""

    EDGES = [
        (0, 1, 1.0),
        (2, 3, 1.0),  # ties with the first
        (1, 0, 2.5),  # raises the first
        (4, 5, 2.5),  # ties with the raised one
        (2, 3, 0.5),  # lower duplicate
        (0, 5, 9.0),
    ]

    def drained(self, fill_with, prepare=lambda scheduler: None):
        scheduler = make_scheduler(EntityCoverageBenefit())
        prepare(scheduler)
        added = fill_with(scheduler)
        return added, [pop(scheduler) for _ in range(len(scheduler))]

    def per_edge(self, scheduler):
        return sum(scheduler.discover_ids(*ids(scheduler, i, j), w) for i, j, w in self.EDGES)

    def bulk(self, scheduler):
        return fill(scheduler, *self.EDGES)

    def test_empty_frontier(self):
        assert self.drained(self.bulk) == self.drained(self.per_edge)
        assert self.drained(self.bulk)[0] == 4

    def test_used_frontier(self):
        def prepare(scheduler):
            fill(scheduler, (2, 3, 0.25))  # queued: merged
            fill(scheduler, (0, 5, 1.0))
            scheduler.pop_key()  # (0, 5) is decided: not resurrected
            fill(scheduler, (1, 2, 1.0))

        assert self.drained(self.bulk, prepare) == self.drained(self.per_edge, prepare)
        assert self.drained(self.bulk, prepare)[0] == 2

    def test_buckets_follow_the_fill(self):
        scheduler = make_scheduler()
        fill(scheduler, *self.EDGES)
        assert scheduler.refresh_involving_ids(ids(scheduler, 0)) == 2
        unknown = scheduler.context.interner.get("http://e/9")
        assert scheduler.count_involving([*ids(scheduler, 0, 5), unknown]) == 4
        assert scheduler.count_involving([]) == 0

    def test_refresh_involving_counts_queued_pairs_only(self):
        scheduler = make_scheduler()
        fill(scheduler, (1, 2, 2.0), (1, 3, 1.0), (4, 5, 1.0))
        assert scheduler.refresh_involving_ids(ids(scheduler, 1)) == 2
        for _ in range(3):
            scheduler.pop_key()
        assert scheduler.refresh_involving_ids(ids(scheduler, 1)) == 0
