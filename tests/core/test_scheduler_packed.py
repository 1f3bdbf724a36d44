"""The scheduler's packed context-id frontier: public behaviour unchanged."""

from __future__ import annotations

import pytest

from repro.core.benefit import QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def make_scheduler() -> ComparisonScheduler:
    collection = EntityCollection(
        [EntityDescription(f"http://e/{i}", {"p": [f"v{i}"]}) for i in range(8)],
        name="kb",
    )
    return ComparisonScheduler(QuantityBenefit(), ResolutionContext([collection]))


class TestPackedFrontier:
    def test_pop_returns_canonical_uri_pairs(self):
        scheduler = make_scheduler()
        # URI-lexicographic canonicalization, independent of id order.
        scheduler.schedule("http://e/7", "http://e/0", 1.0)
        pair, _ = scheduler.pop()
        assert pair == ("http://e/0", "http://e/7")

    def test_self_comparison_rejected(self):
        scheduler = make_scheduler()
        with pytest.raises(ValueError):
            scheduler.schedule("http://e/1", "http://e/1", 1.0)

    def test_unknown_uris_do_not_get_interned_by_lookups(self):
        scheduler = make_scheduler()
        assert scheduler.base_weight("http://x", "http://y") == 0.0
        assert scheduler.boost("http://x", "http://y", 1.0) is False
        assert scheduler.refresh("http://x", "http://y") is False
        assert ("http://x", "http://y") not in scheduler
        assert len(scheduler.context.interner) == 8  # the described URIs

    def test_priority_lookup(self):
        scheduler = make_scheduler()
        scheduler.schedule("http://e/1", "http://e/2", 2.5)
        assert scheduler.priority("http://e/1", "http://e/2") == pytest.approx(2.5)
        with pytest.raises(KeyError):
            scheduler.priority("http://e/3", "http://e/4")

    def test_queued_pairs_iterates_uri_tuples(self):
        scheduler = make_scheduler()
        scheduler.schedule("http://e/1", "http://e/2", 2.0)
        scheduler.schedule("http://e/3", "http://e/4", 1.0)
        queued = dict(scheduler.queued_pairs())
        assert queued == {
            ("http://e/1", "http://e/2"): pytest.approx(2.0),
            ("http://e/3", "http://e/4"): pytest.approx(1.0),
        }

    def test_refresh_involving_counts_touched_pairs(self):
        scheduler = make_scheduler()
        scheduler.schedule("http://e/1", "http://e/2", 2.0)
        scheduler.schedule("http://e/1", "http://e/3", 1.0)
        scheduler.schedule("http://e/4", "http://e/5", 1.0)
        assert scheduler.refresh_involving("http://e/1") == 2
        assert scheduler.refresh_involving("http://e/9") == 0
        scheduler.pop()
        scheduler.pop()
        scheduler.pop()
        assert scheduler.refresh_involving("http://e/1") == 0

    def test_tie_break_is_insertion_order(self):
        scheduler = make_scheduler()
        scheduler.schedule("http://e/5", "http://e/6", 1.0)
        scheduler.schedule("http://e/1", "http://e/2", 1.0)
        assert scheduler.pop()[0] == ("http://e/5", "http://e/6")
        assert scheduler.pop()[0] == ("http://e/1", "http://e/2")
