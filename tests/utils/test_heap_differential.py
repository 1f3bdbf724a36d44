"""Stateful differential test: the heapq-backed heap against the array heap.

Both heaps define the same total order (priority descending, then
insertion order, which an item keeps across updates), so every answer —
each popped ``(item, priority)``, each ``len()``, the queued priorities —
must be identical whatever the interleaving.  Priorities come
from five values, so ties and updates to an *equal* priority are the
common case, and the runs are long enough to cross the compaction
threshold of the lazy heap many times.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from core.id_views import live
from repro.utils.heap import AddressableMaxHeap

from .array_heap_oracle import ArrayMaxHeap

items = st.integers(0, 11)
tied = st.sampled_from([-1.0, 0.0, 0.5, 0.5000000000000001, 2.0])


class TwoHeaps(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.new: AddressableMaxHeap[int] = AddressableMaxHeap()
        self.old: ArrayMaxHeap[int] = ArrayMaxHeap()

    def both(self, call):
        """Same outcome on both heaps: the same value or the same error."""
        outcomes = []
        for heap in (self.new, self.old):
            try:
                outcomes.append(("value", call(heap)))
            except (KeyError, ValueError, IndexError) as error:
                outcomes.append(("error", type(error)))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def queued(self, data):
        return data.draw(st.sampled_from(sorted(item for item, _ in self.old.items())))

    @rule(item=items, priority=tied)
    def push(self, item, priority):
        self.both(lambda heap: heap.push(item, priority))

    @rule(batch=st.lists(st.tuples(items, tied), max_size=8, unique_by=lambda p: p[0]))
    def push_many(self, batch):
        """One bulk fill on the new heap, one push per pair on the old."""
        fresh = [(item, priority) for item, priority in batch if item not in self.old]
        self.new.push_many([item for item, _ in fresh], [priority for _, priority in fresh])
        for item, priority in fresh:
            self.old.push(item, priority)

    @rule(item=items, priority=tied)
    def push_or_update(self, item, priority):
        self.both(lambda heap: heap.push_or_update(item, priority))

    @precondition(lambda self: self.old)
    @rule(data=st.data(), delta=st.sampled_from([1.5, -1.5, 0.0]))
    def update_higher_lower_equal(self, data, delta):
        item = self.queued(data)
        priority = self.old.priority(item) + delta
        self.both(lambda heap: heap.update(item, priority))

    @rule()
    def pop(self):
        self.both(lambda heap: heap.pop())

    @invariant()
    def same_size_and_content(self):
        assert len(self.new) == len(self.old)
        assert bool(self.new) == bool(self.old)
        assert live(self.new) == dict(self.old.items())

    @invariant()
    def stale_entries_are_bounded(self):
        assert len(self.new._entries) <= 2 * len(self.new)

    def teardown(self):
        while self.old:
            self.pop()
        self.pop()  # both raise IndexError


TestTwoHeaps = TwoHeaps.TestCase
TestTwoHeaps.settings = settings(max_examples=60, stateful_step_count=80, deadline=None)


@pytest.mark.parametrize("size", [1, 2, 7, 64, 500])
def test_update_storm_pops_identically(size):
    """Every item re-prioritised many times over, then drained."""
    new, old = AddressableMaxHeap(), ArrayMaxHeap()
    for heap in (new, old):
        for item in range(size):
            heap.push(item, float(item % 5))
        for step in range(6 * size):
            item = (step * 7) % size
            heap.push_or_update(item, float((step * 3 + item) % 4))
    assert len(new._entries) <= 2 * len(new)
    drained = [[heap.pop() for _ in range(len(heap))] for heap in (new, old)]
    assert drained[0] == drained[1]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 64, 500])
def test_push_many_pops_like_one_push_per_item(size):
    """Tied priorities included: insertion order breaks them either way."""
    pairs = [(item, float((item * 7) % 5)) for item in range(size)]
    bulk, single = AddressableMaxHeap(), AddressableMaxHeap()
    bulk.push_many(iter(range(size)), (priority for _, priority in pairs))
    for item, priority in pairs:
        single.push(item, priority)
    # Later single pushes tie-break after everything filled in bulk.
    for heap in (bulk, single):
        heap.push("late", 2.0)
        if size:
            heap.update(0, 4.0)
    assert [bulk.pop() for _ in range(len(bulk))] == [
        single.pop() for _ in range(len(single))
    ]


def test_push_many_rejects_queued_and_repeated_items_atomically():
    heap = AddressableMaxHeap()
    heap.push("a", 1.0)
    for batch in ([("b", 2.0), ("a", 3.0)], [("b", 2.0), ("c", 1.0), ("b", 0.0)]):
        with pytest.raises(ValueError):
            heap.push_many(*zip(*batch))
        assert live(heap) == {"a": 1.0}
    heap.push("b", 2.0)  # the rejected batch consumed no insertion rank
    heap.push("c", 2.0)
    assert [heap.pop()[0] for _ in range(3)] == ["b", "c", "a"]
