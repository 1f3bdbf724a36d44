"""Unit and property tests for the addressable max-heap."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.utils.heap import AddressableMaxHeap


class TestBasics:
    def test_empty_heap_is_falsy(self):
        heap = AddressableMaxHeap()
        assert not heap
        assert len(heap) == 0

    def test_push_pop_single(self):
        heap = AddressableMaxHeap()
        heap.push("a", 1.5)
        assert heap.pop() == ("a", 1.5)
        assert not heap

    def test_pop_returns_maximum(self):
        heap = AddressableMaxHeap()
        heap.push("low", 1.0)
        heap.push("high", 9.0)
        heap.push("mid", 5.0)
        assert heap.pop() == ("high", 9.0)
        assert heap.pop() == ("mid", 5.0)
        assert heap.pop() == ("low", 1.0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            AddressableMaxHeap().pop()

    def test_duplicate_push_rejected(self):
        heap = AddressableMaxHeap()
        heap.push("x", 1.0)
        with pytest.raises(ValueError):
            heap.push("x", 2.0)

    def test_contains(self):
        heap = AddressableMaxHeap()
        heap.push("x", 1.0)
        assert "x" in heap
        assert "y" not in heap

    def test_ties_broken_by_insertion_order(self):
        heap = AddressableMaxHeap()
        heap.push("first", 1.0)
        heap.push("second", 1.0)
        heap.push("third", 1.0)
        assert [heap.pop()[0] for _ in range(3)] == ["first", "second", "third"]

    def test_queued_filters_in_the_given_order(self):
        heap = AddressableMaxHeap()
        for item in "abc":
            heap.push(item, 1.0)
        heap.pop()
        assert list(heap.queued("cxbay")) == ["c", "b"]

    def test_reusable_after_draining(self):
        heap = AddressableMaxHeap()
        heap.push("a", 1.0)
        heap.update("a", 2.0)
        heap.pop()
        heap.push("a", 0.5)  # a popped item may come back
        assert heap.pop() == ("a", 0.5)
        assert not heap._entries


class TestUpdates:
    def test_update_increases_priority(self):
        heap = AddressableMaxHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.update("a", 3.0)
        assert heap.pop() == ("a", 3.0)

    def test_update_decreases_priority(self):
        heap = AddressableMaxHeap()
        heap.push("a", 5.0)
        heap.push("b", 2.0)
        heap.update("a", 1.0)
        assert heap.pop() == ("b", 2.0)

    def test_update_missing_raises(self):
        with pytest.raises(KeyError):
            AddressableMaxHeap().update("ghost", 1.0)

    def test_push_or_update(self):
        heap = AddressableMaxHeap()
        heap.push_or_update("a", 1.0)
        heap.push_or_update("a", 7.0)
        assert len(heap) == 1
        assert heap.pop() == ("a", 7.0)

    def test_update_to_the_same_priority_pushes_no_entry(self):
        heap = AddressableMaxHeap()
        heap.push("a", 1.0)
        heap.update("a", 1.0)
        assert len(heap._entries) == 1

    def test_update_keeps_the_insertion_rank_among_ties(self):
        heap = AddressableMaxHeap()
        heap.push("first", 1.0)
        heap.push("second", 2.0)
        heap.update("first", 3.0)
        heap.update("first", 2.0)  # ties with "second", pushed later
        assert [heap.pop()[0] for _ in range(2)] == ["first", "second"]

    def test_pop_skips_stale_entries(self):
        heap = AddressableMaxHeap()
        heap.push("a", 9.0)
        heap.push("b", 5.0)
        heap.update("a", 1.0)  # the 9.0 entry stays in the array, stale
        assert heap.pop() == ("b", 5.0)
        assert heap.pop() == ("a", 1.0)
        assert not heap


class TestProperties:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200))
    def test_pop_order_matches_sorted(self, priorities):
        heap = AddressableMaxHeap()
        for index, priority in enumerate(priorities):
            heap.push(index, priority)
        popped = [heap.pop()[1] for _ in range(len(priorities))]
        assert popped == sorted(priorities, reverse=True)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(-100, 100)),
            max_size=200,
        )
    )
    def test_push_or_update_tracks_latest_priority(self, operations):
        heap = AddressableMaxHeap()
        reference: dict[int, float] = {}
        for key, priority in operations:
            heap.push_or_update(key, priority)
            reference[key] = priority
        assert len(heap) == len(reference)
        popped = {}
        while heap:
            key, priority = heap.pop()
            popped[key] = priority
        assert popped == reference

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        st.data(),
    )
    def test_agrees_with_heapq_after_updates(self, priorities, data):
        heap = AddressableMaxHeap()
        for index, priority in enumerate(priorities):
            heap.push(index, priority)
        alive = dict(enumerate(priorities))
        updates = data.draw(
            st.lists(st.tuples(st.sampled_from(sorted(alive)), st.floats(-1e6, 1e6)), max_size=100)
        )
        for key, priority in updates:
            heap.update(key, priority)
            alive[key] = priority
        assert len(heap._entries) <= 2 * len(heap)
        mirror = [-p for p in alive.values()]
        heapq.heapify(mirror)
        result = [heap.pop()[1] for _ in range(len(alive))]
        assert result == sorted(alive.values(), reverse=True)
        assert result == [-heapq.heappop(mirror) for _ in range(len(mirror))]
