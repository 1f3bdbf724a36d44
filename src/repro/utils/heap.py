"""An addressable max-heap on top of :mod:`heapq`.

The progressive scheduler (:mod:`repro.core.scheduler`) keeps every candidate
comparison in a priority queue keyed by its current utility.  The *update*
phase of MinoanER re-weights comparisons whose neighbourhood was touched by a
new match, which requires *increase-key* / *decrease-key* / *remove*.
:mod:`heapq` has none of them, but it sifts in C, so this module gets them
by **lazy invalidation**: a priority change pushes a fresh
``(-priority, seq, item)`` entry and leaves the old one in the array as a
stale entry, recognised (and skipped) at pop time because the
``item → entry`` dict no longer points at it.  Stale entries are compacted
away as soon as they outnumber the live ones, so the array never holds more
than ``2 × len(heap)`` entries and every operation stays amortised
O(log n), with O(1) priority lookup by item.

Items must be hashable.  The order is total — priority descending, then
insertion order (``seq``, which an item keeps across updates) — so pop
order is a function of the operations alone, never of the array layout.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from operator import itemgetter, neg
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)


class AddressableMaxHeap(Generic[T]):
    """Max-heap supporting priority updates and removal of queued items.

    >>> heap = AddressableMaxHeap()
    >>> heap.push("a", 1.0)
    >>> heap.push("b", 3.0)
    >>> heap.push("c", 2.0)
    >>> heap.update("a", 5.0)
    >>> heap.pop()
    ('a', 5.0)
    >>> heap.pop()
    ('b', 3.0)
    """

    __slots__ = ("_entries", "_live", "_counter")

    def __init__(self) -> None:
        # Each entry is the tuple (-priority, seq, item); ``_live`` maps an
        # item to its one current entry, every other entry is stale.
        self._entries: list[tuple] = []
        self._live: dict[T, tuple] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, item: T) -> bool:
        return item in self._live

    def priority(self, item: T) -> float:
        """Return the current priority of *item*.

        Raises:
            KeyError: if *item* is not queued.
        """
        return -self._live[item][0]

    def push(self, item: T, priority: float) -> None:
        """Insert *item* with *priority*.

        Raises:
            ValueError: if *item* is already queued (use :meth:`update`).
        """
        if item in self._live:
            raise ValueError(f"item already queued: {item!r}")
        entry = (-priority, self._counter, item)
        self._counter += 1
        self._live[item] = entry
        heappush(self._entries, entry)

    def push_many(self, items: Iterable[T], priorities: Iterable[float]) -> None:
        """Insert each of *items* with the matching one of *priorities*,
        with one heapify.

        Pops exactly like one :meth:`push` per pair in the same order
        (the order is total), in O(n) instead of O(n log n).

        Raises:
            ValueError: if an item is already queued or repeated; the
                heap is then left unchanged.
        """
        entries = list(zip(map(neg, priorities), count(self._counter), items))
        fresh = dict(zip(map(itemgetter(2), entries), entries))
        if len(fresh) < len(entries) or not self._live.keys().isdisjoint(fresh):
            raise ValueError("push_many: an item is already queued or repeated")
        self._counter += len(entries)
        self._live.update(fresh)
        self._entries.extend(entries)
        heapify(self._entries)

    def push_or_update(self, item: T, priority: float) -> None:
        """Insert *item*, or change its priority if already queued."""
        if item in self._live:
            self.update(item, priority)
        else:
            self.push(item, priority)

    def update(self, item: T, priority: float) -> None:
        """Change the priority of a queued *item*.

        Raises:
            KeyError: if *item* is not queued.
        """
        stale = self._live[item]
        if -priority == stale[0]:
            return
        entry = (-priority, stale[1], item)
        self._live[item] = entry
        heappush(self._entries, entry)
        self._compact_if_mostly_stale()

    def increase_if_higher(self, item: T, priority: float) -> bool:
        """Raise the priority of *item* to *priority* if that is higher.

        Returns:
            True if the priority changed.
        """
        if priority <= -self._live[item][0]:
            return False
        self.update(item, priority)
        return True

    def add_to_priority(self, item: T, delta: float) -> float:
        """Add *delta* to the priority of a queued *item*.

        Returns:
            The new priority.
        """
        new = -self._live[item][0] + delta
        self.update(item, new)
        return new

    def peek(self) -> tuple[T, float]:
        """Return ``(item, priority)`` of the maximum without removing it.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._live:
            raise IndexError("peek from an empty heap")
        entries, live = self._entries, self._live
        while live.get(entries[0][2]) is not entries[0]:
            heappop(entries)
        return entries[0][2], -entries[0][0]

    def pop(self) -> tuple[T, float]:
        """Remove and return ``(item, priority)`` of the maximum.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._live:
            raise IndexError("pop from an empty heap")
        entries, live = self._entries, self._live
        while True:
            entry = heappop(entries)
            item = entry[2]
            if live.get(item) is entry:
                del live[item]
                if len(entries) > 2 * len(live):  # the compaction test, inlined
                    self._compact_if_mostly_stale()
                return item, -entry[0]

    def remove(self, item: T) -> float:
        """Remove *item* from the heap and return its priority.

        Raises:
            KeyError: if *item* is not queued.
        """
        entry = self._live.pop(item)
        self._compact_if_mostly_stale()
        return -entry[0]

    def discard(self, item: T) -> bool:
        """Remove *item* if queued.  Returns True if it was present."""
        if item not in self._live:
            return False
        self.remove(item)
        return True

    def queued(self, items: Iterable[T]) -> Iterator[T]:
        """The members of *items* that are queued, lazily and in order."""
        return filter(self._live.__contains__, items)

    def items(self) -> Iterator[tuple[T, float]]:
        """Iterate over ``(item, priority)`` pairs in arbitrary order."""
        for neg_priority, _seq, item in self._live.values():
            yield item, -neg_priority

    def clear(self) -> None:
        """Drop every queued item."""
        self._entries.clear()
        self._live.clear()

    def _compact_if_mostly_stale(self) -> None:
        # Rebuilding costs O(live) and is reached only after more than
        # ``live`` invalidations, so it is amortised O(1) per operation;
        # the total order makes the rebuilt array pop identically.
        if len(self._entries) > 2 * len(self._live):
            self._entries = list(self._live.values())
            heapify(self._entries)
