"""The sift-based addressable binary heap that ``heapq`` replaced.

Kept verbatim (class renamed, the operations the heap no longer has
dropped) as a test-local oracle:
``tests/utils/test_heap_differential.py`` drives it and
:class:`repro.utils.heap.AddressableMaxHeap` through the same operations
and requires identical answers, pop for pop.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)


class ArrayMaxHeap(Generic[T]):
    """Binary max-heap supporting priority updates of queued items.

    >>> heap = ArrayMaxHeap()
    >>> heap.push("a", 1.0)
    >>> heap.push("b", 3.0)
    >>> heap.push("c", 2.0)
    >>> heap.update("a", 5.0)
    >>> heap.pop()
    ('a', 5.0)
    >>> heap.pop()
    ('b', 3.0)
    """

    __slots__ = ("_entries", "_positions", "_counter")

    def __init__(self) -> None:
        # Each entry is [priority, tie_breaker, item].
        self._entries: list[list] = []
        self._positions: dict[T, int] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, item: T) -> bool:
        return item in self._positions

    def priority(self, item: T) -> float:
        """Return the current priority of *item*.

        Raises:
            KeyError: if *item* is not queued.
        """
        return self._entries[self._positions[item]][0]

    def push(self, item: T, priority: float) -> None:
        """Insert *item* with *priority*.

        Raises:
            ValueError: if *item* is already queued (use :meth:`update`).
        """
        if item in self._positions:
            raise ValueError(f"item already queued: {item!r}")
        # Earlier insertions win ties, hence the negated counter for a
        # max-heap ordering on [priority, tie_breaker].
        entry = [priority, -self._counter, item]
        self._counter += 1
        self._entries.append(entry)
        self._positions[item] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def push_or_update(self, item: T, priority: float) -> None:
        """Insert *item*, or change its priority if already queued."""
        if item in self._positions:
            self.update(item, priority)
        else:
            self.push(item, priority)

    def update(self, item: T, priority: float) -> None:
        """Change the priority of a queued *item*.

        Raises:
            KeyError: if *item* is not queued.
        """
        pos = self._positions[item]
        old = self._entries[pos][0]
        self._entries[pos][0] = priority
        if priority > old:
            self._sift_up(pos)
        elif priority < old:
            self._sift_down(pos)

    def pop(self) -> tuple[T, float]:
        """Remove and return ``(item, priority)`` of the maximum.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._entries:
            raise IndexError("pop from an empty heap")
        top = self._entries[0]
        last = self._entries.pop()
        del self._positions[top[2]]
        if self._entries:
            self._entries[0] = last
            self._positions[last[2]] = 0
            self._sift_down(0)
        return top[2], top[0]

    def items(self) -> Iterator[tuple[T, float]]:
        """Iterate over ``(item, priority)`` pairs in arbitrary heap order."""
        for priority, _tie, item in self._entries:
            yield item, priority

    # -- internal sifting -------------------------------------------------

    def _ordered_before(self, a: int, b: int) -> bool:
        ea, eb = self._entries[a], self._entries[b]
        return (ea[0], ea[1]) > (eb[0], eb[1])

    def _swap(self, a: int, b: int) -> None:
        entries = self._entries
        entries[a], entries[b] = entries[b], entries[a]
        self._positions[entries[a][2]] = a
        self._positions[entries[b][2]] = b

    def _sift_up(self, pos: int) -> None:
        while pos > 0:
            parent = (pos - 1) >> 1
            if self._ordered_before(pos, parent):
                self._swap(pos, parent)
                pos = parent
            else:
                break

    def _sift_down(self, pos: int) -> None:
        size = len(self._entries)
        while True:
            left = 2 * pos + 1
            right = left + 1
            best = pos
            if left < size and self._ordered_before(left, best):
                best = left
            if right < size and self._ordered_before(right, best):
                best = right
            if best == pos:
                break
            self._swap(pos, best)
            pos = best
