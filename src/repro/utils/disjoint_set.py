"""Disjoint-set forest (union-find) with path compression and union by size.

Used over hashable items by :func:`repro.matching.clustering.
connected_components` and by attribute clustering; the match graph keeps
its own union-find over dense ids (a parent list).
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)


class DisjointSet(Generic[T]):
    """Union-find over arbitrary hashable items.

    Items are added lazily on first use; :meth:`find` on an unseen item
    creates a singleton set for it.

    >>> ds = DisjointSet()
    >>> ds.union("a", "b")
    True
    >>> ds.connected("a", "b")
    True
    >>> ds.connected("a", "c")
    False
    """

    __slots__ = ("_parent", "_size", "_count")

    def __init__(self, items: Iterable[T] = ()) -> None:
        self._parent: dict[T, T] = {}
        self._size: dict[T, int] = {}
        self._count = 0
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        """Number of items tracked."""
        return len(self._parent)

    def __contains__(self, item: T) -> bool:
        return item in self._parent

    @property
    def set_count(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._count

    def add(self, item: T) -> bool:
        """Register *item* as a singleton set.  Returns True if it was new."""
        if item in self._parent:
            return False
        self._parent[item] = item
        self._size[item] = 1
        self._count += 1
        return True

    def find(self, item: T) -> T:
        """Return the canonical representative of *item*'s set."""
        self.add(item)
        root = item
        parent = self._parent
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: T, b: T) -> bool:
        """Merge the sets containing *a* and *b*.

        Returns:
            True if a merge happened (they were in different sets).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._count -= 1
        return True

    def connected(self, a: T, b: T) -> bool:
        """True if *a* and *b* are in the same set (adds unseen items)."""
        return self.find(a) == self.find(b)

    def size_of(self, item: T) -> int:
        """Size of the set containing *item*."""
        return self._size[self.find(item)]

    def items(self) -> list[T]:
        """All tracked items, in insertion order."""
        return list(self._parent)

    def sets(self) -> Iterator[frozenset[T]]:
        """Iterate over the current sets as frozensets."""
        groups: dict[T, list[T]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        for members in groups.values():
            yield frozenset(members)

    def to_clusters(self) -> list[frozenset[T]]:
        """Return all sets, largest first, deterministic order."""
        clusters = list(self.sets())
        clusters.sort(key=lambda c: (-len(c), sorted(map(repr, c))))
        return clusters
