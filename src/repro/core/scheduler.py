"""The scheduling phase: a benefit-aware comparison priority queue.

The scheduler owns the frontier of candidate comparisons.  Each queued
pair carries a **base weight** — its meta-blocking edge weight, i.e. the
structural match-likelihood evidence — plus any **evidence boosts** the
update phase has granted it; the queue priority is::

    priority = (base_weight + boost) × benefit_estimate(pair)

so that the next comparison popped is the one most likely to increase the
*targeted* benefit, which is exactly the poster's definition of the
scheduling phase.  The heap is addressable: the update phase re-prioritizes
queued pairs in O(log n) and can inject brand-new pairs that blocking never
proposed (the "discover new candidate description pairs" capability).

Internally the frontier runs on the integer-ID backbone: URIs are
interned to dense ids on first sight and every dict/heap key is a packed
``a << 32 | b`` integer — the string-tuple churn of the frontier-update
hot loop (one tuple allocation plus two string hashes per touch) is gone.
The public API stays URI-based, and ties still break by insertion order,
so scheduling behaviour is unchanged.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from repro.metablocking.graph import WeightedEdge
from repro.model.interner import EntityInterner, pack_pair
from repro.utils.heap import AddressableMaxHeap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.benefit import BenefitModel
    from repro.core.engine import ResolutionContext


class ComparisonScheduler:
    """Priority queue over candidate comparisons.

    Args:
        benefit: the benefit model whose estimates shape priorities.
        context: resolution context handed to benefit estimation.
    """

    def __init__(self, benefit: "BenefitModel", context: "ResolutionContext") -> None:
        self.benefit = benefit
        self.context = context
        self._interner = EntityInterner()
        # the interner's live id → URI table (append-only, never rebound)
        self._uris = self._interner.uri_table()
        self._heap: AddressableMaxHeap[int] = AddressableMaxHeap()
        self._base_weight: dict[int, float] = {}
        self._boost: dict[int, float] = {}
        self._by_id: dict[int, set[int]] = {}
        #: pairs ever scheduled (so re-discovery does not re-queue decided pairs)
        self._seen: set[int] = set()
        #: number of pairs injected by the update phase, for diagnostics
        self.discovered_pairs = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        key = self._key_of(pair[0], pair[1])
        return key is not None and key in self._heap

    # -- id plumbing ---------------------------------------------------------

    def _key(self, uri_a: str, uri_b: str) -> int:
        """Packed key of the pair, interning unseen URIs.

        Raises:
            ValueError: when both URIs are identical (a description is
                never compared with itself).
        """
        if uri_a == uri_b:
            raise ValueError(f"self-comparison: {uri_a!r}")
        intern = self._interner.intern
        return pack_pair(intern(uri_a), intern(uri_b))

    def _key_of(self, uri_a: str, uri_b: str) -> int | None:
        """Packed key of the pair, or None when either URI is unknown."""
        get = self._interner.get
        id_a, id_b = get(uri_a), get(uri_b)
        if id_a < 0 or id_b < 0 or id_a == id_b:
            return None
        return pack_pair(id_a, id_b)

    def _pair(self, key: int) -> tuple[str, str]:
        """Canonical (URI-sorted) pair of a packed key."""
        uris = self._uris
        uri_a, uri_b = uris[key >> 32], uris[key & 0xFFFFFFFF]
        return (uri_a, uri_b) if uri_a < uri_b else (uri_b, uri_a)

    # -- filling -------------------------------------------------------------

    def add_edges(self, edges: Iterable[WeightedEdge]) -> int:
        """Queue the comparisons surviving meta-blocking.

        New pairs enter the heap in one bulk fill, in first-seen order —
        the order one :meth:`schedule` per edge would give them.

        Returns:
            Number of pairs queued (duplicates are merged, keeping the
            maximum base weight).
        """
        seen = self._seen
        fresh: dict[int, float] = {}
        for edge in edges:
            key = self._key(edge.left, edge.right)
            if key in seen:
                self.schedule(edge.left, edge.right, edge.weight)
            elif key not in fresh or edge.weight > fresh[key]:
                fresh[key] = edge.weight
        seen.update(fresh)
        self._base_weight.update(fresh)
        self._boost.update(dict.fromkeys(fresh, 0.0))
        by_id = self._by_id
        for key in fresh:
            by_id.setdefault(key >> 32, set()).add(key)
            by_id.setdefault(key & 0xFFFFFFFF, set()).add(key)
        self._heap.push_many((key, self._priority(key)) for key in fresh)
        return len(fresh)

    def schedule(self, uri_a: str, uri_b: str, weight: float) -> bool:
        """Queue one pair with the given base weight.

        Already-seen pairs are merged: the base weight is raised to the
        maximum of old and new, never lowered.  Returns True if the pair
        is newly queued.
        """
        key = self._key(uri_a, uri_b)
        if key in self._heap:
            if weight > self._base_weight[key]:
                self._base_weight[key] = weight
                self._reprioritize(key)
            return False
        if key in self._seen:
            return False  # already popped/decided; do not resurrect
        self._seen.add(key)
        self._base_weight[key] = weight
        self._boost[key] = 0.0
        self._by_id.setdefault(key >> 32, set()).add(key)
        self._by_id.setdefault(key & 0xFFFFFFFF, set()).add(key)
        self._heap.push(key, self._priority(key))
        return True

    def discover(self, uri_a: str, uri_b: str, weight: float) -> bool:
        """Inject a pair proposed by the update phase (possibly unblocked).

        Returns True if the pair entered the queue.
        """
        key = self._key(uri_a, uri_b)
        was_new = key not in self._seen and key not in self._heap
        queued = self.schedule(uri_a, uri_b, weight)
        if queued and was_new:
            self.discovered_pairs += 1
        return queued

    # -- prioritization --------------------------------------------------------

    def _priority(self, key: int) -> float:
        uri_a, uri_b = self._pair(key)
        estimate = self.benefit.estimate(uri_a, uri_b, self.context)
        return (self._base_weight[key] + self._boost[key]) * max(estimate, 1e-9)

    def _reprioritize(self, key: int) -> None:
        self._heap.update(key, self._priority(key))

    def priority(self, uri_a: str, uri_b: str) -> float:
        """Current queue priority of the pair.

        Raises:
            KeyError: if the pair is not queued.
        """
        key = self._key_of(uri_a, uri_b)
        if key is None:
            raise KeyError((uri_a, uri_b))
        return self._heap.priority(key)

    def boost(self, uri_a: str, uri_b: str, delta: float) -> bool:
        """Add *delta* evidence weight to a queued pair.

        Returns:
            True if the pair was queued and re-prioritized.
        """
        key = self._key_of(uri_a, uri_b)
        if key is None or key not in self._heap:
            return False
        self._boost[key] += delta
        self._reprioritize(key)
        return True

    def refresh(self, uri_a: str, uri_b: str) -> bool:
        """Recompute a queued pair's priority (benefit estimates drift as
        the match state evolves).  Returns True if the pair was queued."""
        key = self._key_of(uri_a, uri_b)
        if key is None or key not in self._heap:
            return False
        self._reprioritize(key)
        return True

    # -- consumption ---------------------------------------------------------

    def refresh_involving(self, uri: str) -> int:
        """Re-estimate every queued pair touching *uri*.

        Benefit estimates depend on the evolving match state (e.g. a pair's
        entity-coverage value drops once either endpoint is resolved); the
        engine calls this after a confirmed match for every URI the benefit
        model declares stale, so queued priorities track reality.  Returns
        the number of pairs re-prioritized.
        """
        entity_id = self._interner.get(uri)
        if entity_id < 0:
            return 0
        keys = self._by_id.get(entity_id)
        if not keys:
            return 0
        for key in keys:
            self._reprioritize(key)
        return len(keys)

    def count_involving(self, uris: Iterable[str]) -> int:
        """Queued pairs touching each of *uris*, summed — a pair with both
        endpoints among them counts twice, as one :meth:`refresh_involving`
        per URI would count it."""
        get_id = self._interner.get
        buckets = self._by_id
        return sum(len(buckets.get(get_id(uri), ())) for uri in uris)

    def queued_pairs(self) -> Iterable[tuple[tuple[str, str], float]]:
        """Iterate over ``(pair, priority)`` of queued comparisons
        (arbitrary heap order)."""
        for key, priority in self._heap.items():
            yield self._pair(key), priority

    def pop(self) -> tuple[tuple[str, str], float]:
        """Remove and return ``(pair, priority)`` of the best comparison.

        Raises:
            IndexError: when the queue is empty.
        """
        key, priority = self._heap.pop()
        for entity_id in (key >> 32, key & 0xFFFFFFFF):
            bucket = self._by_id.get(entity_id)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_id[entity_id]
        return self._pair(key), priority

    def peek(self) -> tuple[tuple[str, str], float]:
        """Best comparison without removing it."""
        key, priority = self._heap.peek()
        return self._pair(key), priority

    def base_weight(self, uri_a: str, uri_b: str) -> float:
        """Current base weight of a pair (0.0 if never scheduled)."""
        key = self._key_of(uri_a, uri_b)
        if key is None:
            return 0.0
        return self._base_weight.get(key, 0.0)
