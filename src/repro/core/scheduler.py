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

The frontier speaks its resolution context's ids only: every dict and
heap key is a packed ``a << 32 | b`` pair of context ids, :attr:`pop_key`
hands that key back, and the update phase boosts and discovers by id.
URIs are the session's business, resolved once at the report.  Ties
break by insertion order, never by id, so scheduling does not depend on
how ids were assigned.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat
from typing import Iterable, TYPE_CHECKING

from repro.model.interner import PAIR_MASK, PAIR_SHIFT, pack_pair
from repro.utils.heap import AddressableMaxHeap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.benefit import BenefitModel
    from repro.core.engine import ResolutionContext


class ComparisonScheduler:
    """Priority queue over candidate comparisons.

    Args:
        benefit: the benefit model whose estimates shape priorities.
        context: resolution context handed to benefit estimation; its
            ids key the queue.
    """

    def __init__(self, benefit: "BenefitModel", context: "ResolutionContext") -> None:
        self.benefit = benefit
        self.context = context
        self._heap: AddressableMaxHeap[int] = AddressableMaxHeap()
        #: ``pop_key()``: remove and return ``(packed key, priority)`` of the
        #: best comparison (IndexError when empty) — the heap's own pop
        self.pop_key = self._heap.pop
        #: every pair ever scheduled → base weight (no decided pair re-queues)
        self._base_weight: dict[int, float] = {}
        self._boost: dict[int, float] = {}  # boosted pairs only
        #: id → every pair ever queued touching it, popped ones included
        #: (readers ask the heap); built on the first read after a fill
        self._by_id: defaultdict[int, list[int]] | None = None
        #: number of pairs injected by the update phase, for diagnostics
        self.discovered_pairs = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # -- filling -------------------------------------------------------------

    def add_keys(self, keys: list[int], weights: list[float]) -> int:
        """Queue packed pairs with their base weights.

        New pairs enter the heap in one bulk fill, in first-seen order —
        the order one ``_schedule`` per pair would give them.

        Returns:
            Number of pairs queued (duplicates are merged, keeping the
            maximum base weight).
        """
        fresh = dict(zip(keys, weights))
        if len(fresh) < len(keys):  # a repeated pair keeps its largest weight
            for key, weight in zip(keys, weights):
                if weight > fresh[key]:
                    fresh[key] = weight
        for key in self._base_weight.keys() & fresh.keys():
            self._schedule(key, fresh.pop(key))
        self._base_weight.update(fresh)
        self._by_id = None
        estimate, context = self.benefit.estimate, self.context
        self._heap.push_many(fresh, [  # _priority, inlined; no boost yet
            weight * max(estimate(key >> PAIR_SHIFT, key & PAIR_MASK, context), 1e-9)
            for key, weight in fresh.items()
        ])
        return len(fresh)

    def _schedule(self, key: int, weight: float) -> bool:
        if key in self._heap:
            if weight > self._base_weight[key]:
                self._base_weight[key] = weight
                self._reprioritize(key)
            return False
        if key in self._base_weight:
            return False  # already popped/decided; do not resurrect
        self._base_weight[key] = weight
        if self._by_id is not None:
            self._by_id[key >> PAIR_SHIFT].append(key)
            self._by_id[key & PAIR_MASK].append(key)
        self._heap.push(key, self._priority(key))
        return True

    def discover_ids(self, a: int, b: int, weight: float) -> bool:
        """Inject a pair proposed by the update phase (possibly unblocked).

        Returns True if the pair entered the queue.
        """
        queued = self._schedule(pack_pair(a, b), weight)
        self.discovered_pairs += queued
        return queued

    # -- prioritization --------------------------------------------------------

    def _priority(self, key: int) -> float:
        # Queue priority: (boosted) weight times a benefit estimate floored above 0.
        estimate = self.benefit.estimate(key >> PAIR_SHIFT, key & PAIR_MASK, self.context)
        return (self._base_weight[key] + self._boost.get(key, 0.0)) * max(estimate, 1e-9)

    def _reprioritize(self, key: int) -> None:
        self._heap.update(key, self._priority(key))

    def boost_ids(self, a: int, b: int, delta: float) -> bool:
        """Add *delta* evidence weight to a queued pair.

        Returns:
            True if the pair was queued and re-prioritized.
        """
        key = pack_pair(a, b)
        if key not in self._heap:
            return False
        self._boost[key] = self._boost.get(key, 0.0) + delta
        self._reprioritize(key)
        return True

    # -- consumption ---------------------------------------------------------

    def refresh_involving_ids(self, ids: Iterable[int]) -> int:
        """Re-estimate every queued pair touching each of *ids*.

        Benefit estimates depend on the evolving match state (e.g. a pair's
        entity-coverage value drops once either endpoint is resolved); the
        engine calls this after a confirmed match with the ids the benefit
        model declares stale, so queued priorities track reality.  Returns
        the number of re-prioritizations.
        """
        keys = self._queued_involving(ids)
        for key in keys:
            self._reprioritize(key)
        return len(keys)

    def count_involving(self, ids: Iterable[int]) -> int:
        """Queued pairs touching each of *ids*, summed — a pair with both
        endpoints among them counts twice, as one refresh per id would
        count it."""
        return len(self._queued_involving(ids))

    def _queued_involving(self, ids: Iterable[int]) -> list[int]:
        """Queued pairs touching each of *ids*, once per id they touch."""
        by_id = self._by_id
        if by_id is None:
            by_id = self._by_id = defaultdict(list)
            for key in self._base_weight:
                by_id[key >> PAIR_SHIFT].append(key)
                by_id[key & PAIR_MASK].append(key)
        return list(self._heap.queued(chain.from_iterable(map(by_id.get, ids, repeat(())))))
