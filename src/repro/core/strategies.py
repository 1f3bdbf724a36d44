"""Preconfigured scheduling strategies.

Three ways to run the progressive loop:

* **static** — schedule once from the meta-blocking weights and never
  revisit: the update phase is disabled, so the comparison order is fixed
  up front (what a non-iterative progressive resolver does);
* **dynamic** — full MinoanER: every confirmed match immediately
  propagates to neighbour comparisons (boost + discovery);
* **hybrid** — propagation is buffered and flushed every *batch_size*
  matches, trading evidence freshness for lower scheduling overhead.
"""

from __future__ import annotations

from repro.core.benefit import BenefitModel
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER
from repro.core.updater import NeighborEvidencePropagator
from repro.matching.matcher import Matcher


def static_strategy(
    matcher: Matcher,
    budget: CostBudget | None = None,
    benefit: BenefitModel | None = None,
    checkpoint_every: int = 10,
) -> ProgressiveER:
    """Progressive ER without an update phase (fixed schedule)."""
    return ProgressiveER(
        matcher=matcher,
        budget=budget,
        benefit=benefit,
        updater=None,
        checkpoint_every=checkpoint_every,
    )


def dynamic_strategy(
    matcher: Matcher,
    budget: CostBudget | None = None,
    benefit: BenefitModel | None = None,
    boost_factor: float = 1.0,
    discovery_weight: float = 0.5,
    checkpoint_every: int = 10,
) -> ProgressiveER:
    """Full MinoanER: immediate neighbour-evidence propagation."""
    return ProgressiveER(
        matcher=matcher,
        budget=budget,
        benefit=benefit,
        updater=NeighborEvidencePropagator(
            boost_factor=boost_factor, discovery_weight=discovery_weight
        ),
        checkpoint_every=checkpoint_every,
    )


class _BatchedPropagator(NeighborEvidencePropagator):
    """Buffers matches and propagates them in batches of *batch_size*."""

    def __init__(self, batch_size: int, **kwargs) -> None:
        super().__init__(**kwargs)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        #: matched context-id pairs (URI order) awaiting propagation
        self._pending: list[tuple[int, int]] = []

    def on_match(self, left, right, scheduler, context) -> int:
        self._pending.append((left, right))
        if len(self._pending) < self.batch_size:
            return 0
        operations = 0
        batch, self._pending = self._pending, []
        for pending_left, pending_right in batch:
            operations += super().on_match(pending_left, pending_right, scheduler, context)
        return operations


def hybrid_strategy(
    matcher: Matcher,
    budget: CostBudget | None = None,
    benefit: BenefitModel | None = None,
    batch_size: int = 10,
    boost_factor: float = 1.0,
    discovery_weight: float = 0.5,
    checkpoint_every: int = 10,
) -> ProgressiveER:
    """MinoanER with batched update phases (every *batch_size* matches)."""
    return ProgressiveER(
        matcher=matcher,
        budget=budget,
        benefit=benefit,
        updater=_BatchedPropagator(
            batch_size=batch_size,
            boost_factor=boost_factor,
            discovery_weight=discovery_weight,
        ),
        checkpoint_every=checkpoint_every,
    )
