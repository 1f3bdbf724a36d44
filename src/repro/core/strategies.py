"""Preconfigured scheduling strategies.

Two ways to run the progressive loop:

* **static** — schedule once from the meta-blocking weights and never
  revisit: the update phase is disabled, so the comparison order is fixed
  up front (what a non-iterative progressive resolver does);
* **dynamic** — full MinoanER: every confirmed match immediately
  propagates to neighbour comparisons (boost + discovery).
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
