"""The MinoanER progressive entity-resolution core.

This package is the paper's primary contribution: the extension of the
typical ER workflow with a **scheduling** phase (select and order the
candidate comparisons most likely to increase the targeted benefit), a
**matching** phase, and an **update** phase (propagate each confirmed
match as similarity evidence to the matched descriptions' neighbours,
boosting — or newly discovering — the comparisons it influences), iterated
in a pay-as-you-go fashion until a cost budget is consumed.

* :mod:`repro.core.budget` — the cost budget (comparisons + bookkeeping);
* :mod:`repro.core.benefit` — the benefit models: quantity of resolved
  pairs [1], and MinoanER's quality-aware alternatives (attribute
  completeness, entity coverage, relationship completeness);
* :mod:`repro.core.scheduler` — the comparison priority queue;
* :mod:`repro.core.updater` — neighbour-evidence propagation;
* :mod:`repro.core.engine` — the schedule → match → update loop;
* :mod:`repro.core.strategies` — preconfigured static/dynamic
  scheduling strategies.

The end-to-end pipeline (blocking → meta-blocking → progressive
matching) is assembled from a spec by :class:`repro.api.Pipeline`.
"""

from repro.core.budget import CostBudget
from repro.core.benefit import (
    BenefitModel,
    QuantityBenefit,
    AttributeCompletenessBenefit,
    EntityCoverageBenefit,
    RelationshipCompletenessBenefit,
    BENEFITS,
)
from repro.core.scheduler import ComparisonScheduler
from repro.core.updater import NeighborEvidencePropagator
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.engine import ProgressiveER, ProgressiveResult, ResolutionContext
from repro.core.session import ProgressiveSession
from repro.core.strategies import (
    static_strategy,
    dynamic_strategy,
)

__all__ = [
    "CostBudget",
    "BenefitModel",
    "QuantityBenefit",
    "AttributeCompletenessBenefit",
    "EntityCoverageBenefit",
    "RelationshipCompletenessBenefit",
    "BENEFITS",
    "ComparisonScheduler",
    "NeighborEvidencePropagator",
    "NeighborAwareMatcher",
    "ProgressiveER",
    "ProgressiveResult",
    "ResolutionContext",
    "ProgressiveSession",
    "static_strategy",
    "dynamic_strategy",
]
