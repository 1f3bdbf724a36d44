"""Order-based baselines: a budgeted executor over a fixed comparison order.

The simplest progressive strategies differ only in how they order the
candidate comparisons before consuming the budget:

* **random order** — the naive pay-as-you-go lower bound;
* **oracle order** — all gold matches first: the (unreachable) upper
  bound any scheduler is squeezed against;
* **batch order** — blocking-native order (no scheduling at all): what a
  non-progressive resolver yields if interrupted at the budget.
"""

from __future__ import annotations

from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveResult, ResolutionContext
from repro.datasets.gold import GoldStandard
from repro.evaluation.progressive import ProgressiveCurve
from repro.matching.matcher import Matcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.utils.rng import deterministic_rng


def run_ordered(
    pairs: list[tuple[str, str]],
    matcher: Matcher,
    collections: list[EntityCollection],
    budget: CostBudget | None = None,
    gold: GoldStandard | None = None,
    label: str = "ordered",
    checkpoint_every: int = 10,
) -> ProgressiveResult:
    """Execute *pairs* in the given order until the budget is consumed.

    Duplicated pairs are executed once; *gold* instruments the recall
    curve only.
    """
    context = ResolutionContext(collections)
    matcher.attach(context)
    budget = (budget or CostBudget()).copy()
    # Pre-score only what the budget can reach: a tightly budgeted run
    # must not pay for vectorized scoring of comparisons it will never
    # execute (pairs past the prefix simply fall back to scalar scoring).
    reachable = pairs if budget.max_cost is None else pairs[: int(budget.remaining) + 1]
    oriented = [context.oriented(context.key(*pair)) for pair in reachable]
    matcher.prime([a for a, _ in oriented], [b for _, b in oriented])
    curve = ProgressiveCurve(label=label)
    result = ProgressiveResult(
        match_graph=context.match_graph, curve=curve, budget=budget
    )
    gold_matches = len(gold.matches) if gold is not None else 0
    found_gold = 0

    def checkpoint() -> None:
        values = {"benefit": result.benefit_total}
        if gold is not None:
            values["recall"] = found_gold / gold_matches if gold_matches else 0.0
        curve.record(budget.comparisons_executed, **values)

    checkpoint()
    graph = context.match_graph
    for pair in pairs:
        if budget.exhausted:
            break
        key = context.key(*pair)
        if key in graph.rows:
            result.skipped_decided += 1
            continue
        a, b = context.oriented(key)
        score, is_match = matcher.decide_ids(a, b)
        budget.charge_comparison()
        graph.record_ids(a, b, score, is_match)
        if is_match:
            result.benefit_total += 1.0
            if gold is not None and pair in gold.matches:
                found_gold += 1
        if budget.comparisons_executed % checkpoint_every == 0:
            checkpoint()
    checkpoint()
    return result


def random_order_baseline(
    edges: list[WeightedEdge],
    matcher: Matcher,
    collections: list[EntityCollection],
    budget: CostBudget | None = None,
    gold: GoldStandard | None = None,
    seed: int = 7,
    checkpoint_every: int = 10,
) -> ProgressiveResult:
    """Comparisons in seeded-random order."""
    pairs = [edge.pair for edge in sorted(edges, key=lambda e: e.pair)]
    deterministic_rng(seed, "random-order").shuffle(pairs)
    return run_ordered(
        pairs, matcher, collections, budget, gold,
        label="random", checkpoint_every=checkpoint_every,
    )


def oracle_order_baseline(
    edges: list[WeightedEdge],
    matcher: Matcher,
    collections: list[EntityCollection],
    gold: GoldStandard,
    budget: CostBudget | None = None,
    checkpoint_every: int = 10,
) -> ProgressiveResult:
    """Gold matches first: the gold-first order.

    Only the *ordering* consults the gold standard; decisions still come
    from the matcher, so this is no upper bound on progressive recall (on
    periphery at threshold 0.35 it reached 0.309 recall AUC at a quarter
    of the edges, dynamic scheduling 0.369).
    """
    matches = [e.pair for e in edges if e.pair in gold.matches]
    rest = [e.pair for e in edges if e.pair not in gold.matches]
    matches.sort()
    rest.sort()
    return run_ordered(
        matches + rest, matcher, collections, budget, gold,
        label="oracle", checkpoint_every=checkpoint_every,
    )


def batch_baseline(
    edges: list[WeightedEdge],
    matcher: Matcher,
    collections: list[EntityCollection],
    budget: CostBudget | None = None,
    gold: GoldStandard | None = None,
    checkpoint_every: int = 10,
) -> ProgressiveResult:
    """Blocking-native pair order (sorted pairs): no scheduling signal."""
    pairs = sorted(edge.pair for edge in edges)
    return run_ordered(
        pairs, matcher, collections, budget, gold,
        label="batch", checkpoint_every=checkpoint_every,
    )
