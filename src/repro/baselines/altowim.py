"""Progressive relational ER, after Altowim, Kalashnikov & Mehrotra [1].

The PVLDB 2014 approach the poster contrasts with: resolution proceeds in
**windows** over data partitions (here: blocks), and an adaptive
cost/benefit analysis decides which partition to spend the next window of
comparisons on.  Benefit is the *quantity of resolved pairs*; the benefit
of a partition is estimated from the duplicate density observed so far in
that partition (with a Bayesian-style prior before any observation),
updated after every window.  The loop:

1. score every block by expected matches per comparison;
2. pick the best block, execute up to ``window_size`` of its remaining
   comparisons;
3. update the block's density estimate with the observed outcomes;
4. repeat until the budget is consumed or no comparisons remain.

Differences from the original are confined to the substrate: partitions
are token blocks rather than relational co-occurrence partitions, and the
influence graph between partitions is approximated by shared entities
(a match found in one block raises the prior of other blocks containing
either matched description — the original's inter-partition influence).
"""

from __future__ import annotations

from repro.blocking.block import BlockCollection
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveResult, ResolutionContext
from repro.datasets.gold import GoldStandard
from repro.evaluation.progressive import ProgressiveCurve
from repro.matching.matcher import Matcher
from repro.model.collection import EntityCollection
from repro.utils.heap import AddressableMaxHeap


class AltowimProgressiveER:
    """Windowed, density-driven progressive resolver.

    Args:
        window_size: comparisons granted to the chosen block per round.
        prior_matches / prior_comparisons: Beta-like prior of every
            block's duplicate density (expected matches per comparison
            before observation).
        influence_boost: added to the density numerator of blocks sharing
            an entity with a confirmed match (inter-partition influence).
    """

    def __init__(
        self,
        window_size: int = 20,
        prior_matches: float = 0.5,
        prior_comparisons: float = 5.0,
        influence_boost: float = 0.25,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if prior_comparisons <= 0:
            raise ValueError("prior_comparisons must be positive")
        self.window_size = window_size
        self.prior_matches = prior_matches
        self.prior_comparisons = prior_comparisons
        self.influence_boost = influence_boost

    def run(
        self,
        blocks: BlockCollection,
        matcher: Matcher,
        collections: list[EntityCollection],
        budget: CostBudget | None = None,
        gold: GoldStandard | None = None,
        checkpoint_every: int = 10,
    ) -> ProgressiveResult:
        """Resolve within *budget*, window by window.

        *gold* instruments the recall curve only.
        """
        context = ResolutionContext(collections)
        matcher.attach(context)
        budget = (budget or CostBudget()).copy()
        curve = ProgressiveCurve(label="altowim")
        result = ProgressiveResult(
            match_graph=context.match_graph, curve=curve, budget=budget
        )
        gold_matches = len(gold.matches) if gold is not None else 0
        found_gold = 0

        # Per-block execution state: a pair iterator plus density counters.
        iterators = {block.key: block.comparisons() for block in blocks}
        observed_matches: dict[str, float] = {block.key: 0.0 for block in blocks}
        observed_comparisons: dict[str, float] = {block.key: 0.0 for block in blocks}
        heap: AddressableMaxHeap[str] = AddressableMaxHeap()
        for block in blocks:
            heap.push(block.key, self._density(block.key, observed_matches, observed_comparisons))
        block_index = blocks.entity_index()

        def checkpoint() -> None:
            values = {"benefit": result.benefit_total}
            if gold is not None:
                values["recall"] = found_gold / gold_matches if gold_matches else 0.0
            curve.record(budget.comparisons_executed, **values)

        checkpoint()
        while heap and not budget.exhausted:
            key, _score = heap.pop()
            iterator = iterators[key]
            executed_in_window = 0
            depleted = False
            while executed_in_window < self.window_size and not budget.exhausted:
                pair = next(iterator, None)
                if pair is None:
                    depleted = True
                    break
                pair_key = context.key(*pair)
                if pair_key in context.match_graph.rows:
                    result.skipped_decided += 1
                    continue
                a, b = context.oriented(pair_key)
                score, is_match = matcher.decide_ids(a, b)
                budget.charge_comparison()
                executed_in_window += 1
                observed_comparisons[key] += 1
                context.match_graph.record_ids(a, b, score, is_match)
                if is_match:
                    observed_matches[key] += 1
                    result.benefit_total += 1.0
                    if gold is not None and pair in gold.matches:
                        found_gold += 1
                    self._propagate_influence(
                        pair, key, block_index, observed_matches, heap,
                        observed_comparisons,
                    )
                if budget.comparisons_executed % checkpoint_every == 0:
                    checkpoint()
            if not depleted:
                heap.push_or_update(
                    key, self._density(key, observed_matches, observed_comparisons)
                )
        checkpoint()
        return result

    # -- internals ------------------------------------------------------------

    def _density(
        self,
        key: str,
        matches: dict[str, float],
        comparisons: dict[str, float],
    ) -> float:
        return (matches[key] + self.prior_matches) / (
            comparisons[key] + self.prior_comparisons
        )

    def _propagate_influence(
        self,
        pair: tuple[str, str],
        current_key: str,
        block_index: dict[str, list[str]],
        matches: dict[str, float],
        heap: AddressableMaxHeap[str],
        comparisons: dict[str, float],
    ) -> None:
        """Raise the density prior of blocks sharing the matched entities."""
        influenced: set[str] = set()
        for uri in pair:
            influenced.update(block_index.get(uri, ()))
        influenced.discard(current_key)
        for key in influenced:
            if key in matches:
                matches[key] += self.influence_boost
                if key in heap:
                    heap.update(key, self._density(key, matches, comparisons))
