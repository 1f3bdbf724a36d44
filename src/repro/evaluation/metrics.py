"""Blocking- and matching-quality measures.

The blocking literature's standard triple:

* **PC (pairs completeness)** — fraction of gold matches whose pair
  co-occurs in at least one block (blocking recall);
* **PQ (pairs quality)** — fraction of distinct blocked comparisons that
  are gold matches (blocking precision);
* **RR (reduction ratio)** — 1 − blocked comparisons / brute-force
  comparisons (how much work blocking saved).

Matching quality is the usual precision/recall/F1 over decided pairs,
evaluated against the gold matches (optionally through the transitive
closure of predicted clusters).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocking.block import BlockCollection
from repro.datasets.gold import GoldStandard
from repro.metablocking.graph import pair_table_for


@dataclass(frozen=True)
class BlockingQuality:
    """PC/PQ/RR plus the raw counts behind them."""

    pairs_completeness: float
    pairs_quality: float
    reduction_ratio: float
    blocks: int
    distinct_comparisons: int
    total_comparisons: int
    covered_matches: int
    gold_matches: int

    def as_row(self) -> dict[str, str]:
        """Formatted experiment-table row."""
        return {
            "PC": f"{self.pairs_completeness:.3f}",
            "PQ": f"{self.pairs_quality:.4f}",
            "RR": f"{self.reduction_ratio:.3f}",
            "blocks": str(self.blocks),
            "comparisons": str(self.distinct_comparisons),
        }


@dataclass(frozen=True)
class MatchingQuality:
    """Precision/recall/F1 plus raw counts."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    predicted: int
    gold_matches: int

    def as_row(self) -> dict[str, str]:
        """Formatted experiment-table row."""
        return {
            "precision": f"{self.precision:.3f}",
            "recall": f"{self.recall:.3f}",
            "F1": f"{self.f1:.3f}",
        }


def brute_force_comparisons(size1: int, size2: int | None = None) -> int:
    """Comparison count without blocking (dirty or clean-clean)."""
    if size2 is None:
        return size1 * (size1 - 1) // 2
    return size1 * size2


def evaluate_blocks(
    blocks: BlockCollection,
    gold: GoldStandard,
    collection_size1: int,
    collection_size2: int | None = None,
) -> BlockingQuality:
    """PC/PQ/RR of a block collection against *gold*.

    Args:
        blocks: the block collection to score.
        gold: ground truth.
        collection_size1: size of the (first) input collection.
        collection_size2: size of the second collection for clean-clean ER.

    The distinct comparisons are the rows of the collection's cached
    pair table (the one meta-blocking weighs), not a second enumeration
    of every block, and the gold pairs are looked up by packed id key —
    no string is built per comparison.
    """
    table = pair_table_for(blocks)
    covered = int((table.rows_of(blocks.interner(), gold.matches) >= 0).sum())
    return _blocking_quality(
        covered,
        len(table),
        gold,
        collection_size1,
        collection_size2,
        len(blocks),
        blocks.total_comparisons(),
    )


def evaluate_comparisons(
    comparisons: set[tuple[str, str]],
    gold: GoldStandard,
    collection_size1: int,
    collection_size2: int | None = None,
    blocks: int = 0,
    total_comparisons: int | None = None,
) -> BlockingQuality:
    """PC/PQ/RR of an arbitrary comparison set (e.g. after meta-blocking)."""
    covered = sum(1 for pair in gold.matches if pair in comparisons)
    return _blocking_quality(
        covered,
        len(comparisons),
        gold,
        collection_size1,
        collection_size2,
        blocks,
        total_comparisons,
    )


def _blocking_quality(
    covered: int,
    distinct_count: int,
    gold: GoldStandard,
    collection_size1: int,
    collection_size2: int | None,
    blocks: int,
    total_comparisons: int | None,
) -> BlockingQuality:
    gold_count = len(gold.matches)
    brute = brute_force_comparisons(collection_size1, collection_size2)
    return BlockingQuality(
        pairs_completeness=covered / gold_count if gold_count else 0.0,
        pairs_quality=covered / distinct_count if distinct_count else 0.0,
        reduction_ratio=1.0 - distinct_count / brute if brute else 0.0,
        blocks=blocks,
        distinct_comparisons=distinct_count,
        total_comparisons=(
            total_comparisons if total_comparisons is not None else distinct_count
        ),
        covered_matches=covered,
        gold_matches=gold_count,
    )


def evaluate_matches(
    predicted: set[tuple[str, str]],
    gold: GoldStandard,
) -> MatchingQuality:
    """Precision/recall/F1 of predicted matching pairs against *gold*."""
    true_positives = sum(1 for pair in predicted if pair in gold.matches)
    precision = true_positives / len(predicted) if predicted else 0.0
    recall = true_positives / len(gold.matches) if gold.matches else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return MatchingQuality(
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=true_positives,
        predicted=len(predicted),
        gold_matches=len(gold.matches),
    )
