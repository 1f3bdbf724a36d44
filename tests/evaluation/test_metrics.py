"""Tests for PC/PQ/RR and matching quality measures."""

from __future__ import annotations

import pytest

from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.blocking.block import Block, BlockCollection
from repro.datasets.gold import GoldStandard
from repro.evaluation.metrics import (
    brute_force_comparisons,
    evaluate_blocks,
    evaluate_comparisons,
    evaluate_matches,
)
from repro.metablocking import ARCS, BlockingGraph


def gold() -> GoldStandard:
    return GoldStandard.from_pairs([("a", "x"), ("b", "y"), ("c", "z")])


class TestBruteForce:
    def test_dirty(self):
        assert brute_force_comparisons(10) == 45

    def test_clean_clean(self):
        assert brute_force_comparisons(10, 20) == 200


class TestEvaluateBlocks:
    def blocks(self) -> BlockCollection:
        return BlockCollection(
            [
                Block("k1", ["a"], ["x"]),          # covers (a,x)
                Block("k2", ["b"], ["y", "q"]),     # covers (b,y) + 1 miss
                Block("k3", ["c"], ["w"]),          # miss
            ]
        )

    def test_pairs_completeness(self):
        quality = evaluate_blocks(self.blocks(), gold(), 10, 10)
        assert quality.pairs_completeness == pytest.approx(2 / 3)
        assert quality.covered_matches == 2

    def test_pairs_quality(self):
        quality = evaluate_blocks(self.blocks(), gold(), 10, 10)
        # 4 distinct comparisons, 2 are matches.
        assert quality.pairs_quality == pytest.approx(0.5)

    def test_reduction_ratio(self):
        quality = evaluate_blocks(self.blocks(), gold(), 10, 10)
        assert quality.reduction_ratio == pytest.approx(1 - 4 / 100)

    def test_counts(self):
        quality = evaluate_blocks(self.blocks(), gold(), 10, 10)
        assert quality.blocks == 3
        assert quality.distinct_comparisons == 4
        assert quality.total_comparisons == 4

    def test_as_row_formatting(self):
        row = evaluate_blocks(self.blocks(), gold(), 10, 10).as_row()
        assert row["PC"] == "0.667"
        assert "comparisons" in row

    def test_empty_blocks(self):
        quality = evaluate_blocks(BlockCollection(), gold(), 10, 10)
        assert quality.pairs_completeness == 0.0
        assert quality.pairs_quality == 0.0
        assert quality.reduction_ratio == 1.0


class TestEvaluateComparisons:
    def test_arbitrary_comparison_set(self):
        comparisons = {("a", "x"), ("q", "r")}
        quality = evaluate_comparisons(comparisons, gold(), 5, 5)
        assert quality.pairs_completeness == pytest.approx(1 / 3)
        assert quality.pairs_quality == pytest.approx(0.5)

    def test_empty_gold(self):
        quality = evaluate_comparisons({("a", "b")}, GoldStandard(), 5, 5)
        assert quality.pairs_completeness == 0.0


class TestEvaluateMatches:
    def test_perfect(self):
        quality = evaluate_matches(set(gold().matches), gold())
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0

    def test_partial(self):
        predicted = {("a", "x"), ("wrong", "zz")}
        quality = evaluate_matches(predicted, gold())
        assert quality.precision == pytest.approx(0.5)
        assert quality.recall == pytest.approx(1 / 3)
        expected_f1 = 2 * 0.5 * (1 / 3) / (0.5 + 1 / 3)
        assert quality.f1 == pytest.approx(expected_f1)

    def test_empty_prediction(self):
        quality = evaluate_matches(set(), gold())
        assert quality.precision == 0.0
        assert quality.recall == 0.0
        assert quality.f1 == 0.0

    def test_as_row(self):
        row = evaluate_matches(set(gold().matches), gold()).as_row()
        assert row == {"precision": "1.000", "recall": "1.000", "F1": "1.000"}


class TestEvaluateBlocksReadsThePairTable:
    """``evaluate_blocks`` scores the cached pair table's rows; enumerating
    every block (``distinct_comparisons``) is the oracle it must equal."""

    def expect_equal(self, blocks, gold, size1, size2=None):
        expected = evaluate_comparisons(
            blocks.distinct_comparisons(), gold, size1, size2,
            blocks=len(blocks), total_comparisons=blocks.total_comparisons(),
        )
        assert "metablocking.pair_table" not in blocks.derived_cache
        cold = evaluate_blocks(blocks, gold, size1, size2)
        assert "metablocking.pair_table" in blocks.derived_cache
        warm = evaluate_blocks(blocks, gold, size1, size2)
        assert cold == expected
        assert warm == expected
        return expected

    def test_clean_clean(self, center_dataset):
        data = center_dataset
        blocks = TokenBlocking().build(data.kb1, data.kb2)
        quality = self.expect_equal(blocks, data.gold, len(data.kb1), len(data.kb2))
        assert quality.distinct_comparisons < quality.total_comparisons

    def test_purged_and_filtered(self, periphery_dataset):
        data = periphery_dataset
        raw = TokenBlocking().build(data.kb1, data.kb2)
        blocks = BlockFiltering().process(BlockPurging().process(raw))
        assert len(blocks) < len(raw) or blocks.total_comparisons() < raw.total_comparisons()
        self.expect_equal(blocks, data.gold, len(data.kb1), len(data.kb2))

    def test_dirty(self, dirty_dataset):
        collection, dirty_gold = dirty_dataset
        blocks = TokenBlocking().build(collection)
        quality = self.expect_equal(blocks, dirty_gold, len(collection))
        assert quality.covered_matches > 0

    def test_after_metablocking_warmed_the_cache(self, center_dataset):
        data = center_dataset
        blocks = TokenBlocking().build(data.kb1, data.kb2)
        BlockingGraph(blocks, ARCS()).materialize()
        table = blocks.derived_cache["metablocking.pair_table"]
        quality = evaluate_blocks(blocks, data.gold, len(data.kb1), len(data.kb2))
        assert blocks.derived_cache["metablocking.pair_table"] is table
        assert quality == evaluate_comparisons(
            blocks.distinct_comparisons(), data.gold, len(data.kb1), len(data.kb2),
            blocks=len(blocks), total_comparisons=blocks.total_comparisons(),
        )

    def test_empty(self):
        self.expect_equal(BlockCollection(), gold(), 10, 10)

    def test_single_blocks(self):
        self.expect_equal(BlockCollection([Block("k", ["a", "b"], ["x", "a"])]), gold(), 3, 3)
        self.expect_equal(BlockCollection([Block("k", ["c", "a", "x", "z"])]), gold(), 4)
        self.expect_equal(BlockCollection([Block("lonely", ["a"])]), gold(), 4)

    def test_mutated_collection_is_rescored(self):
        blocks = BlockCollection([Block("k1", ["a"], ["x"])])
        assert evaluate_blocks(blocks, gold(), 3, 3).covered_matches == 1
        blocks.add(Block("k2", ["b"], ["y"]))
        assert evaluate_blocks(blocks, gold(), 3, 3).covered_matches == 2
