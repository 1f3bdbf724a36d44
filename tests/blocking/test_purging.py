"""Tests for block purging."""

from __future__ import annotations

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.blocking.purging import (
    BlockPurging,
    cardinality_histogram,
    threshold_from_histogram,
)


def skewed_blocks() -> BlockCollection:
    """Many small blocks plus one stop-token block."""
    blocks = [Block(f"small{i}", [f"a{i}", f"b{i}"]) for i in range(20)]
    blocks.append(Block("stopword", [f"e{i}" for i in range(60)]))
    return BlockCollection(blocks)


class TestExplicitThreshold:
    def test_oversized_blocks_removed(self):
        purged = BlockPurging(max_cardinality=10).process(skewed_blocks())
        assert "stopword" not in purged
        assert len(purged) == 20

    def test_small_blocks_survive(self):
        purged = BlockPurging(max_cardinality=1).process(skewed_blocks())
        assert all(block.cardinality() <= 1 for block in purged)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            BlockPurging(max_cardinality=0)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            BlockPurging(smoothing=0.5)


class TestAdaptiveThreshold:
    def test_adaptive_removes_stop_token_block(self):
        blocks = skewed_blocks()
        purging = BlockPurging()
        threshold = purging.adaptive_threshold(blocks)
        assert threshold < Block("stopword", [f"e{i}" for i in range(60)]).cardinality()
        purged = purging.process(blocks)
        assert "stopword" not in purged

    def test_uniform_blocks_untouched(self):
        blocks = BlockCollection(
            [Block(f"k{i}", [f"a{i}", f"b{i}", f"c{i}"]) for i in range(10)]
        )
        purged = BlockPurging().process(blocks)
        assert len(purged) == 10

    def test_empty_collection(self):
        assert len(BlockPurging().process(BlockCollection())) == 0

    def test_purging_preserves_block_contents(self):
        blocks = skewed_blocks()
        purged = BlockPurging(max_cardinality=10).process(blocks)
        assert set(purged["small0"].entities1) == {"a0", "b0"}

    def test_original_collection_untouched(self):
        blocks = skewed_blocks()
        BlockPurging(max_cardinality=10).process(blocks)
        assert "stopword" in blocks

    def test_reduces_comparisons_on_synthetic(self, center_dataset):
        from repro.blocking.token_blocking import TokenBlocking

        blocks = TokenBlocking().build(center_dataset.kb1, center_dataset.kb2)
        purged = BlockPurging().process(blocks)
        assert purged.total_comparisons() < blocks.total_comparisons()


def corpus_blocks(request, name: str) -> BlockCollection:
    """Token blocks of one of the shared corpus fixtures."""
    from repro.blocking.token_blocking import TokenBlocking

    if name == "dirty":
        collection, _ = request.getfixturevalue("dirty_dataset")
        return TokenBlocking().build(collection)
    if name == "center":
        dataset = request.getfixturevalue("center_dataset")
        return TokenBlocking().build(dataset.kb1, dataset.kb2)
    kb_a, kb_b, _ = request.getfixturevalue(name)
    return TokenBlocking().build(kb_a, kb_b)


class TestOnCorpora:
    @pytest.mark.parametrize("corpus", ["movies", "dirty", "center"])
    def test_adaptive_cut_splits_at_the_threshold(self, request, corpus):
        blocks = corpus_blocks(request, corpus)
        purging = BlockPurging()
        threshold = purging.adaptive_threshold(blocks)
        purged = purging.process(blocks)
        for block in blocks:
            assert (block.key in purged) == (block.cardinality() <= threshold)
        for block in purged:
            assert block.entities1 == blocks[block.key].entities1
            assert block.entities2 == blocks[block.key].entities2

    @pytest.mark.parametrize("limit", [1, 5, 50])
    def test_explicit_cut_splits_at_the_limit(self, movies, limit):
        from repro.blocking.token_blocking import TokenBlocking

        blocks = TokenBlocking().build(*movies[:2])
        purged = BlockPurging(max_cardinality=limit).process(blocks)
        kept = {block.key for block in blocks if block.cardinality() <= limit}
        assert set(purged.keys()) == kept

    def test_explicit_purging_is_idempotent(self, request):
        blocks = corpus_blocks(request, "center")
        purging = BlockPurging(max_cardinality=20)
        once = purging.process(blocks)
        twice = purging.process(once)
        assert twice.keys() == once.keys()
        assert twice.distinct_comparisons() == once.distinct_comparisons()

    def test_larger_smoothing_never_lowers_the_threshold(self, request):
        blocks = corpus_blocks(request, "center")
        thresholds = [
            BlockPurging(smoothing=s).adaptive_threshold(blocks)
            for s in (1.0, 1.05, 1.1, 1.5, 3.0, 100.0)
        ]
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] == max(block.cardinality() for block in blocks)


class TestHistogram:
    def test_totals_match_the_collection(self, request):
        blocks = corpus_blocks(request, "movies")
        histogram = cardinality_histogram(blocks)
        assert sum(c for c, _ in histogram.values()) == blocks.total_comparisons()
        assert sum(a for _, a in histogram.values()) == blocks.total_assignments()
        assert set(histogram) == {block.cardinality() for block in blocks}

    def test_empty_histogram_keeps_everything(self):
        assert threshold_from_histogram({}, 1.1) == 1

    def test_single_level_survives(self):
        assert threshold_from_histogram({4: (40, 30)}, 1.0) == 4

    def test_signature_tracks_parameters(self):
        assert BlockPurging().signature() == BlockPurging().signature()
        assert BlockPurging(5).signature() != BlockPurging().signature()
        assert BlockPurging(smoothing=2.0).signature() != BlockPurging().signature()
