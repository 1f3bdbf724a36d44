"""Equivalence tests: MapReduce token blocking == sequential token blocking."""

from __future__ import annotations

import pytest

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.parallel_blocking import parallel_token_blocking
from repro.model.tokenizer import Tokenizer


def assert_same_blocks(sequential, parallel):
    assert sequential.keys() == parallel.keys()
    for key in sequential.keys():
        seq_block, par_block = sequential[key], parallel[key]
        assert sorted(seq_block.entities1) == sorted(par_block.entities1)
        if seq_block.is_bipartite:
            assert sorted(seq_block.entities2) == sorted(par_block.entities2 or [])


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_clean_clean_equivalence(self, movies, workers):
        kb_a, kb_b, _ = movies
        tokenizer = Tokenizer(include_uri_infix=True)
        sequential = TokenBlocking(tokenizer).build(kb_a, kb_b)
        parallel, metrics = parallel_token_blocking(
            MapReduceEngine(workers=workers), kb_a, kb_b, tokenizer
        )
        assert_same_blocks(sequential, parallel)
        assert metrics.workers == workers

    def test_dirty_equivalence(self, dirty_dataset):
        collection, _ = dirty_dataset
        tokenizer = Tokenizer()
        sequential = TokenBlocking(tokenizer).build(collection)
        parallel, _ = parallel_token_blocking(
            MapReduceEngine(workers=4), collection, tokenizer=tokenizer
        )
        assert_same_blocks(sequential, parallel)

    def test_singleton_semantics_match(self, restaurants):
        kb_a, kb_b, _ = restaurants
        sequential = TokenBlocking().build(kb_a, kb_b, drop_singletons=False)
        parallel, _ = parallel_token_blocking(
            MapReduceEngine(workers=2), kb_a, kb_b, drop_singletons=False
        )
        assert_same_blocks(sequential, parallel)

    def test_metrics_expose_shuffle_volume(self, restaurants):
        kb_a, kb_b, _ = restaurants
        _, metrics = parallel_token_blocking(MapReduceEngine(workers=2), kb_a, kb_b)
        assert metrics.shuffle_records == metrics.map_output_records
        assert metrics.shuffle_bytes > 0

    def test_worker_count_does_not_change_blocks(self, center_dataset):
        blocks1, _ = parallel_token_blocking(
            MapReduceEngine(workers=1), center_dataset.kb1, center_dataset.kb2
        )
        blocks8, _ = parallel_token_blocking(
            MapReduceEngine(workers=8), center_dataset.kb1, center_dataset.kb2
        )
        assert_same_blocks(blocks1, blocks8)


def purge_then_filter(blocks, ratio: float = 0.8):
    return BlockFiltering(ratio).process(BlockPurging().process(blocks))


class TestPostProcessingOnParallelBlocks:
    """The ``mapreduce`` backend purges and filters its blocks sequentially;
    the result must not depend on how many workers built them."""

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_purge_then_filter_matches_sequential(self, center_dataset, workers):
        kb1, kb2 = center_dataset.kb1, center_dataset.kb2
        sequential = purge_then_filter(TokenBlocking().build(kb1, kb2))
        parallel, _ = parallel_token_blocking(MapReduceEngine(workers), kb1, kb2)
        processed = purge_then_filter(parallel)
        assert_same_blocks(sequential, processed)
        assert sequential.distinct_comparisons() == processed.distinct_comparisons()

    def test_dirty_purge_then_filter_matches_sequential(self, dirty_dataset):
        collection, _ = dirty_dataset
        sequential = purge_then_filter(TokenBlocking().build(collection), 0.6)
        parallel, _ = parallel_token_blocking(MapReduceEngine(4), collection)
        assert_same_blocks(sequential, purge_then_filter(parallel, 0.6))
