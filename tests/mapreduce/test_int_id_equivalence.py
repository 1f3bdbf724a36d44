"""Bit-identity suite: int-ID parallel meta-blocking == sequential graph.

The MapReduce jobs promise results **bit-identical** to the sequential
:class:`~repro.metablocking.graph.BlockingGraph` — pairs, float weights
and surviving-edge order — for all six weighting schemes × the four
canonical pruners, on all three sample corpora, at every worker count,
on both executors.  This suite is that promise spelled out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import registry
from repro.blocking.token_blocking import TokenBlocking
from repro.datasets import load_movies, load_people, load_restaurants
from repro.mapreduce import (
    MapReduceEngine,
    ProcessExecutor,
    parallel_metablocking_ids,
    parallel_pair_table,
)
from repro.metablocking import ARCS, CBS, CNP
from repro.metablocking.graph import BlockingGraph, pair_table_for

CORPORA = ("movies", "restaurants", "people")
SCHEME_NAMES = ("CBS", "ECBS", "JS", "EJS", "ARCS", "X2")
PRUNER_NAMES = ("WEP", "CEP", "WNP", "CNP")
WORKER_COUNTS = (1, 3, 4)

_LOADERS = {
    "movies": load_movies,
    "restaurants": load_restaurants,
    "people": load_people,
}


@pytest.fixture(scope="module")
def corpus_blocks():
    """Token blocks of each sample corpus."""
    blocks = {}
    for corpus, loader in _LOADERS.items():
        kb_a, kb_b, _ = loader()
        blocks[corpus] = TokenBlocking().build(kb_a, kb_b)
    return blocks


@pytest.fixture(scope="module")
def sequential_edges(corpus_blocks):
    """Expected (pair, weight) lists from the sequential graph."""
    expected = {}
    for corpus, blocks in corpus_blocks.items():
        for scheme_name in SCHEME_NAMES:
            for pruner_name in PRUNER_NAMES:
                edges = registry.create("pruner", pruner_name).prune(
                    BlockingGraph(blocks, registry.create("weighting", scheme_name))
                )
                expected[(corpus, scheme_name, pruner_name)] = [
                    (edge.pair, edge.weight) for edge in edges
                ]
    return expected


@pytest.fixture(scope="module")
def process_engines():
    """Persistent multiprocessing engines, one per swept worker count."""
    if not ProcessExecutor.available():
        pytest.skip("fork start method unavailable")
    engines = {
        workers: MapReduceEngine(workers=workers, executor="process")
        for workers in WORKER_COUNTS
    }
    yield engines
    for engine in engines.values():
        engine.close()


def _as_pairs(edges):
    return [(edge.pair, edge.weight) for edge in edges]


class TestPairTable:
    """The MapReduce pair table equals the sequential one bit for bit."""

    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_serial(self, corpus_blocks, corpus, workers):
        blocks = corpus_blocks[corpus]
        reference = pair_table_for(blocks)
        table, metrics = parallel_pair_table(
            MapReduceEngine(workers=workers), blocks
        )
        assert table.pairs == reference.pairs  # row order included
        assert np.array_equal(table.ids_a, reference.ids_a)
        assert np.array_equal(table.ids_b, reference.ids_b)
        assert np.array_equal(table.common, reference.common)
        # Bit-identical floats, not approx: the ARCS fold is re-sequenced
        # across the shuffle to match the sequential enumeration exactly.
        assert np.array_equal(table.arcs, reference.arcs)
        assert metrics.shuffle_records > 0
        assert metrics.shuffle_bytes > 0

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_process(self, corpus_blocks, process_engines, corpus):
        blocks = corpus_blocks[corpus]
        reference = pair_table_for(blocks)
        for workers, engine in process_engines.items():
            table, _ = parallel_pair_table(engine, blocks)
            assert table.pairs == reference.pairs, workers
            assert np.array_equal(table.common, reference.common)
            assert np.array_equal(table.arcs, reference.arcs)


class TestSerialExecutorEquivalence:
    """Full matrix on the deterministic in-process oracle."""

    @pytest.mark.parametrize("pruner_name", PRUNER_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_bit_identical(
        self, corpus_blocks, sequential_edges, corpus, scheme_name, pruner_name
    ):
        expected = sequential_edges[(corpus, scheme_name, pruner_name)]
        for workers in WORKER_COUNTS:
            parallel, metrics = parallel_metablocking_ids(
                MapReduceEngine(workers=workers),
                corpus_blocks[corpus],
                registry.create("weighting", scheme_name),
                registry.create("pruner", pruner_name),
            )
            assert _as_pairs(parallel) == expected, (workers, "edges differ")
            assert len(metrics) == 2  # pair statistics + one pruning job


class TestProcessExecutorEquivalence:
    """Full matrix through real multiprocessing workers."""

    @pytest.mark.parametrize("pruner_name", PRUNER_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_bit_identical(
        self,
        corpus_blocks,
        sequential_edges,
        process_engines,
        corpus,
        scheme_name,
        pruner_name,
    ):
        expected = sequential_edges[(corpus, scheme_name, pruner_name)]
        for workers, engine in process_engines.items():
            parallel, _ = parallel_metablocking_ids(
                engine,
                corpus_blocks[corpus],
                registry.create("weighting", scheme_name),
                registry.create("pruner", pruner_name),
            )
            assert _as_pairs(parallel) == expected, (workers, "edges differ")


class TestReciprocalVariants:
    """Reciprocal WNP/CNP ride the same entity-centric chain."""

    @pytest.mark.parametrize("pruner_name", ["ReciprocalWNP", "ReciprocalCNP"])
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_bit_identical(self, corpus_blocks, corpus, pruner_name):
        blocks = corpus_blocks[corpus]
        expected = _as_pairs(
            registry.create("pruner", pruner_name).prune(BlockingGraph(blocks, ARCS()))
        )
        parallel, _ = parallel_metablocking_ids(
            MapReduceEngine(workers=3),
            blocks,
            ARCS(),
            registry.create("pruner", pruner_name),
        )
        assert _as_pairs(parallel) == expected


class TestShuffleScaling:
    def test_per_worker_shuffle_bytes_shrink_with_workers(self, center_dataset):
        """Deterministic half of the retired perf bench's worker sweep:
        the total shuffle volume is a property of the workload, but the
        most-loaded partition's share must strictly shrink as workers
        are added (summed over the two jobs of an ARCS / CNP run)."""
        blocks = TokenBlocking().build(center_dataset.kb1, center_dataset.kb2)
        per_worker = []
        for workers in (1, 2, 4):
            _, metrics = parallel_metablocking_ids(
                MapReduceEngine(workers=workers),
                blocks,
                ARCS(),
                CNP(),
            )
            per_worker.append(sum(m.shuffle_bytes_per_worker for m in metrics))
        assert per_worker[0] > per_worker[1] > per_worker[2] > 0, per_worker


class TestEdgeCases:
    def test_empty_collection(self):
        from repro.blocking.block import BlockCollection

        blocks = BlockCollection(name="empty")
        edges, _ = parallel_metablocking_ids(
            MapReduceEngine(workers=4), blocks, ARCS(), CNP()
        )
        assert edges == []

    def test_unsupported_pruner_rejected(self, corpus_blocks):
        class Bogus:
            name = "bogus"

        with pytest.raises(TypeError):
            parallel_metablocking_ids(
                MapReduceEngine(workers=2),
                corpus_blocks["movies"],
                CBS(),
                Bogus(),
            )
