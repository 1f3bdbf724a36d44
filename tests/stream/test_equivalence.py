"""The streaming equivalence contract, corpus by corpus.

Ingesting a corpus stream-wise — entity by entity or in micro-batches —
must leave the streamed state **bit-identical** to the batch pipeline
over the same final corpus: raw blocks, processed blocks, pair-table
statistics, per-pair weights for all six schemes, and pruned edges.
"""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.token_blocking import TokenBlocking
from repro.datasets import load_movies, load_people, load_restaurants
from repro.metablocking import CNP
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.pruning import PRUNERS
from repro.metablocking.weighting import SCHEMES
from repro.stream import StreamResolver

from metablocking.string_graph_oracle import reference_pair_statistics

from .star_weights import assert_stars_match

CORPORA = {
    "restaurants": load_restaurants,
    "movies": load_movies,
    "people": load_people,
}


def make_streamed(kb1, kb2, micro_batch: int | None = None, blocker=None):
    """A resolver fed the corpus entity-by-entity (or in micro-batches)."""
    resolver = StreamResolver(clean_clean=kb2 is not None, blocker=blocker)
    resolver.store.collections[0].name = kb1.name
    if kb2 is not None:
        resolver.store.collections[1].name = kb2.name
    for source, collection in enumerate([kb1] if kb2 is None else [kb1, kb2]):
        descriptions = [description.copy() for description in collection]
        if micro_batch is None:
            for description in descriptions:
                resolver.ingest(description, source)
        else:
            for start in range(0, len(descriptions), micro_batch):
                resolver.ingest_batch(
                    descriptions[start : start + micro_batch], source
                )
    return resolver


def assert_blocks_equal(ours, theirs):
    assert ours.keys() == theirs.keys()
    for key in theirs.keys():
        assert ours[key].entities1 == theirs[key].entities1, key
        assert ours[key].entities2 == theirs[key].entities2, key


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    kb1, kb2, gold = CORPORA[request.param]()
    return kb1, kb2


@pytest.fixture(scope="module")
def streamed(corpus):
    return make_streamed(*corpus)


class TestBlockEquivalence:
    def test_raw_blocks_identical(self, corpus, streamed):
        kb1, kb2 = corpus
        assert_blocks_equal(streamed.index.snapshot(), TokenBlocking().build(kb1, kb2))

    def test_processed_blocks_identical(self, corpus, streamed):
        kb1, kb2 = corpus
        batch = BlockFiltering().process(
            BlockPurging().process(TokenBlocking().build(kb1, kb2))
        )
        assert_blocks_equal(streamed.index.snapshot_processed(), batch)

    def test_micro_batches_reach_the_same_state(self, corpus, streamed):
        kb1, kb2 = corpus
        batched = make_streamed(kb1, kb2, micro_batch=7)
        assert_blocks_equal(batched.index.snapshot(), streamed.index.snapshot())
        assert batched.pairs.as_reference_stats() == streamed.pairs.as_reference_stats()

    def test_snapshot_matches_batch_name_and_id_views(self, corpus, streamed):
        kb1, kb2 = corpus
        batch = TokenBlocking().build(kb1, kb2)
        snapshot = streamed.index.snapshot()
        assert snapshot.name == batch.name
        assert snapshot.id_blocks() == batch.id_blocks()
        assert snapshot.interner().uris() == batch.interner().uris()

    def test_qgrams_key_space_supported(self, corpus):
        kb1, kb2 = corpus
        blocker = QGramsBlocking(q=3)
        streamed = make_streamed(kb1, kb2, blocker=QGramsBlocking(q=3))
        assert_blocks_equal(streamed.index.snapshot(), blocker.build(kb1, kb2))


class TestPairStatisticsEquivalence:
    def test_common_and_arcs_match_reference(self, corpus, streamed):
        kb1, kb2 = corpus
        raw = TokenBlocking().build(kb1, kb2)
        reference = reference_pair_statistics(raw)
        assert streamed.pairs.as_reference_stats() == reference

    def test_global_factors_match_batch(self, corpus, streamed):
        kb1, kb2 = corpus
        raw = TokenBlocking().build(kb1, kb2)
        assert streamed.pairs.active_blocks == len(raw)
        assert streamed.pairs.total_assignments == raw.total_assignments()
        assert streamed.pairs.entities_placed == raw.entity_count()
        placements = {
            uri: len(keys) for uri, keys in raw.entity_index().items()
        }
        interner = streamed.store.interner
        ours = {
            interner.uri_of(entity_id): count
            for entity_id, count in streamed.pairs.placements.items()
        }
        assert ours == placements


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestWeightEquivalence:
    def test_per_pair_weights_bit_identical(self, corpus, streamed, scheme_name):
        kb1, kb2 = corpus
        raw = TokenBlocking().build(kb1, kb2)
        edges = BlockingGraph(raw, registry.create("weighting", scheme_name)).materialize()
        assert_stars_match(streamed.pairs, scheme_name, dict(edges.items()))

    def test_pruned_edges_bit_identical(self, corpus, streamed, scheme_name):
        kb1, kb2 = corpus
        processed = BlockFiltering().process(
            BlockPurging().process(TokenBlocking().build(kb1, kb2))
        )
        for pruner_name in sorted(PRUNERS):
            batch = registry.create("pruner", pruner_name).prune(
                BlockingGraph(processed, registry.create("weighting", scheme_name))
            )
            assert streamed.pruned_edges(scheme_name, pruner_name) == batch


class TestDirtyStreaming:
    def test_dirty_corpus_equivalence(self, dirty_dataset):
        collection, _gold = dirty_dataset
        resolver = make_streamed(collection, None)
        raw = TokenBlocking().build(collection)
        assert_blocks_equal(resolver.index.snapshot(), raw)
        reference = reference_pair_statistics(raw)
        assert resolver.pairs.as_reference_stats() == reference
        for scheme_name in sorted(SCHEMES):
            batch = CNP().prune(
                BlockingGraph(
                    BlockFiltering().process(BlockPurging().process(raw)),
                    registry.create("weighting", scheme_name),
                )
            )
            assert resolver.pruned_edges(scheme_name, "CNP") == batch
