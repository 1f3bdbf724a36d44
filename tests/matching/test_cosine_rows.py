"""The vectorized batch cosine path: bit-identity and wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import ResolutionContext
from repro.datasets import load_movies, load_restaurants
from repro.matching.matcher import ThresholdMatcher
from repro.matching.similarity import SimilarityIndex
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


@pytest.fixture(scope="module")
def movie_index():
    kb1, kb2, _ = load_movies()
    return SimilarityIndex([kb1, kb2]), kb1, kb2


def all_cross_pairs(kb1, kb2, limit=300):
    pairs = [(a, b) for a in kb1.uris() for b in kb2.uris()]
    return pairs[:limit]


def rows(index, uris):
    """The index rows of *uris*, as :meth:`SimilarityIndex.cosine_rows` takes them."""
    row_of = {uri: row for row, uri in enumerate(index.uris())}
    return np.array([row_of[uri] for uri in uris], dtype=np.int64)


def id_columns(context, pairs):
    """The left and right context ids of *pairs*: what engines prime."""
    ids_of = context.interner.ids_of
    return ids_of(a for a, _ in pairs), ids_of(b for _, b in pairs)


class TestCosineRows:
    def test_bit_identical_to_scalar(self, movie_index):
        index, kb1, kb2 = movie_index
        pairs = all_cross_pairs(kb1, kb2)
        scores = index.cosine_rows(rows(index, (a for a, _ in pairs)), rows(index, (b for _, b in pairs)))
        for (a, b), score in zip(pairs, scores):
            assert float(score) == index.cosine(a, b)

    def test_symmetric_and_order_preserving(self, movie_index):
        index, kb1, kb2 = movie_index
        pairs = all_cross_pairs(kb1, kb2, limit=50)
        lefts, rights = rows(index, (a for a, _ in pairs)), rows(index, (b for _, b in pairs))
        forward = index.cosine_rows(lefts, rights)
        backward = index.cosine_rows(rights, lefts)
        assert [float(s) for s in forward] == pytest.approx(
            [float(s) for s in backward]
        )

    def test_empty_input(self, movie_index):
        index, _, _ = movie_index
        assert len(index.cosine_rows(rows(index, []), rows(index, []))) == 0

    def test_length_mismatch_rejected(self, movie_index):
        index, kb1, _ = movie_index
        with pytest.raises(ValueError):
            index.cosine_rows(rows(index, kb1.uris()[:2]), rows(index, kb1.uris()[:1]))

    def test_row_past_the_index_raises(self, movie_index):
        index, kb1, _ = movie_index
        with pytest.raises(IndexError):
            index.cosine_rows(rows(index, [kb1.uris()[0]]), np.array([len(index)]))

    def test_tokenless_description_scores_zero(self):
        collection = EntityCollection(
            [
                EntityDescription("http://e/a", {"p": ["!!"]}),
                EntityDescription("http://e/b", {"p": ["alpha beta"]}),
            ]
        )
        index = SimilarityIndex([collection])
        scores = index.cosine_rows(rows(index, ["http://e/a"]), rows(index, ["http://e/b"]))
        assert float(scores[0]) == 0.0 == index.cosine("http://e/a", "http://e/b")


class TestMatcherBatchPath:
    def test_decide_many_equals_decide(self, movie_index):
        index, kb1, kb2 = movie_index
        matcher = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        pairs = all_cross_pairs(kb1, kb2, limit=120)
        batch = matcher.decide_many(pairs)
        for pair, decision in zip(pairs, batch):
            single = matcher.decide(*pair)
            assert decision.similarity == single.similarity
            assert decision.is_match == single.is_match

    def test_primed_decisions_equal_decide(self, movie_index):
        index, kb1, kb2 = movie_index
        matcher = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        context = ResolutionContext([kb1, kb2])
        matcher.bind(context)
        pairs = [tuple(sorted(pair)) for pair in all_cross_pairs(kb1, kb2, limit=120)]
        matcher.prime(*id_columns(context, pairs))
        assert len(matcher._primed) == len(pairs)
        for pair in pairs:
            single = matcher.decide(*pair)
            ids = map(context.interner.id_of, pair)
            assert matcher.decide_ids(*ids) == (single.similarity, single.is_match)

    def test_prime_caches_bit_identical_scores(self, movie_index):
        index, kb1, kb2 = movie_index
        primed = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        plain = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        for matcher in (primed, plain):
            matcher.bind(ResolutionContext([kb1, kb2]))
        pairs = all_cross_pairs(kb1, kb2, limit=120)
        primed.prime(*id_columns(primed._context, pairs))
        assert primed._primed  # the cache actually filled
        ids = primed._context.interner.ids_of
        for a, b in pairs:
            assert primed.decide_ids(*ids((a, b))) == plain.decide_ids(*ids((a, b)))

    def test_rebinding_drops_primed_scores(self, movie_index):
        # Primed scores are keyed by the bound context's ids.
        index, kb1, kb2 = movie_index
        matcher = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        context = ResolutionContext([kb1, kb2])
        matcher.bind(context)
        matcher.prime(*id_columns(context, all_cross_pairs(kb1, kb2, limit=10)))
        assert matcher._primed
        matcher.bind(ResolutionContext([kb2, kb1]))
        assert not matcher._primed

    def test_prime_skips_non_cosine_measures(self, movie_index):
        index, kb1, kb2 = movie_index
        matcher = ThresholdMatcher(index, threshold=0.3, measure="jaccard")
        context = ResolutionContext([kb1, kb2])
        matcher.bind(context)
        matcher.prime(*id_columns(context, all_cross_pairs(kb1, kb2, limit=10)))
        assert not matcher._primed

    def test_prime_skips_unindexed_pairs(self, movie_index):
        index, kb1, _ = movie_index
        matcher = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        context = ResolutionContext([kb1])
        matcher.bind(context)
        context.key(kb1.uris()[0], "http://nope")  # an id past the index
        matcher.prime(*id_columns(context, [(kb1.uris()[0], "http://nope")]))
        assert not matcher._primed

    def test_prime_skips_ids_that_are_not_index_rows(self, movie_index):
        # The context ids are the index rows only over the same collections,
        # in the same order; otherwise the loop scores every pair itself.
        index, kb1, kb2 = movie_index
        matcher = ThresholdMatcher(index, threshold=0.3, measure="cosine")
        context = ResolutionContext([kb2, kb1])
        matcher.bind(context)
        pairs = all_cross_pairs(kb1, kb2, limit=10)
        matcher.prime(*id_columns(context, pairs))
        assert not matcher._primed
        for a, b in pairs:
            score = matcher.decide_ids(*context.interner.ids_of((a, b)))[0]
            assert score == index.cosine(a, b)

    def test_primed_cache_invalidated_when_index_drifts(self):
        from repro.model.description import EntityDescription
        from repro.stream import StreamResolver

        resolver = StreamResolver()
        resolver.ingest(EntityDescription("http://e/x", {"p": ["kappa sigma"]}))
        resolver.ingest(EntityDescription("http://e/y", {"p": ["kappa tau"]}))
        matcher = ThresholdMatcher(resolver.similarity, threshold=0.1, measure="cosine")
        pair = ("http://e/x", "http://e/y")
        matcher.prime([0], [1])
        # A later insert shifts IDF; the primed score must not survive it.
        resolver.ingest(EntityDescription("http://e/z", {"p": ["kappa omega"]}))
        assert matcher.similarity(*pair) == resolver.similarity.cosine(*pair)

    def test_restaurants_decisions_stable_end_to_end(self):
        # The primed batch path must not flip any pipeline decision.
        from repro.api import Pipeline, PipelineSpec

        kb1, kb2, gold = load_restaurants()
        result = Pipeline.run(PipelineSpec(), kb1, kb2, gold=gold)
        rerun = Pipeline.run(PipelineSpec(), kb1, kb2, gold=gold)
        assert result.matched_pairs() == rerun.matched_pairs()
