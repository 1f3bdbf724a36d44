"""Unit and property tests for similarity functions."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.matching.similarity import (
    SimilarityIndex,
    cosine_tfidf,
    jaccard,
    weighted_jaccard,
)
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

tokens = st.lists(st.sampled_from("abcdefgh"), max_size=10)
counts = st.dictionaries(st.sampled_from("abcde"), st.integers(1, 5), max_size=5)


class TestSetMeasures:
    def test_jaccard_basic(self):
        assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_jaccard_identical(self):
        assert jaccard(["a", "b"], ["b", "a"]) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard(["a"], ["b"]) == 0.0

    def test_jaccard_empty(self):
        assert jaccard([], []) == 0.0
        assert jaccard(["a"], []) == 0.0

    @given(tokens, tokens)
    def test_symmetry(self, a, b):
        assert jaccard(a, b) == pytest.approx(jaccard(b, a))

    @given(tokens, tokens)
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10))
    def test_self_similarity_is_one(self, a):
        assert jaccard(a, a) == 1.0

    def test_duplicates_do_not_count(self):
        assert jaccard(["a", "a", "b"], ["a", "c", "c"]) == pytest.approx(1 / 3)

    @given(tokens, tokens)
    def test_subset_scores_its_size_ratio(self, a, b):
        subset, superset = set(a), set(a) | set(b)
        if superset:
            assert jaccard(subset, superset) == pytest.approx(
                len(subset) / len(superset)
            )

    @given(tokens, tokens, tokens)
    def test_distance_obeys_the_triangle_inequality(self, a, b, c):
        def distance(x, y):
            # Two empty sets are identical: distance 0 (jaccard says 0.0).
            return 1.0 - jaccard(x, y) if set(x) | set(y) else 0.0

        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


class TestWeightedJaccard:
    def test_multiset_semantics(self):
        a = Counter({"x": 2, "y": 1})
        b = Counter({"x": 1, "y": 1})
        assert weighted_jaccard(a, b) == pytest.approx(2 / 3)

    def test_empty(self):
        assert weighted_jaccard(Counter(), Counter()) == 0.0

    def test_one_side_empty(self):
        assert weighted_jaccard(Counter({"x": 3}), Counter()) == 0.0

    def test_disjoint(self):
        assert weighted_jaccard(Counter({"x": 1}), Counter({"y": 2})) == 0.0

    @given(counts, counts)
    def test_symmetry_and_bounds(self, da, db):
        a, b = Counter(da), Counter(db)
        value = weighted_jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == weighted_jaccard(b, a)

    @given(counts.filter(bool), st.integers(2, 5))
    def test_scaling_both_sides_changes_nothing(self, da, factor):
        a = Counter(da)
        b = Counter({token: count + 1 for token, count in da.items()})
        scaled_a = Counter({t: c * factor for t, c in a.items()})
        scaled_b = Counter({t: c * factor for t, c in b.items()})
        assert weighted_jaccard(scaled_a, scaled_b) == pytest.approx(
            weighted_jaccard(a, b)
        )

    @given(tokens, tokens)
    def test_matches_jaccard_on_sets(self, a, b):
        set_a, set_b = set(a), set(b)
        counts_a = Counter(dict.fromkeys(set_a, 1))
        counts_b = Counter(dict.fromkeys(set_b, 1))
        assert weighted_jaccard(counts_a, counts_b) == pytest.approx(
            jaccard(set_a, set_b)
        )


class TestCosine:
    def test_plain_cosine_identical(self):
        counts = Counter({"a": 2, "b": 1})
        assert cosine_tfidf(counts, counts) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_tfidf(Counter({"a": 1}), Counter({"b": 1})) == 0.0

    def test_idf_can_zero_out_common_tokens(self):
        idf = {"common": 0.0, "rare": 2.0}
        a = Counter({"common": 5, "rare": 1})
        b = Counter({"common": 5})
        assert cosine_tfidf(a, b, idf) == 0.0

    def test_empty(self):
        assert cosine_tfidf(Counter(), Counter({"a": 1})) == 0.0

    @given(counts, counts)
    def test_bounds_and_symmetry(self, da, db):
        a, b = Counter(da), Counter(db)
        value = cosine_tfidf(a, b)
        assert 0.0 <= value <= 1.0 + 1e-9
        assert value == pytest.approx(cosine_tfidf(b, a))

    @given(counts, counts, st.integers(2, 5))
    def test_scale_invariant(self, da, db, factor):
        a, b = Counter(da), Counter(db)
        scaled = Counter({t: c * factor for t, c in a.items()})
        assert cosine_tfidf(scaled, b) == pytest.approx(cosine_tfidf(a, b))

    @given(counts, counts)
    def test_unit_idf_is_plain_cosine(self, da, db):
        a, b = Counter(da), Counter(db)
        ones = dict.fromkeys("abcde", 1.0)
        assert cosine_tfidf(a, b, ones) == pytest.approx(cosine_tfidf(a, b))

    def test_tokens_missing_from_idf_weigh_nothing(self):
        a = Counter({"known": 1, "unknown": 4})
        b = Counter({"known": 2})
        assert cosine_tfidf(a, b, {"known": 1.5}) == pytest.approx(1.0)


class TestSimilarityIndex:
    def make_index(self) -> SimilarityIndex:
        collection = EntityCollection(
            [
                EntityDescription("http://e/a", {"name": ["alpha beta"]}),
                EntityDescription("http://e/b", {"name": ["beta gamma"]}),
                EntityDescription("http://e/c", {"name": ["delta"]}),
            ],
            name="kb",
        )
        return SimilarityIndex([collection])

    def test_len_and_contains(self):
        index = self.make_index()
        assert len(index) == 3
        assert "http://e/a" in index
        assert "http://e/x" not in index

    def test_jaccard_by_uri(self):
        index = self.make_index()
        assert index.jaccard("http://e/a", "http://e/b") > 0
        assert index.jaccard("http://e/a", "http://e/c") == 0.0

    def test_common_tokens(self):
        index = self.make_index()
        assert "beta" in index.common_tokens("http://e/a", "http://e/b")

    def test_idf_rare_above_common(self):
        index = self.make_index()
        assert index.idf("delta") > index.idf("beta")
        assert index.idf("unseen") == 0.0

    def test_cosine_self_similarity(self):
        index = self.make_index()
        assert index.cosine("http://e/a", "http://e/a") == pytest.approx(1.0)

    def test_unindexed_uri_raises(self):
        index = self.make_index()
        with pytest.raises(KeyError):
            index.jaccard("http://e/a", "http://e/ghost")

    def test_tokens_of(self):
        index = self.make_index()
        assert {"alpha", "beta"} <= index.tokens_of("http://e/a")
        assert "gamma" not in index.tokens_of("http://e/a")

    def test_weighted_jaccard_by_uri(self):
        index = self.make_index()
        assert index.weighted_jaccard("http://e/a", "http://e/a") == 1.0
        assert index.weighted_jaccard("http://e/a", "http://e/c") == 0.0
        assert 0.0 < index.weighted_jaccard("http://e/a", "http://e/b") < 1.0

    def test_first_collection_describing_a_uri_wins(self):
        first = EntityCollection(
            [EntityDescription("http://e/a", {"name": ["alpha"]})], name="one"
        )
        second = EntityCollection(
            [
                EntityDescription("http://e/a", {"name": ["omega"]}),
                EntityDescription("http://e/b", {"name": ["alpha"]}),
            ],
            name="two",
        )
        index = SimilarityIndex([first, second])
        assert len(index) == 2
        assert "omega" not in index.tokens_of("http://e/a")
        assert index.idf("omega") == 0.0

    def test_cosine_rows_equals_cosine(self):
        index = self.make_index()
        uris = ["http://e/a", "http://e/b", "http://e/c"]
        left = [u for u in uris for _ in uris]
        right = uris * len(uris)
        assert index.uris() == uris  # rows in collection order
        row_of = {uri: row for row, uri in enumerate(uris)}
        scores = index.cosine_rows(
            np.array([row_of[u] for u in left]), np.array([row_of[u] for u in right])
        ).tolist()
        assert scores == [index.cosine(a, b) for a, b in zip(left, right)]

    def test_cosine_rows_of_no_pairs(self):
        empty = np.array([], dtype=np.int64)
        assert len(self.make_index().cosine_rows(empty, empty)) == 0

    def test_cosine_rows_rejects_unequal_lengths(self):
        index = self.make_index()
        with pytest.raises(ValueError):
            index.cosine_rows(np.array([0]), np.array([], dtype=np.int64))

    def test_cosine_rows_rejects_rows_past_the_index(self):
        index = self.make_index()
        with pytest.raises(IndexError):
            index.cosine_rows(np.array([0]), np.array([len(index)]))
