"""Tests for q-grams blocking."""

from __future__ import annotations

import pytest

from repro.blocking.qgrams import QGramsBlocking, qgrams
from repro.blocking.token_blocking import TokenBlocking
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.tokenizer import Tokenizer


def description(uri: str, **attrs) -> EntityDescription:
    return EntityDescription(uri, {k: [v] for k, v in attrs.items()})


class TestQgramsFunction:
    def test_basic(self):
        assert qgrams("abcd", 3) == {"abc", "bcd"}

    def test_short_token_kept_whole(self):
        assert qgrams("ab", 3) == {"ab"}

    def test_exact_length(self):
        assert qgrams("abc", 3) == {"abc"}

    def test_count(self):
        assert len(qgrams("abcdef", 2)) == 5


class TestQGramsBlocking:
    def test_typo_robustness(self):
        # 'kubrick' vs 'kubrik' share no token but share q-grams.
        kb1 = EntityCollection(
            [description("http://a/1", name="kubrick")], name="kb1"
        )
        kb2 = EntityCollection(
            [description("http://b/1", name="kubrik")], name="kb2"
        )
        token_blocks = TokenBlocking(Tokenizer(include_uri_infix=False)).build(kb1, kb2)
        qgram_blocks = QGramsBlocking(
            q=3, tokenizer=Tokenizer(include_uri_infix=False)
        ).build(kb1, kb2)
        assert len(token_blocks.distinct_comparisons()) == 0
        assert ("http://a/1", "http://b/1") in qgram_blocks.distinct_comparisons()

    def test_superset_of_token_recall(self, movies):
        kb_a, kb_b, gold = movies
        tokenizer = Tokenizer(include_uri_infix=True)
        token_pairs = TokenBlocking(tokenizer).build(kb_a, kb_b).distinct_comparisons()
        qgram_pairs = QGramsBlocking(3, tokenizer).build(kb_a, kb_b).distinct_comparisons()
        # Every token implies its own q-grams: q-gram candidates are a superset.
        assert token_pairs <= qgram_pairs

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramsBlocking(q=1)

    def test_name_reflects_q(self):
        assert QGramsBlocking(q=4).name == "4grams-blocking"
