"""Tests for the shared tokenizer."""

from __future__ import annotations

import pytest

from repro.model.description import EntityDescription
from repro.model.tokenizer import Tokenizer


def description() -> EntityDescription:
    return EntityDescription(
        "http://ex.org/resource/Stanley_Kubrick",
        {
            "name": ["Stanley Kubrick"],
            "film": ["http://ex.org/resource/The_Shining"],
            "born": ["1928"],
        },
    )


class TestTokens:
    def test_literal_tokens_extracted(self):
        tokenizer = Tokenizer(include_uri_infix=False)
        tokens = tokenizer.tokens(description())
        assert "stanley" in tokens
        assert "kubrick" in tokens
        assert "1928" in tokens

    def test_uri_infix_tokens_included_by_default(self):
        tokenizer = Tokenizer()
        # The URI contributes stanley/kubrick again.
        counts = tokenizer.token_counts(description())
        assert counts["stanley"] == 2

    def test_reference_tokens_not_leaked_as_literals(self):
        tokenizer = Tokenizer(include_uri_infix=False)
        tokens = tokenizer.token_set(description())
        assert "shining" not in tokens

    def test_reference_infixes_opt_in(self):
        tokenizer = Tokenizer(include_uri_infix=False, include_reference_infixes=True)
        tokens = tokenizer.token_set(description())
        assert "shining" in tokens

    def test_min_token_length(self):
        desc = EntityDescription("u", {"p": ["a bb ccc"]})
        tokenizer = Tokenizer(min_token_length=3, include_uri_infix=False)
        assert tokenizer.token_set(desc) == frozenset({"ccc"})

    def test_min_token_length_validated(self):
        with pytest.raises(ValueError):
            Tokenizer(min_token_length=0)

    def test_token_set_is_frozenset(self):
        assert isinstance(Tokenizer().token_set(description()), frozenset)

    def test_token_counts_multiplicity(self):
        desc = EntityDescription("u", {"p": ["la la land"]})
        tokenizer = Tokenizer(include_uri_infix=False)
        assert tokenizer.token_counts(desc)["la"] == 2

    def test_empty_description(self):
        desc = EntityDescription("http://ex.org/x", {})
        tokenizer = Tokenizer(include_uri_infix=False)
        assert tokenizer.tokens(desc) == []

    def test_a_token_in_every_description_is_kept(self):
        # No frequency-based suppression: blocking decides what a
        # ubiquitous token is worth (purging), not the tokenizer.
        tokenizer = Tokenizer(include_uri_infix=False)
        descriptions = [
            EntityDescription(f"http://e/{i}", {"p": [f"restaurant unique{i}"]})
            for i in range(10)
        ]
        assert all("restaurant" in tokenizer.token_set(d) for d in descriptions)

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_no_token_is_shorter_than_the_minimum(self, length):
        tokenizer = Tokenizer(min_token_length=length, include_reference_infixes=True)
        tokens = tokenizer.tokens(description())
        assert tokens
        assert all(len(token) >= length for token in tokens)

    def test_counts_cover_every_token(self):
        tokenizer = Tokenizer(include_reference_infixes=True)
        counts = tokenizer.token_counts(description())
        assert sum(counts.values()) == len(tokenizer.tokens(description()))
        assert set(counts) == tokenizer.token_set(description())


class TestColumn:
    @pytest.mark.parametrize(
        "options",
        [{}, {"include_uri_infix": False}, {"include_reference_infixes": True}],
    )
    def test_rows_hold_each_descriptions_token_counts(self, movies, options):
        tokenizer = Tokenizer(**options)
        collection = movies[0]
        column = tokenizer.column(collection)
        assert column.uris == collection.uris()
        for row, description in enumerate(collection):
            span = slice(column.indptr[row], column.indptr[row + 1])
            tokens = [column.vocabulary[i] for i in column.ids[span].tolist()]
            assert dict(zip(tokens, column.counts[span].tolist())) == dict(
                tokenizer.token_counts(description)
            )
            # Row order is first-occurrence order.
            assert tokens == list(dict.fromkeys(tokenizer.tokens(description)))

    def test_postings_invert_the_token_sets(self, movies):
        tokenizer = Tokenizer()
        collection = movies[1]
        expected: dict[str, list[str]] = {}
        for description in collection:
            for token in dict.fromkeys(tokenizer.tokens(description)):
                expected.setdefault(token, []).append(description.uri)
        column = tokenizer.column(collection)
        indptr, rows = column.postings()
        postings = {
            token: [column.uris[row] for row in rows[indptr[i] : indptr[i + 1]].tolist()]
            for i, token in enumerate(column.vocabulary)
        }
        assert postings == expected
