"""Tests for text normalization and tokenization helpers."""

from __future__ import annotations

import re
import unicodedata
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.utils import text as text_module
from repro.utils.text import normalize, strip_accents, token_split


def reference_tokens(text: str, min_length: int = 1) -> list[str]:
    """The full pipeline, spelled out: NFKD, drop combining marks,
    lower-case, collapse whitespace, split on non-alphanumerics."""
    decomposed = unicodedata.normalize("NFKD", text)
    folded = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    folded = re.sub(r"\s+", " ", folded.lower()).strip()
    return [t for t in re.findall(r"[^\W_]+", folded) if len(t) >= min_length]


class TestStripAccents:
    def test_folds_common_accents(self):
        assert strip_accents("café") == "cafe"
        assert strip_accents("Müller") == "Muller"
        assert strip_accents("naïve") == "naive"

    def test_plain_ascii_unchanged(self):
        assert strip_accents("plain text 123") == "plain text 123"

    def test_empty(self):
        assert strip_accents("") == ""


class TestNormalize:
    def test_lowercases(self):
        assert normalize("HeLLo") == "hello"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b\n c ") == "a b c"

    def test_combines_accent_and_case(self):
        assert normalize("CAFÉ  Noir") == "cafe noir"


class TestTokenSplit:
    def test_splits_on_punctuation(self):
        assert token_split("hello-world_foo.bar") == ["hello", "world", "foo", "bar"]

    def test_keeps_numbers(self):
        assert token_split("route 66") == ["route", "66"]

    def test_min_length_filter(self):
        assert token_split("a bb ccc", min_length=2) == ["bb", "ccc"]
        assert token_split("a bb ccc", min_length=3) == ["ccc"]

    def test_duplicates_preserved(self):
        assert token_split("la la land") == ["la", "la", "land"]

    def test_empty_and_symbol_only(self):
        assert token_split("") == []
        assert token_split("!!! --- ###") == []

    @given(st.text(max_size=200))
    def test_tokens_are_normalized_alnum(self, text):
        for token in token_split(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(st.text(max_size=200), st.integers(1, 5))
    def test_min_length_respected(self, text, min_length):
        for token in token_split(text, min_length):
            assert len(token) >= min_length


class TestAsciiShortcut:
    """ASCII input skips NFKD (it is the identity there); nothing else may."""

    NON_ASCII = ["İstanbul", "ﬁnal cut", "café", "Straße 12", "日本語 テキスト", "x\u00a0y", "ǅ"]

    @given(st.text(max_size=200), st.integers(1, 4))
    @example("İstanbul", 1)
    @example("ﬁnal cut", 2)
    @example("café", 1)
    @example("Straße 12", 1)
    @example("日本語 テキスト", 1)
    @example("A_b-C\x1fd\te\x0bf  G", 1)
    def test_equals_the_nfkd_reference(self, text, min_length):
        assert token_split(text, min_length) == reference_tokens(text, min_length)

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=200))
    def test_ascii_equals_the_nfkd_reference(self, text):
        assert token_split(text) == reference_tokens(text)

    @pytest.mark.parametrize("value", NON_ASCII)
    def test_non_ascii_takes_the_full_path(self, value):
        with mock.patch.object(text_module, "normalize", wraps=normalize) as full:
            tokens = token_split(value)
        full.assert_called_once_with(value)
        assert tokens == reference_tokens(value)

    def test_ascii_skips_normalization(self):
        with mock.patch.object(text_module, "normalize", wraps=normalize) as full:
            assert token_split("Plain ASCII_value-42") == ["plain", "ascii", "value", "42"]
        full.assert_not_called()

    def test_expected_foldings(self):
        assert token_split("İstanbul") == ["istanbul"]
        assert token_split("ﬁnal") == ["final"]
        assert token_split("Straße") == ["straße"]
        assert token_split("日本語 テキスト") == ["日本語", "テキスト"]
