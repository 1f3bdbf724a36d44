"""The columnar TF-IDF index and token blocking against oracles of their own.

Both read a collection's token column.  The oracles here never do: the
index is held to the module's scalar ``cosine_tfidf`` / ``jaccard`` /
``weighted_jaccard`` over ``Tokenizer.token_counts`` with IDF taken by the
documented formula, and token blocking to the base class's
``keys_for`` grouping.  ``test_cosine_rows.py`` compares ``cosine_rows``
with ``cosine``, which would not catch both drifting together.

One rule is pinned alongside: a URI is one document, described as
``ResolutionContext`` describes it (the first collection holding it) and
counted once in document frequency.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.blocking.base import Blocker
from repro.blocking.token_blocking import TokenBlocking
from repro.core.engine import ResolutionContext
from repro.matching.similarity import (
    SimilarityIndex,
    cosine_tfidf,
    jaccard,
    weighted_jaccard,
)
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.tokenizer import Tokenizer

SHARED = "http://s/shared"


def collection(name: str, rows) -> EntityCollection:
    return EntityCollection(
        [EntityDescription(uri, {"p": list(values)}) for uri, values in rows], name=name
    )


def oracle(collections, tokenizer):
    """Per-URI token counts (first collection wins) and the IDF table."""
    documents: dict[str, Counter] = {}
    for kb in collections:
        for description in kb:
            documents.setdefault(description.uri, tokenizer.token_counts(description))
    corpus_size = max(len(documents), 1)
    df: Counter = Counter()
    for counts in documents.values():
        df.update(set(counts))
    idf = {t: math.log((1 + corpus_size) / (1 + n)) + 1.0 for t, n in df.items()}
    return documents, idf


# -- the shared-URI rule ------------------------------------------------------


def shared_uri_corpus():
    kb1 = collection("kb1", [(SHARED, ["alpha beta"]), ("http://a/1", ["alpha"])])
    kb2 = collection("kb2", [(SHARED, ["gamma delta"]), ("http://b/1", ["gamma"])])
    return kb1, kb2


def test_a_uri_both_kbs_describe_is_one_document_as_the_resolver_reads_it():
    kb1, kb2 = shared_uri_corpus()
    index = SimilarityIndex([kb1, kb2])
    tokenizer = Tokenizer(include_uri_infix=True)
    described = ResolutionContext([kb1, kb2]).description(SHARED)
    assert index.tokens_of(SHARED) == tokenizer.token_set(described)
    assert index.tokens_of(SHARED) == {"alpha", "beta", "shared"}
    assert len(index) == 3
    # "shared" occurs in one document of three, "alpha" in two.
    assert index.idf("shared") == math.log(4 / 2) + 1.0
    assert index.idf("alpha") == math.log(4 / 3) + 1.0
    assert index.idf("shared") > index.idf("alpha")
    # kb2's description of the URI is shadowed: its tokens are unseen.
    assert index.idf("delta") == 0.0
    assert index.cosine("http://a/1", SHARED) > 0.0
    assert index.cosine("http://b/1", SHARED) == 0.0


# -- the property ---------------------------------------------------------------

WORDS = [
    "alpha", "beta", "gamma", "ab", "x", "café", "CAFE", "straße", "ΣΟΦΙΑΣ",
    "日本語", "𝐀𝐁𝐂", "𝔘𝔫𝔦", "a_b", "42", "!!", "😀",
]
URIS = [
    SHARED, "http://a/1", "http://a/alpha", "http://b/gamma_beta",
    "urn:x:𝐀𝐁", "http://e/数据", "http://e/x#beta",
]
values = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
rows = st.lists(
    st.tuples(st.sampled_from(URIS), st.lists(values, max_size=3)), max_size=8
)
corpora = st.lists(rows, min_size=1, max_size=2)
tokenizers = st.builds(
    Tokenizer,
    min_token_length=st.integers(1, 3),
    include_uri_infix=st.booleans(),
    include_reference_infixes=st.booleans(),
)
DEFAULT = Tokenizer(include_uri_infix=True)
#: adversarial seeds: a tokenless description, repeated tokens, non-ASCII
#: and astral-plane values, one token in every description, a single
#: dirty collection, the shared URI, and a token in 19 of 20 descriptions
#: (an IDF numpy's ``log`` rounds apart from ``math.log``)
ADVERSARIAL = [
    [[(f"http://a/{i}", ["alpha" if i else "beta"]) for i in range(20)]],
    [[("http://a/1", ["!! 😀"]), ("http://a/2", ["alpha alpha beta alpha"])]],
    [[("http://a/1", ["alpha"]), ("http://a/2", ["alpha beta"]), ("http://a/3", ["alpha"])]],
    [[("http://e/数据", ["ΣΟΦΙΑΣ straße café", "𝐀𝐁𝐂 𝔘𝔫𝔦"])], [("urn:x:𝐀𝐁", ["CAFE abc"])]],
    [[("http://a/1", ["alpha beta beta"])], [("http://b/1", ["beta alpha"])]],
    [[(u, ["gamma"]) for u in URIS]],
    [
        [(SHARED, ["alpha beta"]), ("http://a/1", ["alpha"])],
        [(SHARED, ["gamma delta"]), ("http://b/1", ["gamma"])],
    ],
]


def adversarial(*extra):
    def seeded(test):
        for corpus in ADVERSARIAL:
            test = example(corpus, DEFAULT, *extra)(test)
        return test

    return seeded


@settings(max_examples=60, deadline=None)
@given(corpora, tokenizers)
@adversarial()
def test_index_equals_the_scalar_formulas_over_token_counts(corpus, tokenizer):
    kbs = [collection(f"kb{i}", kb_rows) for i, kb_rows in enumerate(corpus)]
    index = SimilarityIndex(kbs, tokenizer=tokenizer)
    documents, idf = oracle(kbs, tokenizer)
    assert len(index) == len(documents)
    for token, value in idf.items():
        assert index.idf(token) == value
    assert index.idf("never-a-token") == 0.0
    uris = list(documents)
    pairs = [(a, b) for a in uris for b in uris]
    expected = [cosine_tfidf(documents[a], documents[b], idf) for a, b in pairs]
    assert [index.cosine(a, b) for a, b in pairs] == expected
    row_of = {uri: row for row, uri in enumerate(index.uris())}
    batch = index.cosine_rows(
        *(np.array([row_of[pair[side]] for pair in pairs], np.int64) for side in (0, 1))
    )
    assert [float(score) for score in batch] == expected
    for a, b in pairs:
        assert index.jaccard(a, b) == jaccard(documents[a], documents[b])
        assert index.weighted_jaccard(a, b) == weighted_jaccard(
            documents[a], documents[b]
        )
        assert index.common_tokens(a, b) == set(documents[a]) & set(documents[b])
    for uri in uris:
        assert index.tokens_of(uri) == frozenset(documents[uri])


class KeysForTokenBlocking(TokenBlocking):
    """Token blocking through the base class's per-description grouping."""

    groups = Blocker.groups


def block_rows(blocks):
    return [
        (block.key, block.entities1, block.entities2, block.cardinality())
        for block in blocks
    ]


@settings(max_examples=60, deadline=None)
@given(corpora, tokenizers, st.booleans())
@adversarial(True)
def test_token_blocking_equals_the_keys_for_grouping(corpus, tokenizer, drop_singletons):
    kbs = [collection(f"kb{i}", kb_rows) for i, kb_rows in enumerate(corpus)]
    built = TokenBlocking(tokenizer).build(*kbs, drop_singletons=drop_singletons)
    reference = KeysForTokenBlocking(tokenizer).build(
        *kbs, drop_singletons=drop_singletons
    )
    assert built.name == reference.name
    assert block_rows(built) == block_rows(reference)
    assert built.interner().uris() == reference.interner().uris()
    assert built.id_blocks() == reference.id_blocks()


@pytest.mark.parametrize("drop_singletons", [True, False])
def test_token_blocking_on_the_shared_uri_corpus(drop_singletons):
    kb1, kb2 = shared_uri_corpus()
    built = TokenBlocking().build(kb1, kb2, drop_singletons=drop_singletons)
    reference = KeysForTokenBlocking().build(kb1, kb2, drop_singletons=drop_singletons)
    assert block_rows(built) == block_rows(reference)
    assert built.id_blocks() == reference.id_blocks()
