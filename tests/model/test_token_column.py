"""Tokenise once: one token column per collection, shared by batch readers.

Structural guards:

* a sequential ``Pipeline.run`` over two fresh collections calls
  ``Tokenizer.tokens`` exactly once per description (token blocking and
  the TF-IDF index read one column), and a second run none;
* ``EntityCollection.add`` of a merge and ``remove`` drop the memo, and
  what is rebuilt equals a fresh collection's blocks and scores;
* a ``StreamResolver`` replay builds no ``TokenColumn`` — its collections
  change on every event, so it tokenises per insert;
* the similarity index keeps no per-description dict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Pipeline, PipelineSpec
from repro.blocking.token_blocking import TokenBlocking
from repro.datasets import SyntheticConfig, load_restaurants, synthesize_pair
from repro.matching import similarity as similarity_module
from repro.matching.similarity import SimilarityIndex
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.tokenizer import TokenColumn, Tokenizer
from repro.stream import StreamResolver
from repro.stream.workload import SCENARIOS

SPEC = {
    "blocking": {"blocker": "token", "purging": "purging", "filtering": "filtering"},
    "weighting": "ARCS",
    "pruning": "CNP",
    "matching": {
        "matcher": {"name": "threshold", "params": {"threshold": 0.35}},
        "update_phase": True,
        "budget": None,
    },
}


@pytest.fixture
def tokens_calls(monkeypatch):
    calls: list[str] = []
    original = Tokenizer.tokens

    def counting(self, description):
        calls.append(description.uri)
        return original(self, description)

    monkeypatch.setattr(Tokenizer, "tokens", counting)
    return calls


@pytest.fixture
def columns_built(monkeypatch):
    built: list[int] = []
    original = TokenColumn.__init__

    def counting(self, collection, tokenizer):
        built.append(len(collection))
        original(self, collection, tokenizer)

    monkeypatch.setattr(TokenColumn, "__init__", counting)
    return built


def test_a_sequential_run_tokenises_each_description_once(tokens_calls):
    kb1, kb2, gold = load_restaurants()
    spec = PipelineSpec.from_dict(SPEC)
    first = Pipeline.run(spec, kb1, kb2, gold=gold)
    assert sorted(tokens_calls) == sorted(kb1.uris() + kb2.uris())
    tokens_calls.clear()
    second = Pipeline.run(spec, kb1, kb2, gold=gold)
    assert tokens_calls == []
    assert second.matched_pairs() == first.matched_pairs()
    assert second.edges == first.edges


def test_the_memo_is_per_signature_and_per_collection():
    kb1, kb2, _ = load_restaurants()
    tokenizer = Tokenizer(include_uri_infix=True)
    column = tokenizer.column(kb1)
    assert Tokenizer(include_uri_infix=True).column(kb1) is column
    assert tokenizer.column(kb2) is not column
    other = Tokenizer(include_uri_infix=True, min_token_length=3)
    assert other.column(kb1) is not column
    assert len(kb1.token_columns) == 2
    # Rows follow collection order; row tokens are first-occurrence ordered.
    assert column.uris == kb1.uris()
    for row, description in enumerate(kb1):
        span = slice(column.indptr[row], column.indptr[row + 1])
        counts = tokenizer.token_counts(description)
        assert [column.vocabulary[i] for i in column.ids[span]] == list(counts)
        assert column.counts[span].tolist() == list(counts.values())


def blocks_and_scores(kb1, kb2):
    blocks = TokenBlocking().build(kb1, kb2)
    index = SimilarityIndex([kb1, kb2])
    pairs = sorted({pair for block in blocks for pair in block.comparisons()})
    row_of = {uri: row for row, uri in enumerate(index.uris())}
    scores = index.cosine_rows(
        *(np.array([row_of[pair[side]] for pair in pairs], np.int64) for side in (0, 1))
    )
    return [(b.key, b.entities1, b.entities2) for b in blocks], pairs, scores.tolist()


def copy_of(collection: EntityCollection) -> EntityCollection:
    return EntityCollection([d.copy() for d in collection], name=collection.name)


@pytest.mark.parametrize("mutation", ["merge", "remove", "add"])
def test_a_mutation_drops_the_memo_and_the_rebuild_is_fresh(mutation):
    kb1, kb2, _ = load_restaurants()
    first_uri = kb1.uris()[0]
    blocks_and_scores(kb1, kb2)
    assert kb1.token_columns
    if mutation == "merge":
        kb1.add(EntityDescription(first_uri, {"note": ["zanzibar grill"]}))
    elif mutation == "remove":
        assert kb1.remove(first_uri)
    else:
        kb1.add(EntityDescription("http://e/newcomer", {"name": ["zanzibar grill"]}))
    assert kb1.token_columns == {}
    assert blocks_and_scores(kb1, kb2) == blocks_and_scores(copy_of(kb1), copy_of(kb2))


def test_a_stream_replay_builds_no_token_column(columns_built):
    data = synthesize_pair(SyntheticConfig(entities=160, overlap=0.7, seed=5))
    kb1, kb2 = data.kb1, data.kb2
    resolver = StreamResolver(clean_clean=True, processed_view=True, reconcile_every=9)
    events = SCENARIOS["uniform"](kb1, kb2) + SCENARIOS["churn"](kb1, kb2)
    mutations = 0
    for event in events:
        if event.kind == "insert":
            resolver.ingest(event.description.copy(), event.source)
            mutations += 1
        elif event.kind == "delete":
            resolver.delete(event.description.uri)
            mutations += 1
        else:
            resolver.resolve(event.description.copy(), source=event.source)
        if mutations >= 200:
            break
    assert mutations == 200
    assert columns_built == []


def test_the_index_keeps_no_per_description_dict():
    kb1, kb2, _ = load_restaurants()
    index = SimilarityIndex([kb1, kb2])
    uris = set(kb1.uris()) | set(kb2.uris())
    keyed_by_uri = []
    for name, value in vars(index).items():
        if isinstance(value, dict):
            # token → id or URI → row; never a per-description profile
            assert all(isinstance(v, int) for v in value.values()), name
            if uris & set(value):
                keyed_by_uri.append(name)
    assert keyed_by_uri == ["_rows"]
    assert isinstance(index._weights, np.ndarray)
    assert not hasattr(similarity_module, "cosine_many_vectors")
    assert not hasattr(SimilarityIndex, "_ensure_id_vectors")
