"""A resolver maintains what its queries read — structural guards.

* one statistics table per resolver: ``view_pairs`` under a processed
  view (``pairs is None``), the raw ``pairs`` without one
  (``view_pairs is None``);
* the index takes no neighbour union on a consumer's behalf, so under a
  view an insert into (or a delete from) a 5 000-member stop-word block
  makes **zero** ``neighbours_of`` calls;
* query-size batches are scored by the scalar ``cosine`` — the
  streaming similarity index has no ``cosine_rows`` — and every score a
  query records is that function's value, float for float;
* EJS (the scheme that reads the survivor table's ``degrees`` /
  ``edge_count``) under WNP / CNP stays equal to the batch graph over
  ``view.materialize()``.
"""

from __future__ import annotations

import math

import pytest

from repro.datasets import load_restaurants
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.weighting import EJS
from repro.model.description import EntityDescription
from repro.model.interner import pack_pair
from repro.stream import StreamResolver
from repro.stream import resolver as resolver_module
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex
from repro.stream.similarity import StreamingSimilarityIndex
from repro.stream.workload import SCENARIOS

from metablocking.string_graph_oracle import graph_weights


def _description(uri: str, text: str) -> EntityDescription:
    return EntityDescription(uri, {"p": [text]})


def test_a_resolver_holds_the_one_table_its_queries_read():
    viewed = StreamResolver(processed_view=True)
    assert viewed.pairs is None
    assert viewed.view_pairs is not None
    assert viewed.index._consumers == [viewed.view]
    raw = StreamResolver()
    assert raw.view is None and raw.view_pairs is None
    assert raw.index._consumers == [raw.pairs]
    assert not hasattr(DeltaConsumer, "on_neighbours")


def test_view_events_take_no_neighbour_union_of_a_stop_word_block(monkeypatch):
    resolver = StreamResolver(processed_view=True)
    for i in range(5000):
        resolver.ingest(_description(f"http://e/{i}", "stop"))
    calls = []
    original = IncrementalBlockIndex.neighbours_of

    def counting(self, entity_id):
        calls.append(entity_id)
        return original(self, entity_id)

    monkeypatch.setattr(IncrementalBlockIndex, "neighbours_of", counting)
    newcomer = _description("http://e/new", "stop rare rarer")
    resolver.ingest(newcomer)
    resolver.ingest(_description("http://e/new", "stop late"))  # a merge
    assert resolver.delete(newcomer.uri)
    assert calls == []

    # Without a view the raw table brackets each event with its own two.
    raw = StreamResolver()
    raw.ingest(_description("http://e/0", "stop"))
    raw.ingest(_description("http://e/1", "stop"))
    assert len(calls) == 4
    assert raw.pairs.edge_count == 1
    raw.delete("http://e/1")
    assert len(calls) == 6
    assert raw.pairs.edge_count == 0 and raw.pairs.degrees == {}


@pytest.fixture(scope="module")
def restaurants():
    kb1, kb2, _gold = load_restaurants()
    return kb1, kb2


def _resolved_queries(resolver, corpus, **query):
    """Replay two scenarios; yield each query event once it is resolved."""
    kb1, kb2 = corpus
    for event in SCENARIOS["uniform"](kb1, kb2) + SCENARIOS["churn"](kb1, kb2):
        if event.kind == "insert":
            resolver.ingest(event.description.copy(), event.source)
        elif event.kind == "delete":
            resolver.delete(event.description.uri)
        else:
            resolver.resolve(event.description.copy(), source=event.source, **query)
            yield event


@pytest.mark.parametrize("processed_view", [True, False], ids=["view", "raw"])
def test_recorded_scores_are_the_scalar_cosine(restaurants, processed_view):
    assert not hasattr(StreamingSimilarityIndex, "cosine_rows")
    assert not hasattr(StreamingSimilarityIndex(StreamResolver().store), "_token_ids")
    resolver = StreamResolver(
        clean_clean=True, processed_view=processed_view, reconcile_every=7
    )
    fresh = []
    decide_ids = resolver.matcher.decide_ids

    def recording(a, b):
        verdict = decide_ids(a, b)
        fresh.append((a, b, verdict[0]))
        return verdict

    resolver.matcher.decide_ids = recording
    graph, uris = resolver.match_graph, resolver.context.uris
    scored = 0
    for _event in _resolved_queries(resolver, restaurants, pruner="none"):
        # Fresh decisions were scored against the corpus as it is now,
        # and recorded as scored.
        for a, b, score in fresh:
            assert score == resolver.similarity.cosine(uris[a], uris[b])
            assert graph.score[graph.rows[pack_pair(a, b)]] == score
        scored += len(fresh)
        fresh.clear()
    assert scored > 5


@pytest.mark.parametrize("pruner", ["WNP", "CNP"])
def test_ejs_queries_under_a_view_equal_the_batch_graph(
    restaurants, pruner, monkeypatch
):
    resolver = StreamResolver(
        clean_clean=True, processed_view=True, reconcile_every=6
    )
    seen = []
    match_phase = resolver_module.run_match_phase

    def recording(uri_q, survivors, weights, *rest):
        seen.append((survivors, weights))
        return match_phase(uri_q, survivors, weights, *rest)

    monkeypatch.setattr(resolver_module, "run_match_phase", recording)
    uris = resolver.store.interner.uri_table()
    queries = 0
    for event in _resolved_queries(resolver, restaurants, scheme="EJS", pruner=pruner):
        uri_q = event.description.uri
        survivors, weights = seen[-1]
        # The view a query leaves behind is the view it read.
        blocks = resolver.view.materialize()
        graph = BlockingGraph(blocks, EJS())
        expected = {}
        for (left, right), weight in graph_weights(graph).items():
            if uri_q in (left, right):
                expected[right if left == uri_q else left] = weight
        assert {uris[i]: w for i, w in weights.items()} == expected
        ranked = sorted(expected.items(), key=lambda item: (-item[1], item[0]))
        if pruner == "WNP":
            mean = sum(weights.values()) / len(weights) if weights else 0.0
            kept = [item for item in ranked if item[1] >= mean]
        else:
            k = math.ceil(blocks.total_assignments() / max(blocks.entity_count(), 1))
            kept = ranked[: max(1, k - 1)]
        assert [(uris[i], w) for i, w in survivors] == kept
        queries += 1
    assert queries > 10
