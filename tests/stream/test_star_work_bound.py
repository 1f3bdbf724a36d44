"""Weighing a query is one pass over its star: a work bound, not a stopwatch.

:meth:`~repro.stream.pairs.DeltaPairTable.weigh` reads the query's keys
once and each key's cardinality at most once, however many candidates
the star holds — over the raw index and over the processed view alike.
Reading the statistics a pair at a time costs two ``keys_of`` calls per
candidate instead, and weighing each partition of a sharded query apart
one pass per partition.
"""

from __future__ import annotations

import typing
from collections import Counter

import pytest

from repro.api import registry
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.model.description import EntityDescription
from repro.serving import LocalTier, owner_of
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.processed_view import IncrementalProcessedView
from repro.stream.store import StreamingEntityStore


def _star(candidates: int, over_view: bool):
    """A query sharing two keys with *candidates* entities of the other KB."""
    store = StreamingEntityStore(sources=("kb1", "kb2"))
    index = IncrementalBlockIndex(store)
    source = index
    if over_view:
        source = IncrementalProcessedView(
            index, BlockPurging(max_cardinality=10**9), BlockFiltering(ratio=1.0)
        )
    table = DeltaPairTable(source)
    for i in range(candidates):
        store.insert(EntityDescription(f"http://e/c{i}", {"p": ["shared common"]}), 1)
    query = store.insert(EntityDescription("http://e/q", {"p": ["shared common rare"]}), 0)
    if over_view:
        source.reconcile()
    return source, table, query


@pytest.mark.parametrize("over_view", [False, True], ids=["index", "view"])
@pytest.mark.parametrize("candidates", [1, 8, 64])
def test_weigh_reads_each_query_key_once(over_view, candidates, monkeypatch):
    source, table, query = _star(candidates, over_view)
    ids = source.neighbours_of(query)
    assert len(ids) == candidates
    keys = len(source.keys_of(query))
    calls: Counter[str] = Counter()
    cls = type(source)
    for name in ("keys_of", "cardinality_of"):
        original = getattr(cls, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counting)
    weights = table.weigh(registry.create("weighting", "ARCS"), query, ids)
    assert sorted(weights) == sorted(ids)
    assert calls["keys_of"] == 1
    assert 0 < calls["cardinality_of"] <= keys


@pytest.mark.parametrize("n_partitions", [1, 4, 8])
def test_local_tier_weighs_a_query_in_one_star_pass(n_partitions, monkeypatch):
    """The live partitions are weighed together, so a resolve reads the
    query's keys once whatever the partition count."""
    tier = LocalTier(n_partitions)
    for i in range(32):
        tier.ingest(EntityDescription(f"http://e/c{i}", {"p": ["shared common"]}), 1)
    query = EntityDescription("http://e/q", {"p": ["shared common rare"]})
    tier.ingest(query, 0)
    candidates = tier.index.neighbours_of(tier.store.interner.id_of(query.uri))
    # every partition holds candidates
    assert {owner_of(c, n_partitions) for c in candidates} == set(range(n_partitions))
    calls: Counter[str] = Counter()
    original = IncrementalBlockIndex.keys_of

    def counting(self, entity_id):
        calls["keys_of"] += 1
        return original(self, entity_id)

    monkeypatch.setattr(IncrementalBlockIndex, "keys_of", counting)
    result = tier.resolve(query, ingest=False)
    assert result.candidates == 32
    assert calls["keys_of"] == 1


def test_pair_table_annotations_resolve():
    assert typing.get_type_hints(DeltaPairTable.__init__)["source"]
