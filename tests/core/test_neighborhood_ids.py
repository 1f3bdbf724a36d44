"""The context's id neighbourhoods equal its collections' URI graph.

:class:`ResolutionContext` derives every id's out-, in- and out-then-in
neighbours in one id pass per home collection; the URI-keyed graph of
:class:`EntityCollection` is the reference, element for element, and a
walk over each description's ``object_references`` is the graph's.  Covered:
a URI described in both KBs (its first collection is its home),
self-references, dangling references, values that look like URIs without
being described, and a stream context read between inserts and deletes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import ResolutionContext
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.interner import EntityInterner
from repro.stream.resolver import _StreamContext
from repro.stream.store import StreamingEntityStore

POOL = [f"http://e/{i}" for i in range(6)]
value = st.one_of(
    st.sampled_from(POOL),  # a reference, or a self-reference
    st.sampled_from(["http://e/9", "https://x/y", "urn:z"]),  # dangling
    st.sampled_from(["plain", "see http://e/1", "http://e/1 #", "urn:e/2"]),  # look-alikes
)
attributes = st.dictionaries(
    st.sampled_from(["p", "q", "r"]), st.lists(value, min_size=1, max_size=4), max_size=3
)
description = st.builds(EntityDescription, st.sampled_from(POOL), attributes)


def walked_graph(collection: EntityCollection) -> tuple[dict, dict]:
    """The relationship graph as a walk over each description's
    ``object_references``: the reference for the flat pass."""
    out: dict[str, list[str]] = {}
    inverse: dict[str, list[str]] = {}
    for description in collection:
        for ref in description.object_references():
            if ref in collection and ref != description.uri:
                out.setdefault(description.uri, []).append(ref)
                inverse.setdefault(ref, []).append(description.uri)
    return out, inverse


def assert_links_match(context, entity_id: int, home: EntityCollection, uri: str) -> None:
    ids_of = context.interner.ids_of
    out, inverse = (side.get(uri, []) for side in home.graph())
    assert context.neighbor_ids(entity_id) == tuple(ids_of(out))
    assert context.inverse_neighbor_ids(entity_id) == tuple(ids_of(inverse))
    # out-neighbours, then the in-neighbours not already seen
    assert context.neighborhood_ids(entity_id) == tuple(ids_of(dict.fromkeys([*out, *inverse])))


@settings(max_examples=200, deadline=None)
@given(st.lists(description, max_size=8), st.lists(description, max_size=8), st.data())
def test_batch_context_reads_its_collections_graph(first, second, data):
    kb1, kb2 = EntityCollection(first, name="kb1"), EntityCollection(second, name="kb2")
    assert kb1.graph() == walked_graph(kb1) and kb2.graph() == walked_graph(kb2)
    context = ResolutionContext([kb1, kb2])
    # Any first read derives its home collection's links; read in any order.
    for entity_id in data.draw(st.permutations(range(len(context.uris)))):
        uri = context.uris[entity_id]
        assert_links_match(context, entity_id, kb1 if uri in kb1 else kb2, uri)
    assert context.neighborhood_ids(-1) == ()


event = st.one_of(
    st.tuples(st.just("insert"), description, st.integers(0, 1)),
    st.tuples(st.just("delete"), st.sampled_from(POOL)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(event, max_size=25))
def test_stream_context_follows_inserts_and_deletes(events):
    store = StreamingEntityStore(sources=("kb1", "kb2"))
    context = _StreamContext(store)
    home: dict[str, int] = {}  # a URI's home: the source it entered first
    for kind, *args in events:
        if kind == "insert":
            incoming, source = args
            store.insert(incoming.copy(), source)
            home.setdefault(incoming.uri, source)
        else:
            store.delete(args[0])
            home.pop(args[0], None)
        for uri, source in home.items():
            entity_id = store.interner.id_of(uri)
            assert_links_match(context, entity_id, store.collections[source], uri)


def test_a_stream_read_derives_the_id_read_not_its_collection(monkeypatch):
    # Every event drops the stream context's links, so a read after an
    # event must not pay for a pass over the whole collection.
    store = StreamingEntityStore(sources=("kb1", "kb2"))
    context = _StreamContext(store)
    for i, uri in enumerate(POOL):  # a ring: each URI references the previous
        store.insert(EntityDescription(uri, {"p": [POOL[i - 1]]}), 0)
    passed: list[list[str]] = []
    ids_of = EntityInterner.ids_of

    def counting(self, uris):
        passed.append(list(uris))
        return ids_of(self, passed[-1])

    monkeypatch.setattr(EntityInterner, "ids_of", counting)
    expected = tuple(ids_of(store.interner, [POOL[-1], POOL[1]]))
    assert context.neighborhood_ids(store.interner.id_of(POOL[0])) == expected
    assert passed == [[POOL[-1]], [POOL[1]]]  # its out- and its in-links
