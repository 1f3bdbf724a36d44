"""Property-based tests of EntityCollection invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.model.collection import EntityCollection, adjacency
from repro.model.description import EntityDescription

values = st.text(alphabet="abcde ", min_size=1, max_size=12)


@st.composite
def collections(draw):
    count = draw(st.integers(1, 12))
    descriptions = []
    for i in range(count):
        attrs = {f"p{j}": [draw(values)] for j in range(draw(st.integers(1, 3)))}
        # Some descriptions reference earlier ones.
        if i > 0 and draw(st.booleans()):
            attrs["ref"] = [f"http://e/{draw(st.integers(0, i - 1))}"]
        descriptions.append(EntityDescription(f"http://e/{i}", attrs, source="kb"))
    return EntityCollection(descriptions, name="kb")


class TestGraphInvariants:
    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_neighbors_and_inverse_are_consistent(self, collection):
        out, inverse = collection.graph()
        for uri in collection.uris():
            for neighbor in out.get(uri, ()):
                assert uri in inverse[neighbor]
            for source in inverse.get(uri, ()):
                assert uri in out[source]

    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_edge_count_matches_statistics(self, collection):
        edges = sum(map(len, collection.graph()[0].values()))
        assert collection.statistics().relationship_count == edges

    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_graph_is_the_adjacency_of_the_references(self, collection):
        owners, targets = collection.references()
        assert collection.graph() == adjacency(owners, targets)
        assert set(owners) | set(targets) <= set(collection.uris())

    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_no_self_loops(self, collection):
        out, _ = collection.graph()
        for uri in collection.uris():
            assert uri not in out.get(uri, ())


class TestStatisticsInvariants:
    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_counts_consistent(self, collection):
        stats = collection.statistics()
        assert stats.description_count == len(collection)
        assert stats.triple_count == sum(len(d) for d in collection)
        assert stats.relationship_count <= stats.triple_count

    @settings(max_examples=50, deadline=None)
    @given(collections(), st.data())
    def test_counts_follow_removal(self, collection, data):
        gone = data.draw(st.sets(st.sampled_from(collection.uris())))
        before = collection.statistics()
        for uri in gone:
            collection.remove(uri)
        stats = collection.statistics()
        assert stats.description_count == before.description_count - len(gone)
        assert stats.relationship_count <= before.relationship_count
        assert not set(collection.references()[1]) & gone


class TestIndexInvariants:
    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_ids_match_iteration_order(self, collection):
        for rank, description in enumerate(collection):
            assert collection.interner.id_of(description.uri) == rank

    @settings(max_examples=50, deadline=None)
    @given(collections(), st.data())
    def test_removal_keeps_every_id(self, collection, data):
        ids = {uri: collection.interner.id_of(uri) for uri in collection.uris()}
        gone = data.draw(st.sets(st.sampled_from(sorted(ids))))
        for uri in gone:
            collection.remove(uri)
        assert collection.uris() == [uri for uri in ids if uri not in gone]
        assert {uri: collection.interner.id_of(uri) for uri in ids} == ids
