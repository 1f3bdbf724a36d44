"""Property-based tests of EntityCollection invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.model.collection import EntityCollection
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
        for uri in collection.uris():
            for neighbor in collection.neighbors(uri):
                assert uri in collection.inverse_neighbors(neighbor)
            for source in collection.inverse_neighbors(uri):
                assert uri in collection.neighbors(source)

    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_edge_count_matches_statistics(self, collection):
        edges = sum(len(collection.neighbors(uri)) for uri in collection.uris())
        assert collection.statistics().relationship_count == edges

    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_no_self_loops(self, collection):
        for uri in collection.uris():
            assert uri not in collection.neighbors(uri)


class TestStatisticsInvariants:
    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_counts_consistent(self, collection):
        stats = collection.statistics()
        assert stats.description_count == len(collection)
        assert stats.triple_count == sum(len(d) for d in collection)
        assert stats.relationship_count <= stats.triple_count

    @settings(max_examples=30, deadline=None)
    @given(collections(), collections())
    def test_union_size_bounds(self, a, b):
        merged = a.union(b)
        distinct = len(set(a.uris()) | set(b.uris()))
        assert len(merged) == distinct

    @settings(max_examples=30, deadline=None)
    @given(collections())
    def test_union_with_self_preserves_content(self, collection):
        merged = collection.union(collection)
        assert len(merged) == len(collection)
        for description in collection:
            assert merged[description.uri] == description


class TestIndexInvariants:
    @settings(max_examples=50, deadline=None)
    @given(collections())
    def test_index_of_matches_iteration_order(self, collection):
        for rank, description in enumerate(collection):
            assert collection.index_of(description.uri) == rank
