"""Tests for EntityCollection: container, relationship graph, statistics."""

from __future__ import annotations

import pytest

from repro.model.collection import EntityCollection, adjacency
from repro.model.description import EntityDescription


def build_collection() -> EntityCollection:
    film = EntityDescription(
        "http://ex.org/film/F",
        {"title": ["F"], "director": ["http://ex.org/person/D"]},
        source="ex",
    )
    director = EntityDescription(
        "http://ex.org/person/D",
        {"name": ["D"], "knows": ["http://ex.org/person/E"]},
        source="ex",
    )
    other = EntityDescription("http://ex.org/person/E", {"name": ["E"]}, source="ex")
    return EntityCollection([film, director, other], name="test")


class TestContainer:
    def test_len_iter_contains(self):
        collection = build_collection()
        assert len(collection) == 3
        assert "http://ex.org/film/F" in collection
        assert [d.uri for d in collection] == [
            "http://ex.org/film/F",
            "http://ex.org/person/D",
            "http://ex.org/person/E",
        ]

    def test_getitem_and_get(self):
        collection = build_collection()
        assert collection["http://ex.org/film/F"].first("title") == "F"
        assert collection.get("missing") is None

    def test_add_merges_same_uri(self):
        collection = build_collection()
        collection.add(EntityDescription("http://ex.org/film/F", {"year": ["1999"]}))
        assert len(collection) == 3
        assert collection["http://ex.org/film/F"].first("year") == "1999"

    def test_ids_are_insertion_rank(self):
        interner = build_collection().interner
        assert interner.id_of("http://ex.org/film/F") == 0
        assert interner.id_of("http://ex.org/person/E") == 2
        with pytest.raises(KeyError):
            interner.id_of("missing")

    def test_uris_order(self):
        assert build_collection().uris()[0] == "http://ex.org/film/F"

    def test_remove_keeps_the_id(self):
        collection = build_collection()
        assert collection.remove("http://ex.org/film/F") is True
        assert collection.remove("http://ex.org/film/F") is False
        assert collection.uris() == ["http://ex.org/person/D", "http://ex.org/person/E"]
        collection.add(EntityDescription("http://ex.org/film/F", {"year": ["1999"]}))
        assert collection.interner.id_of("http://ex.org/film/F") == 0
        assert "title" not in collection["http://ex.org/film/F"].properties()  # starts empty

def out(collection: EntityCollection, uri: str) -> list[str]:
    return collection.graph()[0].get(uri, [])


def inverse(collection: EntityCollection, uri: str) -> list[str]:
    return collection.graph()[1].get(uri, [])


class TestRelationshipGraph:
    def test_out_neighbors(self):
        collection = build_collection()
        assert out(collection, "http://ex.org/film/F") == ["http://ex.org/person/D"]

    def test_inverse_neighbors(self):
        collection = build_collection()
        assert inverse(collection, "http://ex.org/person/D") == ["http://ex.org/film/F"]

    def test_references_in_description_then_value_order(self):
        collection = build_collection()
        collection.add(
            EntityDescription("http://ex.org/person/E", {"knows": ["http://ex.org/film/F"]})
        )
        assert collection.references() == (
            ["http://ex.org/film/F", "http://ex.org/person/D", "http://ex.org/person/E"],
            ["http://ex.org/person/D", "http://ex.org/person/E", "http://ex.org/film/F"],
        )

    def test_adjacency_over_ids(self):
        # The same fold serves URIs and ids; edge order is kept per node.
        assert adjacency([0, 0, 2], [1, 2, 0]) == ({0: [1, 2], 2: [0]}, {1: [0], 2: [0], 0: [2]})

    def test_dangling_references_ignored(self):
        collection = EntityCollection(
            [EntityDescription("u", {"p": ["http://nowhere.org/missing"]})]
        )
        assert collection.graph() == ({}, {})

    def test_self_references_ignored(self):
        collection = EntityCollection(
            [EntityDescription("http://e.org/a", {"p": ["http://e.org/a"]})]
        )
        assert collection.graph() == ({}, {})

    def test_graph_invalidated_on_add_and_remove(self):
        collection = build_collection()
        assert out(collection, "http://ex.org/person/E") == []
        collection.add(
            EntityDescription(
                "http://ex.org/person/E", {"knows": ["http://ex.org/film/F"]}
            )
        )
        assert out(collection, "http://ex.org/person/E") == ["http://ex.org/film/F"]
        collection.remove("http://ex.org/film/F")
        assert out(collection, "http://ex.org/person/E") == []
        assert inverse(collection, "http://ex.org/person/D") == []


class TestStatistics:
    def test_counts(self):
        stats = build_collection().statistics()
        assert stats.description_count == 3
        assert stats.triple_count == 5
        assert stats.property_count == 4
        assert stats.relationship_count == 2
        assert stats.source_count == 1

    def test_averages(self):
        stats = build_collection().statistics()
        assert stats.avg_values_per_description == pytest.approx(5 / 3)
        assert stats.avg_out_degree == pytest.approx(2 / 3)

    def test_empty_collection(self):
        stats = EntityCollection(name="empty").statistics()
        assert stats.description_count == 0
        assert stats.avg_out_degree == 0.0
