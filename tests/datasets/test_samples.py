"""Tests for the embedded sample corpora."""

from __future__ import annotations

import pytest

from repro.datasets.samples import load_movies, load_restaurants, sample_path
from repro.rdf.loader import collection_from_triples, load_collection
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples

SHIPPED_KBS = [
    f"{corpus}_{side}.nt" for corpus in ("restaurants", "movies", "people") for side in "ab"
]


class TestSamplePath:
    def test_existing_file(self):
        assert sample_path("restaurants_a.nt").endswith("restaurants_a.nt")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            sample_path("nope.nt")


class TestRestaurants:
    def test_shapes(self, restaurants):
        kb_a, kb_b, gold = restaurants
        assert len(kb_a) == 16
        assert len(kb_b) == 16
        assert len(gold) == 14

    def test_gold_uris_exist(self, restaurants):
        kb_a, kb_b, gold = restaurants
        for left, right in gold.matches:
            uris = {left, right}
            assert any(u in kb_a for u in uris)
            assert any(u in kb_b for u in uris)

    def test_sources_distinct(self, restaurants):
        kb_a, kb_b, _ = restaurants
        assert {d.source for d in kb_a} == {"restaurants-a"}
        assert {d.source for d in kb_b} == {"restaurants-b"}

    def test_noise_entities_present(self, restaurants):
        kb_a, kb_b, gold = restaurants
        matched_b = {right for _, right in gold.matches} | {
            left for left, _ in gold.matches
        }
        unmatched_b = [d.uri for d in kb_b if d.uri not in matched_b]
        assert unmatched_b  # v113, v114 have no counterpart


class TestMovies:
    def test_shapes(self, movies):
        kb_a, kb_b, gold = movies
        assert len(kb_a) == 18  # 12 films + 6 directors
        assert len(kb_b) == 18
        assert len(gold) == 16

    def test_relationships_present(self, movies):
        kb_a, kb_b, _ = movies
        film = "http://kba.example.org/film/Starfall_Odyssey"
        assert kb_a.graph()[0].get(film) == ["http://kba.example.org/person/Miranda_Velasquez"]
        assert kb_b.graph()[0].get("http://kbb.example.org/m/0f1a2") == [
            "http://kbb.example.org/m/0d9x1"
        ]

    def test_directors_have_inverse_neighbors(self, movies):
        kb_a, _, _ = movies
        director = "http://kba.example.org/person/Miranda_Velasquez"
        assert len(kb_a.graph()[1][director]) == 2

    def test_abbreviated_titles_are_somehow_similar(self, movies):
        # 'Crimson Meridian' appears as just 'Meridian' in KB-B: the
        # periphery regime the update phase exists for.
        kb_a, kb_b, _ = movies
        assert kb_b["http://kbb.example.org/m/0f5c6"].first(
            "http://kbb.example.org/schema/label"
        ) == "Meridian"

    def test_loading_is_idempotent(self):
        a1, b1, g1 = load_movies()
        a2, b2, g2 = load_movies()
        assert a1.uris() == a2.uris()
        assert g1.matches == g2.matches


@pytest.mark.parametrize("filename", SHIPPED_KBS)
class TestShippedKnowledgeBases:
    def test_scan_equals_parse_then_group(self, filename):
        path = sample_path(filename)
        with open(path, encoding="utf-8") as handle:
            reference = collection_from_triples(parse_ntriples(handle.read()), "kb")
        scanned = load_collection(path, name="kb")
        assert [(d.uri, d.source, d.attributes()) for d in scanned] == [
            (d.uri, d.source, d.attributes()) for d in reference
        ]

    def test_serialization_round_trips(self, filename):
        with open(sample_path(filename), encoding="utf-8") as handle:
            triples = list(parse_ntriples(handle.read()))
        assert triples and list(parse_ntriples(serialize_ntriples(triples))) == triples
