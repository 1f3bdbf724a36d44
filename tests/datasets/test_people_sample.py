"""Tests for the people corpus (researchers + institutions)."""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Pipeline
from repro.datasets.samples import load_people
from repro.evaluation.metrics import evaluate_matches


@pytest.fixture(scope="module")
def people():
    return load_people()


class TestShapes:
    def test_sizes(self, people):
        kb_a, kb_b, gold = people
        assert len(kb_a) == 11  # 8 researchers + 3 institutions
        assert len(kb_b) == 11
        assert len(gold) == 10

    def test_sources(self, people):
        kb_a, kb_b, _ = people
        assert {d.source for d in kb_a} == {"people-a"}
        assert {d.source for d in kb_b} == {"people-b"}

    def test_attributes_keyed_by_full_predicate_iris(self, people):
        kb_a, _, _ = people
        person = kb_a["http://kba.example.org/people/elena_marchetti"]
        assert person.first("http://kba.example.org/vocab/fullName") == "Elena Marchetti"

    def test_relationships_resolved(self, people):
        kb_a, kb_b, _ = people
        assert kb_a.graph()[0].get("http://kba.example.org/people/elena_marchetti") == [
            "http://kba.example.org/org/institute_of_data_science"
        ]
        assert kb_b.graph()[0].get("http://kbb.example.org/researcher/r001") == [
            "http://kbb.example.org/institution/i10"
        ]

    def test_institutions_have_members(self, people):
        kb_a, _, _ = people
        org = "http://kba.example.org/org/nordic_web_lab"
        assert len(kb_a.graph()[1][org]) == 3

    def test_noise_researchers_present(self, people):
        kb_a, kb_b, gold = people
        gold_uris = {uri for pair in gold.matches for uri in pair}
        assert "http://kba.example.org/people/tomas_keller" not in gold_uris
        assert "http://kbb.example.org/researcher/r008" not in gold_uris


def digest(kb) -> str:
    """sha256 over every description's ``(uri, source, attributes)`` in load
    order, then the relationship graph."""
    shape = [(d.uri, d.source, list(d.attributes().items())) for d in kb]
    return hashlib.sha256(repr((shape, kb.graph())).encode("utf-8")).hexdigest()


def test_corpus_loads_as_it_did_from_turtle(people):
    # Recorded from the Turtle files the corpus shipped as before it was
    # converted to N-Triples: the same descriptions, attribute order and graph.
    kb_a, kb_b, _ = people
    assert digest(kb_a) == "effcc3dbd2036492457f842d3d4b9ab8f0779a92d69cd422558d91649f2dd6e2"
    assert digest(kb_b) == "6e0098c6948926c68fdc68122dd2ec0a30139281f14f53fe90d134e33bcf29b4"


class TestResolution:
    def test_pipeline_resolves_people(self, people, threshold_spec):
        kb_a, kb_b, gold = people
        result = Pipeline.run(threshold_spec(0.3), kb_a, kb_b, gold=gold)
        quality = evaluate_matches(result.matched_pairs(), gold)
        assert quality.recall >= 0.9
        assert quality.f1 >= 0.8

    def test_abbreviated_name_matched(self, people, threshold_spec):
        kb_a, kb_b, gold = people
        result = Pipeline.run(threshold_spec(0.3), kb_a, kb_b, gold=gold)
        # "E. Marchetti" has weak value evidence; neighbour evidence via
        # the shared institution should still land the match.
        pair = (
            "http://kba.example.org/people/elena_marchetti",
            "http://kbb.example.org/researcher/r001",
        )
        assert pair in result.matched_pairs()
