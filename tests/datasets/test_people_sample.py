"""Tests for the Turtle-shipped people corpus."""

from __future__ import annotations

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

    def test_turtle_prefixes_expanded(self, people):
        kb_a, _, _ = people
        person = kb_a["http://kba.example.org/people/elena_marchetti"]
        assert person.first("http://kba.example.org/vocab/fullName") == "Elena Marchetti"

    def test_relationships_resolved(self, people):
        kb_a, kb_b, _ = people
        assert kb_a.neighbors("http://kba.example.org/people/elena_marchetti") == [
            "http://kba.example.org/org/institute_of_data_science"
        ]
        assert kb_b.neighbors("http://kbb.example.org/researcher/r001") == [
            "http://kbb.example.org/institution/i10"
        ]

    def test_institutions_have_members(self, people):
        kb_a, _, _ = people
        org = "http://kba.example.org/org/nordic_web_lab"
        assert len(kb_a.inverse_neighbors(org)) == 3

    def test_noise_researchers_present(self, people):
        kb_a, kb_b, gold = people
        gold_uris = {uri for pair in gold.matches for uri in pair}
        assert "http://kba.example.org/people/tomas_keller" not in gold_uris
        assert "http://kbb.example.org/researcher/r008" not in gold_uris


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
