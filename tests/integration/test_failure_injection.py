"""Failure-injection and edge-case tests across the whole platform.

Every component must degrade predictably on degenerate input: empty KBs,
description sets with no shared evidence, zero budgets, gold standards
referencing unknown URIs, malformed RDF, unicode-heavy values.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec, registry
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.datasets.gold import GoldStandard
from repro.evaluation.metrics import evaluate_blocks, evaluate_matches
from repro.matching.matcher import OracleMatcher
from repro.matching.similarity import SimilarityIndex
from repro.metablocking import ARCS, CNP, BlockingGraph
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.rdf.ntriples import NTriplesParseError
from repro.rdf.loader import load_collection


def kb(name: str, entries: dict[str, dict[str, list[str]]]) -> EntityCollection:
    return EntityCollection(
        [EntityDescription(uri, attrs, source=name) for uri, attrs in entries.items()],
        name=name,
    )


class TestEmptyInputs:
    def test_empty_collection_through_pipeline(self):
        empty1 = EntityCollection(name="e1")
        empty2 = EntityCollection(name="e2")
        result = Pipeline.run(PipelineSpec(), empty1, empty2)
        assert result.matched_pairs() == set()
        assert result.progressive.comparisons_executed == 0

    def test_one_empty_side(self):
        full = kb("kb1", {"http://a/1": {"name": ["alpha"]}})
        result = Pipeline.run(PipelineSpec(), full, EntityCollection(name="e2"))
        assert result.matched_pairs() == set()

    def test_empty_blocks_through_metablocking(self):
        from repro.blocking.block import BlockCollection

        graph = BlockingGraph(BlockCollection(), ARCS())
        for pruner in ("WEP", "CEP", "WNP", "CNP"):
            assert registry.create("pruner", pruner).prune(graph) == []

    def test_empty_gold_evaluation(self):
        quality = evaluate_matches({("a", "b")}, GoldStandard())
        assert quality.recall == 0.0


class TestNoSharedEvidence:
    def test_disjoint_vocabularies_and_tokens(self):
        kb1 = kb("kb1", {"http://a/1": {"p": ["aaa bbb"]}})
        kb2 = kb("kb2", {"http://b/1": {"q": ["ccc ddd"]}})
        result = Pipeline.run(PipelineSpec(), kb1, kb2)
        assert result.matched_pairs() == set()

    def test_descriptions_with_no_literals(self):
        kb1 = kb("kb1", {"http://a/1": {"r": ["http://a/2"]}, "http://a/2": {}})
        blocks = TokenBlocking().build(kb1)
        # Only URI tokens remain; no crash, possibly no blocks.
        assert blocks.total_comparisons() >= 0


class TestDegenerateBudgets:
    def test_zero_budget(self):
        kb1 = kb("kb1", {"http://a/1": {"name": ["alpha"]}})
        kb2 = kb("kb2", {"http://b/1": {"label": ["alpha"]}})
        spec = PipelineSpec().with_matching(budget=0)
        result = Pipeline.run(spec, kb1, kb2)
        assert result.progressive.comparisons_executed == 0
        assert result.matched_pairs() == set()

    def test_budget_of_one(self, threshold_spec):
        kb1 = kb("kb1", {"http://a/1": {"name": ["alpha"]}, "http://a/2": {"name": ["beta"]}})
        kb2 = kb("kb2", {"http://b/1": {"label": ["alpha"]}, "http://b/2": {"label": ["beta"]}})
        result = Pipeline.run(threshold_spec(0.1, budget=1), kb1, kb2)
        assert result.progressive.comparisons_executed <= 1


class TestForeignGold:
    def test_gold_with_unknown_uris(self, threshold_spec):
        kb1 = kb("kb1", {"http://a/1": {"name": ["alpha"]}})
        kb2 = kb("kb2", {"http://b/1": {"label": ["alpha"]}})
        gold = GoldStandard.from_pairs(
            [("http://a/1", "http://b/1"), ("http://ghost/1", "http://ghost/2")]
        )
        result = Pipeline.run(threshold_spec(0.1), kb1, kb2, gold=gold)
        quality = evaluate_matches(result.matched_pairs(), gold)
        assert quality.recall <= 0.5  # the ghost pair is unreachable

    def test_blocking_quality_with_foreign_gold(self):
        kb1 = kb("kb1", {"http://a/1": {"name": ["alpha"]}})
        kb2 = kb("kb2", {"http://b/1": {"label": ["alpha"]}})
        gold = GoldStandard.from_pairs([("http://x/1", "http://y/1")])
        blocks = TokenBlocking().build(kb1, kb2)
        quality = evaluate_blocks(blocks, gold, 1, 1)
        assert quality.pairs_completeness == 0.0


class TestMalformedRdf:
    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text(
            '<http://a/1> <http://p> "ok" .\n'
            "this is not a triple\n"
        )
        with pytest.raises(NTriplesParseError) as excinfo:
            load_collection(str(path))
        assert excinfo.value.line_number == 2

    def test_empty_file_is_empty_collection(self, tmp_path):
        path = tmp_path / "empty.nt"
        path.write_text("")
        assert len(load_collection(str(path))) == 0

    def test_comments_only(self, tmp_path):
        path = tmp_path / "comments.nt"
        path.write_text("# nothing\n# here\n")
        assert len(load_collection(str(path))) == 0


class TestUnicode:
    def test_unicode_values_through_pipeline(self, threshold_spec):
        kb1 = kb("kb1", {"http://a/1": {"name": ["Μίνωας παλάτι Κνωσός"]}})
        kb2 = kb("kb2", {"http://b/1": {"label": ["Μίνωας παλάτι Κνωσός"]}})
        gold = GoldStandard.from_pairs([("http://a/1", "http://b/1")])
        result = Pipeline.run(threshold_spec(0.3), kb1, kb2, gold=gold)
        assert evaluate_matches(result.matched_pairs(), gold).recall == 1.0

    def test_accented_tokens_normalize_together(self):
        kb1 = kb("kb1", {"http://a/1": {"name": ["Café Über"]}})
        kb2 = kb("kb2", {"http://b/1": {"label": ["cafe uber"]}})
        blocks = TokenBlocking().build(kb1, kb2)
        assert ("http://a/1", "http://b/1") in blocks.distinct_comparisons()

    def test_unicode_rdf_round_trip(self, tmp_path):
        from repro.rdf.ntriples import Triple, serialize_ntriples

        path = tmp_path / "u.nt"
        path.write_text(
            serialize_ntriples(
                [Triple("http://a/1", "http://p/name", "日本語 текст ελληνικά", True)]
            ),
            encoding="utf-8",
        )
        collection = load_collection(str(path))
        assert collection["http://a/1"].first("http://p/name").startswith("日本語")


class TestPostProcessingDegenerates:
    def test_purging_all_blocks(self):
        kb1 = kb(
            "kb1",
            {f"http://a/{i}": {"p": ["shared common words"]} for i in range(30)},
        )
        blocks = TokenBlocking().build(kb1)
        purged = BlockPurging(max_cardinality=1).process(blocks)
        # Every block exceeds cardinality 1: all purged; pipeline survives.
        graph = BlockingGraph(purged, ARCS())
        assert CNP().prune(graph) == []

    def test_filtering_on_empty(self):
        from repro.blocking.block import BlockCollection

        assert len(BlockFiltering().process(BlockCollection())) == 0


class TestMatcherEdgeCases:
    def test_similarity_index_over_empty_collection(self):
        index = SimilarityIndex([EntityCollection(name="e")])
        assert len(index) == 0

    def test_oracle_matcher_with_empty_gold(self):
        oracle = OracleMatcher(set())
        assert not oracle.decide("a", "b").is_match
