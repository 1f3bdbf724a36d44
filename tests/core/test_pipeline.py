"""Tests for the spec-built pipeline: its stages and end-to-end resolution."""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec, SpecError, registry
from repro.evaluation.metrics import evaluate_blocks, evaluate_matches
from repro.matching.matcher import OracleMatcher


class TestConfiguration:
    def test_defaults(self):
        pipeline = Pipeline(PipelineSpec())
        assert pipeline.scheme.name == "ARCS"
        assert pipeline.pruner.name == "CNP"
        assert pipeline.spec.matching.update_phase is True

    def test_scheme_names_resolved(self):
        spec = PipelineSpec.from_dict(
            {
                "weighting": "js",
                "pruning": "wep",
                "matching": {"benefit": "entity-coverage"},
            }
        )
        pipeline = Pipeline(spec)
        assert pipeline.scheme.name == "JS"
        assert pipeline.pruner.name == "WEP"
        assert pipeline.benefit.name == "entity-coverage"

    @pytest.mark.parametrize(
        "node",
        [
            {"weighting": "nope"},
            {"pruning": "nope"},
            {"matching": {"benefit": "nope"}},
        ],
    )
    def test_unknown_names_rejected(self, node):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict(node)

    def test_update_phase_toggle(self, movies, threshold_spec):
        kb_a, kb_b, gold = movies
        spec = threshold_spec(0.35, update_phase=False)
        report = Pipeline.run(spec, kb_a, kb_b, gold=gold)
        assert report.progressive.discovered_pairs == 0


class TestStages:
    def test_block_stage(self, movies):
        kb_a, kb_b, _ = movies
        raw, processed = Pipeline(PipelineSpec()).block(kb_a, kb_b)
        assert len(raw) > 0
        assert processed.total_comparisons() <= raw.total_comparisons()

    def test_block_stage_without_postprocessing(self, movies):
        kb_a, kb_b, _ = movies
        spec = PipelineSpec.from_dict(
            {"blocking": {"purging": None, "filtering": None}}
        )
        raw, processed = Pipeline(spec).block(kb_a, kb_b)
        assert raw is processed

    def test_meta_block_stage(self, movies):
        kb_a, kb_b, _ = movies
        pipeline = Pipeline(PipelineSpec())
        _, processed = pipeline.block(kb_a, kb_b)
        edges = pipeline.meta_block(processed)
        assert edges
        assert len(edges) <= len(processed.distinct_comparisons())

    @pytest.mark.parametrize("blocker", registry.names("blocker"))
    def test_every_registered_blocker_blocks(self, movies, blocker):
        kb_a, kb_b, gold = movies
        spec = PipelineSpec().with_components(blocker=blocker)
        raw, processed = Pipeline(spec).block(kb_a, kb_b)
        assert processed.total_comparisons() <= raw.total_comparisons()
        quality = evaluate_blocks(raw, gold, len(kb_a), len(kb_b))
        assert 0.0 <= quality.pairs_completeness <= 1.0
        # Movie URIs share no infix, so only the content-based blockers
        # are expected to cover gold pairs on this corpus.
        if blocker != "prefix-infix-suffix":
            assert quality.pairs_completeness > 0.0

    def test_every_weighting_and_pruner_combination_meta_blocks(self, movies):
        kb_a, kb_b, _ = movies
        _, processed = Pipeline(PipelineSpec()).block(kb_a, kb_b)
        distinct = len(processed.distinct_comparisons())
        combinations = [
            (weighting, pruning)
            for weighting in registry.names("weighting")
            for pruning in registry.names("pruner")
        ]
        assert len(combinations) == 36
        kept = {}
        for weighting, pruning in combinations:
            spec = PipelineSpec().with_components(
                weighting=weighting, pruning=pruning
            )
            kept[weighting, pruning] = len(Pipeline(spec).meta_block(processed))
        assert all(count <= distinct for count in kept.values()), kept
        assert kept["ARCS", "CNP"] > 0

    def test_default_matcher_built(self, movies):
        from repro.core.evidence_matcher import NeighborAwareMatcher

        kb_a, kb_b, _ = movies
        matcher = Pipeline(PipelineSpec()).build_matcher([kb_a, kb_b])
        # Update phase on -> evidence-aware wrapper around the cosine matcher.
        assert isinstance(matcher, NeighborAwareMatcher)
        assert matcher.base.measure_name == "cosine"

    def test_default_matcher_without_update_phase(self, movies):
        kb_a, kb_b, _ = movies
        spec = PipelineSpec().with_matching(update_phase=False)
        matcher = Pipeline(spec).build_matcher([kb_a, kb_b])
        assert matcher.measure_name == "cosine"

    def test_oracle_matcher_respected(self, movies):
        kb_a, kb_b, gold = movies
        spec = PipelineSpec().with_matching(matcher="oracle")
        matcher = Pipeline(spec).build_matcher([kb_a, kb_b], gold)
        assert isinstance(matcher, OracleMatcher)
        assert matcher.gold == gold.matches


class TestResolve:
    def test_end_to_end_movies(self, movies):
        kb_a, kb_b, gold = movies
        spec = PipelineSpec().with_matching(budget=500)
        report = Pipeline.run(spec, kb_a, kb_b, gold=gold)
        quality = evaluate_matches(report.matched_pairs(), gold)
        assert quality.f1 >= 0.85
        assert report.progressive.comparisons_executed <= 500

    def test_recall_monotone_in_budget(self, movies, threshold_spec):
        kb_a, kb_b, gold = movies
        recalls = [
            Pipeline.run(
                threshold_spec(0.35, budget=budget), kb_a, kb_b, gold=gold
            ).match_quality.recall
            for budget in (5, 50, 500)
        ]
        assert recalls == sorted(recalls)
        assert recalls[0] < recalls[-1]

    def test_summary_keys(self, movies):
        kb_a, kb_b, gold = movies
        spec = PipelineSpec().with_matching(budget=200)
        summary = Pipeline.run(spec, kb_a, kb_b, gold=gold).summary()
        assert set(summary) == {
            "backend",
            "blocks",
            "after post-processing",
            "scheduled comparisons",
            "executed comparisons",
            "matches",
            "discovered matches",
        }

    def test_custom_stages(self, restaurants):
        kb_a, kb_b, gold = restaurants
        spec = PipelineSpec.from_dict(
            {
                "blocking": {
                    "purging": {
                        "name": "purging", "params": {"max_cardinality": 50}
                    },
                    "filtering": {"name": "filtering", "params": {"ratio": 0.9}},
                },
                "weighting": "ECBS",
                "pruning": "WNP",
                "matching": {
                    "matcher": {"name": "threshold", "params": {"threshold": 0.3}}
                },
            }
        )
        report = Pipeline.run(spec, kb_a, kb_b, gold=gold)
        quality = evaluate_matches(report.matched_pairs(), gold)
        assert quality.recall >= 0.7

    def test_dirty_er(self, dirty_dataset, threshold_spec):
        collection, gold = dirty_dataset
        spec = threshold_spec(0.55, budget=3000)
        report = Pipeline.run(spec, collection, gold=gold)
        quality = evaluate_matches(report.matched_pairs(), gold)
        assert quality.recall > 0.4
