"""Integration tests: the full platform on real-shaped and synthetic corpora.

These tests assert the paper's qualitative claims, end to end:

* the pipeline resolves the sample corpora accurately within small budgets;
* MinoanER's scheduler reaches recall faster than random ordering;
* the update phase recovers matches blocking missed (periphery regime);
* quality-aware benefits steer resolution toward their targeted dimension;
* the MapReduce pipeline and the sequential pipeline agree end to end.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec, registry
from repro.baselines.ordered import random_order_baseline
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER
from repro.core.strategies import dynamic_strategy, static_strategy
from repro.evaluation.metrics import evaluate_blocks, evaluate_matches
from repro.matching.matcher import OracleMatcher, ThresholdMatcher
from repro.matching.similarity import SimilarityIndex


class TestSampleCorpora:
    def test_restaurants_full_resolution(self, restaurants, threshold_spec):
        kb_a, kb_b, gold = restaurants
        result = Pipeline.run(threshold_spec(0.35), kb_a, kb_b, gold=gold)
        quality = evaluate_matches(result.matched_pairs(), gold)
        assert quality.recall >= 0.9
        assert quality.precision >= 0.8

    def test_movies_full_resolution(self, movies, threshold_spec):
        kb_a, kb_b, gold = movies
        result = Pipeline.run(threshold_spec(0.35), kb_a, kb_b, gold=gold)
        quality = evaluate_matches(result.matched_pairs(), gold)
        assert quality.f1 >= 0.85

    def test_budget_cuts_work_not_quality_of_found(self, movies, threshold_spec):
        kb_a, kb_b, gold = movies
        tight = threshold_spec(0.35, budget=20)
        result = Pipeline.run(tight, kb_a, kb_b, gold=gold)
        assert result.progressive.comparisons_executed <= 20
        quality = evaluate_matches(result.matched_pairs(), gold)
        # What the scheduler did execute should be precise.
        assert quality.precision >= 0.8


class TestProgressiveSuperiority:
    def test_scheduler_beats_random_on_synthetic(self, center_dataset):
        dataset = center_dataset
        pipeline = Pipeline(PipelineSpec())
        _, processed = pipeline.block(dataset.kb1, dataset.kb2)
        edges = pipeline.meta_block(processed)
        index = SimilarityIndex([dataset.kb1, dataset.kb2])
        matcher = ThresholdMatcher(index, threshold=0.35)
        budget = CostBudget(len(edges) // 2)

        engine = static_strategy(matcher, budget=budget)
        scheduled = engine.run(edges, [dataset.kb1, dataset.kb2], gold=dataset.gold)
        random_ = random_order_baseline(
            edges, matcher, [dataset.kb1, dataset.kb2], budget, dataset.gold
        )
        assert scheduled.curve.auc("recall") > random_.curve.auc("recall")

    def test_update_phase_recovers_periphery_matches(self, periphery_dataset):
        dataset = periphery_dataset
        pipeline = Pipeline(PipelineSpec())
        _, processed = pipeline.block(dataset.kb1, dataset.kb2)
        edges = pipeline.meta_block(processed)
        collections = [dataset.kb1, dataset.kb2]
        oracle = OracleMatcher(dataset.gold.matches)

        static = static_strategy(oracle).run(edges, collections, gold=dataset.gold)
        dynamic = dynamic_strategy(oracle).run(edges, collections, gold=dataset.gold)
        assert dynamic.match_graph.match_count >= static.match_graph.match_count
        assert dynamic.discovered_pairs > 0


class TestBlockingQualityRegimes:
    def test_center_blocks_high_pc(self, center_dataset):
        dataset = center_dataset
        blocks, processed = Pipeline(PipelineSpec()).block(dataset.kb1, dataset.kb2)
        quality = evaluate_blocks(
            processed, dataset.gold, len(dataset.kb1), len(dataset.kb2)
        )
        assert quality.pairs_completeness >= 0.95
        assert quality.reduction_ratio >= 0.5

    def test_periphery_blocks_lose_recall(self, center_dataset, periphery_dataset):
        pipeline = Pipeline(PipelineSpec())
        center_blocks, _ = pipeline.block(center_dataset.kb1, center_dataset.kb2)
        periphery_blocks, _ = pipeline.block(
            periphery_dataset.kb1, periphery_dataset.kb2
        )
        center_q = evaluate_blocks(
            center_blocks, center_dataset.gold,
            len(center_dataset.kb1), len(center_dataset.kb2),
        )
        periphery_q = evaluate_blocks(
            periphery_blocks, periphery_dataset.gold,
            len(periphery_dataset.kb1), len(periphery_dataset.kb2),
        )
        # The paper's premise: somehow-similar descriptions co-occur in
        # fewer blocks; blocking recall is lower at the periphery.
        assert periphery_q.pairs_quality <= center_q.pairs_quality or (
            periphery_q.pairs_completeness <= center_q.pairs_completeness
        )


class TestMapReduceEndToEnd:
    def test_parallel_pipeline_agrees_with_sequential(self, movies):
        from repro.mapreduce.engine import MapReduceEngine
        from repro.mapreduce.parallel_blocking import parallel_token_blocking
        from repro.mapreduce.parallel_metablocking_ids import (
            parallel_metablocking_ids,
        )

        kb_a, kb_b, gold = movies
        pipeline = Pipeline(PipelineSpec())

        seq_blocks, seq_processed = pipeline.block(kb_a, kb_b)
        seq_edges = pipeline.meta_block(seq_processed)

        engine = MapReduceEngine(workers=4)
        par_blocks, _ = parallel_token_blocking(engine, kb_a, kb_b)
        par_processed = pipeline.purging.process(par_blocks)
        par_processed = pipeline.filtering.process(par_processed)
        par_edges, _ = parallel_metablocking_ids(
            engine, par_processed, pipeline.scheme, pipeline.pruner
        )
        assert [(e.pair, e.weight) for e in par_edges] == [
            (e.pair, e.weight) for e in seq_edges
        ]

    def test_simulated_speedup_monotone_on_average(self, center_dataset):
        from repro.mapreduce.engine import MapReduceEngine
        from repro.mapreduce.parallel_blocking import parallel_token_blocking

        costs = {}
        for workers in (1, 4):
            _, metrics = parallel_token_blocking(
                MapReduceEngine(workers=workers),
                center_dataset.kb1,
                center_dataset.kb2,
            )
            costs[workers] = metrics.critical_path_cost
        assert costs[4] < costs[1]


class TestBenefitSteering:
    @pytest.mark.parametrize(
        "benefit", ["quantity", "entity-coverage", "relationship-completeness"]
    )
    def test_each_benefit_resolves_movies(self, movies, threshold_spec, benefit):
        kb_a, kb_b, gold = movies
        spec = threshold_spec(0.35, benefit=benefit)
        result = Pipeline.run(spec, kb_a, kb_b, gold=gold)
        quality = evaluate_matches(result.matched_pairs(), gold)
        assert quality.recall >= 0.8

    def test_entity_coverage_prefers_new_entities(self, center_dataset):
        """Under a tight budget, entity-coverage scheduling must cover at
        least as many distinct entities as quantity scheduling."""
        dataset = center_dataset
        pipeline = Pipeline(PipelineSpec())
        _, processed = pipeline.block(dataset.kb1, dataset.kb2)
        edges = pipeline.meta_block(processed)
        oracle = OracleMatcher(dataset.gold.matches)
        budget = CostBudget(60)

        def covered_entities(benefit_name: str) -> int:
            engine = ProgressiveER(
                matcher=oracle,
                budget=budget,
                benefit=registry.create("benefit", benefit_name),
            )
            result = engine.run(edges, [dataset.kb1, dataset.kb2])
            return len(result.match_graph.clusters())

        assert covered_entities("entity-coverage") >= covered_entities("quantity")
