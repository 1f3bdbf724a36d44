"""E5 — Progressive recall figure: recall vs consumed comparison budget.

The headline progressive-ER comparison: MinoanER's benefit-aware scheduler
(static and dynamic variants) against the random-order lower bound, the
blocking-native batch order, the Altowim-style progressive relational ER
baseline [1], and the gold-first "oracle" order — on the center workload
with a real (threshold) matcher.  The oracle orders gold pairs first but
the matcher still decides them, so it is no upper bound on progressive
recall: on periphery a dynamic schedule beats it.  Shape to check on
center: oracle ≥ dynamic ≥ static > altowim > batch ≈ random at every
budget, with the gap widest at small budgets (that is what "progressive"
buys).
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.api import Pipeline, PipelineSpec
from repro.baselines.altowim import AltowimProgressiveER
from repro.baselines.ordered import (
    batch_baseline,
    oracle_order_baseline,
    random_order_baseline,
)
from repro.core.budget import CostBudget
from repro.core.strategies import dynamic_strategy, static_strategy
from repro.evaluation.reporting import format_series, format_table
from repro.matching.matcher import ThresholdMatcher
from repro.matching.similarity import SimilarityIndex


@pytest.fixture(scope="module")
def setup(center):
    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(center.kb1, center.kb2)
    edges = pipeline.meta_block(processed)
    index = SimilarityIndex([center.kb1, center.kb2])
    matcher = ThresholdMatcher(index, threshold=0.35)
    budget = CostBudget(max(50, len(edges) // 2))
    return processed, edges, matcher, budget


def run_all(center, setup):
    processed, edges, matcher, budget = setup
    collections = [center.kb1, center.kb2]
    gold = center.gold
    curves = {}
    curves["minoan-dynamic"] = dynamic_strategy(matcher, budget=budget).run(
        edges, collections, gold=gold, label="minoan-dynamic"
    )
    curves["minoan-static"] = static_strategy(matcher, budget=budget).run(
        edges, collections, gold=gold, label="minoan-static"
    )
    curves["altowim"] = AltowimProgressiveER(window_size=20).run(
        processed, matcher, collections, budget, gold
    )
    curves["random"] = random_order_baseline(edges, matcher, collections, budget, gold)
    curves["batch"] = batch_baseline(edges, matcher, collections, budget, gold)
    curves["oracle"] = oracle_order_baseline(edges, matcher, collections, gold, budget)
    return curves


def test_e5_progressive_recall(benchmark, center, setup):
    processed, edges, matcher, budget = setup
    results = run_all(center, setup)

    benchmark(
        lambda: dynamic_strategy(matcher, budget=budget).run(
            edges, [center.kb1, center.kb2], gold=center.gold
        )
    )

    series = format_series(
        [r.curve for r in results.values()],
        series="recall",
        points=10,
        title="E5  Progressive recall vs comparisons",
    )
    auc_rows = [
        {
            "strategy": name,
            "AUC": f"{r.curve.auc('recall', budget.max_cost):.3f}",
            "final recall": f"{r.curve.final('recall'):.3f}",
            "comparisons": str(r.comparisons_executed),
        }
        for name, r in results.items()
    ]
    report(
        "e5_progressive",
        series + "\n\n" + format_table(auc_rows, title="AUC@budget", first_column="strategy"),
    )

    auc = {name: r.curve.auc("recall", budget.max_cost) for name, r in results.items()}
    # The paper's qualitative ordering.
    assert auc["oracle"] >= auc["minoan-dynamic"] - 1e-9
    assert auc["minoan-dynamic"] >= auc["minoan-static"] - 0.02
    assert auc["minoan-static"] > auc["random"]
    assert auc["minoan-static"] > auc["batch"]
    assert auc["minoan-dynamic"] > auc["altowim"]
