#!/usr/bin/env python3
"""Pay-as-you-go resolution at the periphery of the LOD cloud.

Synthesizes a periphery workload — sparsely described, "somehow similar"
entity descriptions with proprietary vocabularies and partly opaque URIs —
and resolves it under a sweep of comparison budgets, reporting how recall
accumulates for each scheduling strategy and how the choice of benefit
model changes what gets resolved first.

Run:  python examples/periphery_payg.py
"""

from repro import (
    CostBudget,
    PERIPHERY_PROFILE,
    Pipeline,
    PipelineSpec,
    SyntheticConfig,
    format_series,
    format_table,
    synthesize_pair,
)
from repro.baselines import random_order_baseline
from repro.core import NeighborAwareMatcher, dynamic_strategy, static_strategy
from repro.matching import SimilarityIndex, ThresholdMatcher


def main() -> None:
    dataset = synthesize_pair(
        SyntheticConfig(entities=250, overlap=0.7, seed=7, profile=PERIPHERY_PROFILE)
    )
    print(
        f"Periphery workload: {len(dataset.kb1)} + {len(dataset.kb2)} descriptions, "
        f"{len(dataset.gold.matches)} gold matches"
    )
    stats = dataset.kb1.statistics()
    print(f"KB1 shape: {stats.property_count} properties, "
          f"avg {stats.avg_values_per_description:.1f} values/description, "
          f"avg out-degree {stats.avg_out_degree:.2f}\n")

    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(dataset.kb1, dataset.kb2)
    edges = pipeline.meta_block(processed)
    print(f"Blocking produced {len(processed)} blocks; meta-blocking retained {len(edges)} comparisons\n")

    index = SimilarityIndex([dataset.kb1, dataset.kb2])

    def matcher():
        return NeighborAwareMatcher(ThresholdMatcher(index, threshold=0.12), 0.3)

    budget = CostBudget(1000)
    collections = [dataset.kb1, dataset.kb2]
    curves = []
    dynamic = dynamic_strategy(matcher(), budget=budget).run(
        edges, collections, gold=dataset.gold, label="minoan-dynamic"
    )
    curves.append(dynamic.curve)
    static = static_strategy(matcher(), budget=budget).run(
        edges, collections, gold=dataset.gold, label="minoan-static"
    )
    curves.append(static.curve)
    random_ = random_order_baseline(edges, matcher(), collections, budget, dataset.gold)
    curves.append(random_.curve)

    print(format_series(curves, series="recall", points=10,
                        title="Recall vs consumed comparisons"))

    from repro.evaluation import format_progress_chart
    print()
    print(format_progress_chart(curves, title="Progressive recall"))

    rows = [
        {
            "strategy": r.curve.label,
            "AUC": f"{r.curve.auc('recall', 1000):.3f}",
            "final recall": f"{r.curve.final('recall'):.3f}",
            "discovered matches": str(getattr(r, "discovered_matches", 0)),
        }
        for r in (dynamic, static, random_)
    ]
    print()
    print(format_table(rows, title="Summary", first_column="strategy"))


if __name__ == "__main__":
    main()
