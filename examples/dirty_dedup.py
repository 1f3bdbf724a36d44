#!/usr/bin/env python3
"""Dirty ER: deduplicating one knowledge base.

Synthesizes a single collection in which each real-world entity appears
as one to three perturbed duplicate descriptions, resolves it with the
MinoanER pipeline, clusters the pairwise matches, and scores the result
both pairwise (precision/recall/F1) and cluster-wise (B-cubed) — the
evaluation style dirty-ER studies use.

Run:  python examples/dirty_dedup.py
"""

from repro import Pipeline, PipelineSpec, SyntheticConfig, format_table, synthesize_dirty
from repro.evaluation import bcubed, evaluate_matches
from repro.matching import connected_components


def main() -> None:
    collection, gold = synthesize_dirty(
        SyntheticConfig(entities=250, seed=21), max_duplicates=3
    )
    duplicates = sum(len(c) for c in gold.clusters)
    print(
        f"Collection: {len(collection)} descriptions; "
        f"{len(gold.clusters)} entities have duplicates ({duplicates} descriptions)\n"
    )

    spec = PipelineSpec.from_dict(
        {
            "matching": {
                "budget": 2500,
                "matcher": {"name": "threshold", "params": {"threshold": 0.45}},
                "benefit": "entity-coverage",
            }
        }
    )
    result = Pipeline.run(spec, collection, gold=gold)
    print(format_table(
        [dict(stage=k, value=v) for k, v in result.summary().items()],
        title="Pipeline stages",
    ))

    pairwise = evaluate_matches(result.matched_pairs(), gold)
    predicted_clusters = connected_components(result.matched_pairs())
    cluster_score = bcubed(
        predicted_clusters, gold.clusters, universe=collection.uris()
    )
    print()
    print(format_table(
        [{**pairwise.as_row(), **cluster_score.as_row()}],
        title="Pairwise + B-cubed quality",
    ))

    sizes = {}
    for cluster in predicted_clusters:
        sizes[len(cluster)] = sizes.get(len(cluster), 0) + 1
    print()
    print(format_table(
        [
            {"cluster size": str(size), "count": str(count)}
            for size, count in sorted(sizes.items())
        ],
        title="Predicted duplicate-cluster sizes",
        first_column="cluster size",
    ))


if __name__ == "__main__":
    main()
