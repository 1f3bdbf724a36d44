"""E6 — Benefit-model figure: benefit@budget per quality dimension.

MinoanER's departure from [1]: scheduling can target attribute
completeness, entity coverage or relationship completeness instead of raw
pair quantity.  The workload is the **dirty** one — entities carry up to
three duplicate descriptions, so the dimensions genuinely diverge: a
cluster of three descriptions offers three resolvable pairs (good for
quantity) but covers only one real-world entity (bad for coverage).

For each scheduler (one per benefit model) the experiment measures, at a
tight budget, all four quality dimensions of the produced resolution.
Shape to check: each quality-aware scheduler is the best (or tied-best)
strategy on its own targeted dimension; the quantity scheduler matches
[1]'s behaviour of milking dense duplicate clusters.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.api import Pipeline, PipelineSpec, registry
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER, ResolutionContext
from repro.core.updater import NeighborEvidencePropagator
from repro.evaluation.reporting import format_table
from repro.matching.matcher import OracleMatcher

BUDGET = 120


@pytest.fixture(scope="module")
def setup(dirty):
    collection, gold = dirty
    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(collection)
    edges = pipeline.meta_block(processed)
    matcher = OracleMatcher(gold.matches)
    return collection, gold, edges, matcher


def measure_dimensions(result, collection, gold) -> dict[str, float]:
    """The four quality dimensions of one resolution outcome."""
    matched = result.matched_pairs()
    cluster_index = gold.cluster_index()

    quantity = float(len(matched))

    covered_clusters = set()
    for left, right in matched:
        cluster = cluster_index.get(left)
        if cluster is not None and cluster == cluster_index.get(right):
            covered_clusters.add(cluster)

    context = ResolutionContext([collection])
    new_evidence = 0
    for left, right in matched:
        da, db = context.description(left), context.description(right)
        if da is None or db is None:
            continue
        new_evidence += len(set(da.pairs()) ^ set(db.pairs()))

    graphs_done = sum(
        1 for graph_ids in gold.entity_graphs if graph_ids <= covered_clusters
    )
    return {
        "quantity": quantity,
        "entity-coverage": float(len(covered_clusters)),
        "attribute-completeness": float(new_evidence),
        "relationship-completeness": float(graphs_done),
    }


def run_all(setup):
    collection, gold, edges, matcher = setup
    outcomes = {}
    for name in registry.names("benefit"):
        engine = ProgressiveER(
            matcher=matcher,
            budget=CostBudget(BUDGET),
            benefit=registry.create("benefit", name),
            updater=NeighborEvidencePropagator(),
        )
        result = engine.run(edges, [collection], gold=gold)
        outcomes[name] = measure_dimensions(result, collection, gold)
    return outcomes


def test_e6_benefit_models(benchmark, setup):
    collection, gold, edges, matcher = setup
    outcomes = run_all(setup)

    benchmark(
        lambda: ProgressiveER(
            matcher=matcher,
            budget=CostBudget(BUDGET),
            benefit=registry.create("benefit", "entity-coverage"),
        ).run(edges, [collection])
    )

    rows = []
    for scheduler, dims in outcomes.items():
        row = {"scheduler benefit": scheduler}
        row.update({k: f"{v:.0f}" for k, v in dims.items()})
        rows.append(row)
    report(
        "e6_benefit",
        format_table(
            rows,
            title=f"E6  Measured quality dimensions at budget={BUDGET} (dirty ER)",
            first_column="scheduler benefit",
        ),
    )

    # The poster's claim versus [1]: each quality-aware scheduler beats the
    # quantity-benefit baseline on the dimension it targets.
    quantity = outcomes["quantity"]
    # Coverage and relationship targeting must beat the baseline outright;
    # the attribute tie-breaker is deliberately gentle (see its docstring),
    # so parity within noise is the expected outcome there.
    for target in ("entity-coverage", "relationship-completeness"):
        assert outcomes[target][target] >= quantity[target]
    assert (
        outcomes["attribute-completeness"]["attribute-completeness"]
        >= quantity["attribute-completeness"] * 0.97
    )
    # And entity coverage diverges strictly once budgets force choices.
    assert (
        outcomes["entity-coverage"]["entity-coverage"]
        > quantity["entity-coverage"] * 1.05
    )
