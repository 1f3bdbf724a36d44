"""E10 — Scheduling-overhead ablation: is the iterative process worth it?

The poster concedes that exploiting intermediate results "inherently
entails an additional overhead", which is why benefit must be maximized
per unit of cost.  This experiment makes that overhead explicit: the cost
budget charges scheduling/update operations at increasing weights (0 =
free bookkeeping, the usual assumption; 0.01 and 0.05 = bookkeeping eats
real budget), with the update phase on and off.  Shape to check: with
free scheduling the dynamic strategy dominates; as bookkeeping gets more
expensive its advantage shrinks — but at realistic weights (a scheduling
operation is orders of magnitude cheaper than a comparison) it keeps a
clear margin over the static schedule.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.api import Pipeline, PipelineSpec
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER
from repro.core.updater import NeighborEvidencePropagator
from repro.evaluation.reporting import format_table
from repro.matching.matcher import ThresholdMatcher
from repro.matching.similarity import SimilarityIndex

BUDGET = 800
WEIGHTS = (0.0, 0.01, 0.05)


@pytest.fixture(scope="module")
def setup(periphery):
    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(periphery.kb1, periphery.kb2)
    edges = pipeline.meta_block(processed)
    index = SimilarityIndex([periphery.kb1, periphery.kb2])
    matcher = ThresholdMatcher(index, threshold=0.12)
    return edges, matcher


def run_experiment(periphery, setup):
    edges, matcher = setup
    collections = [periphery.kb1, periphery.kb2]
    rows = []
    results = {}
    for weight in WEIGHTS:
        for update in (False, True):
            label = f"update={'ON' if update else 'OFF'} w={weight}"
            engine = ProgressiveER(
                matcher=matcher,
                budget=CostBudget(BUDGET, scheduling_cost_weight=weight),
                updater=NeighborEvidencePropagator() if update else None,
            )
            result = engine.run(edges, collections, gold=periphery.gold, label=label)
            results[(update, weight)] = result
            rows.append(
                {
                    "configuration": label,
                    "recall": f"{result.curve.final('recall'):.3f}",
                    "comparisons": str(result.comparisons_executed),
                    "scheduling ops": str(result.budget.scheduling_operations),
                    "budget on bookkeeping": f"{result.budget.scheduling_operations * weight:.0f}",
                }
            )
    return rows, results


def test_e10_scheduling_overhead(benchmark, periphery, setup):
    edges, matcher = setup
    rows, results = run_experiment(periphery, setup)

    benchmark(
        lambda: ProgressiveER(
            matcher=matcher,
            budget=CostBudget(BUDGET, scheduling_cost_weight=0.01),
            updater=NeighborEvidencePropagator(),
        ).run(edges, [periphery.kb1, periphery.kb2])
    )

    report(
        "e10_ablation",
        format_table(
            rows,
            title=f"E10  Scheduling-overhead ablation (budget={BUDGET})",
            first_column="configuration",
        ),
    )

    # Charging bookkeeping reduces the comparisons the budget affords.
    assert (
        results[(True, 0.05)].comparisons_executed
        <= results[(True, 0.0)].comparisons_executed
    )
    # At realistic overhead the update phase still pays for itself.
    assert (
        results[(True, 0.01)].curve.final("recall")
        >= results[(False, 0.01)].curve.final("recall") - 0.02
    )
    # The static schedule performs no scheduling/update bookkeeping beyond
    # estimate refreshes; dynamic performs strictly more.
    assert (
        results[(True, 0.0)].budget.scheduling_operations
        > results[(False, 0.0)].budget.scheduling_operations
    )
