"""E7 — Neighbour-evidence figure: the update phase at the LOD periphery.

The poster's key mechanism: "exploiting the partial matching results as a
similarity evidence for their neighbor descriptions" to recover matches
that blocking missed.  On the periphery workload (somehow-similar
descriptions, sparse evidence), this experiment compares the static
schedule (update OFF) with dynamic schedules (update ON) across the
propagation boost factor, and with discovery disabled — the ablation
that separates the update phase's two effects: re-ranking pairs blocking
already produced (boost) and enqueuing neighbour pairs it never produced
(discovery).  Shape to check: update ON finds every match static finds
plus discovered ones; discovery is what recovers unblocked pairs; the
boost factor mainly changes *when* those matches surface.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.api import Pipeline, PipelineSpec
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.updater import NeighborEvidencePropagator
from repro.evaluation.metrics import evaluate_matches
from repro.evaluation.reporting import format_table
from repro.matching.matcher import ThresholdMatcher
from repro.matching.similarity import SimilarityIndex


@pytest.fixture(scope="module")
def setup(periphery):
    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(periphery.kb1, periphery.kb2)
    edges = pipeline.meta_block(processed)
    index = SimilarityIndex([periphery.kb1, periphery.kb2])
    return edges, index


def make_matcher(index):
    # Periphery pairs share few tokens: a low value threshold is required,
    # and matched-neighbour evidence contributes to the decision (the
    # poster's "similarity evidence" for neighbours).
    return NeighborAwareMatcher(
        ThresholdMatcher(index, threshold=0.12), evidence_weight=0.3
    )


def run_variants(periphery, setup):
    edges, index = setup
    collections = [periphery.kb1, periphery.kb2]
    budget = CostBudget(1200)
    variants = {"update OFF": None}
    for boost in (0.5, 1.0, 2.0):
        variants[f"update ON (boost={boost})"] = NeighborEvidencePropagator(
            boost_factor=boost, discovery_weight=0.5
        )
    variants["update ON (no discovery)"] = NeighborEvidencePropagator(
        boost_factor=1.0, discovery_weight=0.0
    )
    results = {}
    for label, updater in variants.items():
        engine = ProgressiveER(
            matcher=make_matcher(index), budget=budget, updater=updater
        )
        results[label] = engine.run(edges, collections, gold=periphery.gold, label=label)
    return results


def test_e7_neighbor_evidence(benchmark, periphery, setup):
    edges, index = setup
    results = run_variants(periphery, setup)

    benchmark(
        lambda: ProgressiveER(
            matcher=make_matcher(index),
            budget=CostBudget(1200),
            updater=NeighborEvidencePropagator(),
        ).run(edges, [periphery.kb1, periphery.kb2])
    )

    rows = []
    for label, result in results.items():
        quality = evaluate_matches(result.matched_pairs(), periphery.gold)
        rows.append(
            {
                "variant": label,
                "recall": f"{result.curve.final('recall'):.3f}",
                "precision": f"{quality.precision:.3f}",
                "AUC": f"{result.curve.auc('recall', 1200):.3f}",
                "matches": str(result.match_graph.match_count),
                "discovered pairs": str(result.discovered_pairs),
                "discovered matches": str(result.discovered_matches),
            }
        )
    report(
        "e7_neighbor",
        format_table(
            rows,
            title="E7  Update phase at the periphery (recall within budget 1200)",
            first_column="variant",
        ),
    )

    static = results["update OFF"]
    dynamic = results["update ON (boost=1.0)"]
    no_discovery = results["update ON (no discovery)"]
    # The update phase recovers matches blocking missed.
    assert dynamic.match_graph.match_count >= static.match_graph.match_count
    assert dynamic.discovered_matches > 0
    # Discovery is the mechanism: without it no unblocked pair can match.
    assert no_discovery.discovered_matches == 0
    # Every boost setting finds at least the static matches.
    for boost in (0.5, 1.0, 2.0):
        assert (
            results[f"update ON (boost={boost})"].match_graph.match_count
            >= static.match_graph.match_count
        )
