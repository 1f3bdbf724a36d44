"""E11 — Evidence-weight ablation for neighbour-aware matching.

The decision under test: discovered (unblocked) pairs share too few
tokens for a value matcher to accept, so they can only match if
neighbour evidence contributes to the match decision
(:class:`~repro.core.evidence_matcher.NeighborAwareMatcher`).  This
experiment sweeps the evidence weight on the periphery workload and
reports the precision/recall trade-off: weight 0 reduces to pure value
matching (no discovered matches); small weights recover blocking-missed
matches with modest precision cost; large weights accept increasingly
speculative pairs.  The value-support floor (``min_value_similarity``) is
also toggled to show it is what keeps wrong hub-spoke pairs out.
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

WEIGHTS = (0.0, 0.15, 0.3, 0.6)
BUDGET = 1200


@pytest.fixture(scope="module")
def setup(periphery):
    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(periphery.kb1, periphery.kb2)
    edges = pipeline.meta_block(processed)
    index = SimilarityIndex([periphery.kb1, periphery.kb2])
    return edges, index


def run_configuration(periphery, edges, index, weight, floor):
    matcher = NeighborAwareMatcher(
        ThresholdMatcher(index, threshold=0.12),
        evidence_weight=weight,
        min_value_similarity=floor,
    )
    engine = ProgressiveER(
        matcher=matcher,
        budget=CostBudget(BUDGET),
        updater=NeighborEvidencePropagator(discovery_weight=0.5),
    )
    return engine.run(
        edges, [periphery.kb1, periphery.kb2], gold=periphery.gold
    )


def run_experiment(periphery, setup):
    edges, index = setup
    rows = []
    results = {}
    for weight in WEIGHTS:
        result = run_configuration(periphery, edges, index, weight, 1e-9)
        results[weight] = result
        quality = evaluate_matches(result.matched_pairs(), periphery.gold)
        rows.append(
            {
                "evidence weight": str(weight),
                "value floor": "on",
                "recall": f"{quality.recall:.3f}",
                "precision": f"{quality.precision:.3f}",
                "F1": f"{quality.f1:.3f}",
                "discovered matches": str(result.discovered_matches),
            }
        )
    # The floor ablation: evidence allowed to match with zero value support.
    no_floor = run_configuration(periphery, edges, index, 0.3, 0.0)
    quality = evaluate_matches(no_floor.matched_pairs(), periphery.gold)
    rows.append(
        {
            "evidence weight": "0.3",
            "value floor": "OFF",
            "recall": f"{quality.recall:.3f}",
            "precision": f"{quality.precision:.3f}",
            "F1": f"{quality.f1:.3f}",
            "discovered matches": str(no_floor.discovered_matches),
        }
    )
    results["no-floor"] = no_floor
    return rows, results


def test_e11_evidence_weight(benchmark, periphery, setup):
    edges, index = setup
    rows, results = run_experiment(periphery, setup)

    benchmark(lambda: run_configuration(periphery, edges, index, 0.3, 1e-9))

    report(
        "e11_evidence",
        format_table(
            rows,
            title=f"E11  Neighbour-evidence weight ablation (periphery, budget={BUDGET})",
            first_column="evidence weight",
        ),
    )

    def quality_of(key):
        return evaluate_matches(results[key].matched_pairs(), periphery.gold)

    # Weight 0 = pure value matching: discovery can only resurrect pairs
    # post-processing dropped (value-matchable), not token-free ones.
    assert results[0.0].discovered_matches <= 5
    # Positive weights recover many more blocking-missed matches.
    assert results[0.3].discovered_matches > results[0.0].discovered_matches * 5
    assert quality_of(0.3).recall > quality_of(0.0).recall
    # Recall is monotone in the weight...
    recalls = [quality_of(w).recall for w in WEIGHTS]
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))
    # ...while precision is monotone the other way.
    precisions = [quality_of(w).precision for w in WEIGHTS]
    assert all(b <= a + 1e-9 for a, b in zip(precisions, precisions[1:]))
    # Dropping the value floor floods in hub-spoke false positives.
    assert quality_of("no-floor").precision < quality_of(0.3).precision
