#!/usr/bin/env python3
"""Literal pay-as-you-go: resolving in budget instalments.

MinoanER's contract is that resolution quality grows with invested budget
and the consumer decides when to stop.  This script makes that concrete
with a :class:`repro.core.session.ProgressiveSession`: the center workload
is resolved in 100-comparison instalments, printing the quality reached
after each one, and stopping early once recall stops improving — the
decision loop a budget-conscious consumer would actually run.

Run:  python examples/instalment_session.py
"""

from repro import Pipeline, PipelineSpec, SyntheticConfig, format_table, synthesize_pair
from repro.core import ProgressiveSession
from repro.matching import SimilarityIndex, ThresholdMatcher


def main() -> None:
    dataset = synthesize_pair(SyntheticConfig(entities=300, overlap=0.7, seed=17))
    pipeline = Pipeline(PipelineSpec())
    _, processed = pipeline.block(dataset.kb1, dataset.kb2)
    edges = pipeline.meta_block(processed)
    index = SimilarityIndex([dataset.kb1, dataset.kb2])

    session = ProgressiveSession(
        matcher=ThresholdMatcher(index, threshold=0.35),
        edges=edges,
        collections=[dataset.kb1, dataset.kb2],
        gold=dataset.gold,
    )
    print(
        f"Frontier: {session.pending_comparisons} candidate comparisons "
        f"for {len(dataset.gold.matches)} gold matches\n"
    )

    rows = []
    instalment = 100
    paid = 0
    stall = 0
    while not session.finished and stall < 2:
        before = session.recall
        session.advance(instalment)
        paid += instalment
        rows.append(
            {
                "instalment": str(len(rows) + 1),
                "budget paid": str(paid),
                "executed": str(session.result.comparisons_executed),
                "matches": str(session.result.match_graph.match_count),
                "recall": f"{session.recall:.3f}",
            }
        )
        stall = stall + 1 if session.recall - before < 0.005 else 0

    print(format_table(rows, title="Instalment-by-instalment progress",
                       first_column="instalment"))
    if stall >= 2:
        print(
            f"\nStopped paying after {paid} comparisons: two instalments "
            f"in a row improved recall by < 0.5%."
        )
    print(
        f"Remaining frontier left unexecuted: {session.pending_comparisons} "
        f"comparisons — the budget they would cost was saved."
    )


if __name__ == "__main__":
    main()
