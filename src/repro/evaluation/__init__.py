"""Evaluation: blocking quality, matching quality and progressive curves.

* :mod:`repro.evaluation.metrics` — the standard blocking measures (pairs
  completeness PC, pairs quality PQ, reduction ratio RR) and matching
  measures (precision, recall, F1);
* :mod:`repro.evaluation.progressive` — progressive-ER instrumentation:
  recall/benefit as a function of consumed comparison budget, and the
  normalized area under that curve;
* :mod:`repro.evaluation.reporting` — ASCII tables and series matching the
  rows/figures the experiment harness prints.
"""

from repro.evaluation.metrics import (
    BlockingQuality,
    MatchingQuality,
    evaluate_blocks,
    evaluate_comparisons,
    evaluate_matches,
)
from repro.evaluation.progressive import ProgressiveCurve, area_under_curve
from repro.evaluation.reporting import (
    format_table,
    format_series,
    format_progress_chart,
)
from repro.evaluation.clusters import BCubedScore, bcubed

__all__ = [
    "BlockingQuality",
    "MatchingQuality",
    "evaluate_blocks",
    "evaluate_comparisons",
    "evaluate_matches",
    "ProgressiveCurve",
    "area_under_curve",
    "format_table",
    "format_series",
    "format_progress_chart",
    "BCubedScore",
    "bcubed",
]
