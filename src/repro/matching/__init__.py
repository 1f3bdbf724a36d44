"""Entity matching: similarity computation and match decisions.

The matching phase receives candidate pairs (from blocking/meta-blocking,
ordered by the scheduler) and decides whether each pair co-refers.  The
package provides:

* :mod:`repro.matching.similarity` — schema-agnostic token similarity
  functions (Jaccard, weighted Jaccard, TF-IDF cosine) plus a corpus-aware
  :class:`SimilarityIndex` that caches token profiles and IDF statistics;
* :mod:`repro.matching.matcher` — threshold-based pairwise matchers and
  the :class:`MatchGraph` accumulating decisions;
* :mod:`repro.matching.clustering` — turning pairwise decisions into
  resolved entities (connected components for dirty ER).
"""

from repro.matching.similarity import (
    jaccard,
    weighted_jaccard,
    cosine_tfidf,
    SimilarityIndex,
)
from repro.matching.matcher import (
    Matcher,
    ThresholdMatcher,
    OracleMatcher,
    MatchGraph,
    MatchDecision,
)
from repro.matching.clustering import connected_components

__all__ = [
    "jaccard",
    "weighted_jaccard",
    "cosine_tfidf",
    "SimilarityIndex",
    "Matcher",
    "ThresholdMatcher",
    "MatchGraph",
    "MatchDecision",
    "connected_components",
    "OracleMatcher",
]
