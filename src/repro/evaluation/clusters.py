"""Cluster-level evaluation: B-cubed.

Pairwise precision/recall over-weights large clusters (a k-cluster holds
k·(k−1)/2 pairs), so dirty-ER evaluations also report **B-cubed**
(Bagga & Baldwin): for every description, the precision/recall of *its
own* predicted cluster against its gold cluster, averaged uniformly over
descriptions.  B-cubed rewards getting small clusters right as much as
large ones and penalizes both over-merging and over-splitting smoothly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class BCubedScore:
    """B-cubed precision/recall/F1."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        """Harmonic mean of B-cubed precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)

    def as_row(self) -> dict[str, str]:
        """Formatted experiment-table row."""
        return {
            "B3 precision": f"{self.precision:.3f}",
            "B3 recall": f"{self.recall:.3f}",
            "B3 F1": f"{self.f1:.3f}",
        }


def _index(clusters: Iterable[frozenset[str]]) -> dict[str, frozenset[str]]:
    index: dict[str, frozenset[str]] = {}
    for cluster in clusters:
        for uri in cluster:
            index[uri] = cluster
    return index


def bcubed(
    predicted: Iterable[frozenset[str]],
    gold: Iterable[frozenset[str]],
    universe: Iterable[str] | None = None,
) -> BCubedScore:
    """B-cubed score of *predicted* clusters against *gold* clusters.

    Args:
        predicted: predicted clustering (clusters may omit singletons).
        gold: reference clustering.
        universe: descriptions to average over; defaults to the union of
            both clusterings.  Descriptions missing from a clustering are
            treated as singletons — the natural ER reading, where an
            unclustered description is its own entity.

    Returns:
        The averaged :class:`BCubedScore`.
    """
    predicted_index = _index(predicted)
    gold_index = _index(gold)
    if universe is None:
        items = set(predicted_index) | set(gold_index)
    else:
        items = set(universe)
    if not items:
        return BCubedScore(0.0, 0.0)

    precision_sum = 0.0
    recall_sum = 0.0
    for uri in items:
        predicted_cluster = predicted_index.get(uri, frozenset((uri,)))
        gold_cluster = gold_index.get(uri, frozenset((uri,)))
        overlap = len(predicted_cluster & gold_cluster)
        precision_sum += overlap / len(predicted_cluster)
        recall_sum += overlap / len(gold_cluster)
    size = len(items)
    return BCubedScore(precision_sum / size, recall_sum / size)
