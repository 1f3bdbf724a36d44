"""From pairwise decisions to resolved entities.

Dirty ER uses the transitive closure (connected components) of the match
graph.
"""

from __future__ import annotations

from typing import Iterable

from repro.utils.disjoint_set import DisjointSet


def connected_components(
    pairs: Iterable[tuple[str, str]],
) -> list[frozenset[str]]:
    """Transitive closure of the given matched pairs.

    Returns:
        Clusters with at least two members, largest first.
    """
    ds = DisjointSet()
    for left, right in pairs:
        ds.union(left, right)
    return [c for c in ds.to_clusters() if len(c) > 1]
