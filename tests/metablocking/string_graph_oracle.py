"""The string-tuple meta-blocking loops, kept as the test oracle.

Moved verbatim from ``BlockingGraph._pair_statistics`` /
``_materialize_slow`` and the adjacency-dict branches of ``WNP.prune`` /
``CNP.prune`` when the columnar path became the only one in ``src/``:
one string tuple and one stats tuple per implied comparison, weights
through the schemes' string ``prepare`` / ``weight`` API, pruning over
URI-keyed dicts.  Every backend's pair table, weights and pruned edges
are held ``==`` to these, floats included.
"""

from __future__ import annotations

import heapq
import math

from repro.metablocking.graph import WeightedEdge
from repro.metablocking.pruning import CEP, CNP, WEP, WNP


def _ranked(edges: list[WeightedEdge]) -> list[WeightedEdge]:
    """Weight-descending, pair-ascending deterministic order."""
    return sorted(edges, key=lambda e: (-e.weight, e.left, e.right))


def reference_pair_statistics(blocks) -> dict[tuple[str, str], tuple[int, float]]:
    """Per-pair (common_blocks, arcs_sum), in first-seen pair order."""
    stats: dict[tuple[str, str], tuple[int, float]] = {}
    for block in blocks:
        cardinality = block.cardinality()
        if cardinality == 0:
            continue
        arcs_contribution = 1.0 / cardinality
        for pair in block.comparisons():
            common, arcs = stats.get(pair, (0, 0.0))
            stats[pair] = (common + 1, arcs + arcs_contribution)
    return stats


def reference_edges(blocks, scheme) -> dict[tuple[str, str], float]:
    """Pair → weight under *scheme*'s string API, in first-seen pair order."""
    stats = reference_pair_statistics(blocks)
    scheme.prepare(blocks, stats)
    return {
        pair: scheme.weight(pair[0], pair[1], common, arcs)
        for pair, (common, arcs) in stats.items()
    }


def sorted_edges(edges: dict[tuple[str, str], float]) -> list[WeightedEdge]:
    """The pair-sorted edge list ``BlockingGraph.edges()`` iterates."""
    return [WeightedEdge(pair[0], pair[1], edges[pair]) for pair in sorted(edges)]


def reference_prune(blocks, scheme, pruner) -> list[WeightedEdge]:
    """Surviving edges of *pruner* over the string-keyed reference graph."""
    edges = reference_edges(blocks, scheme)
    if isinstance(pruner, CEP):
        return _ranked(sorted_edges(edges))[: pruner.budget_from_blocks(blocks)]
    if isinstance(pruner, WEP):
        mean = sum(edges.values()) / len(edges) if edges else 0.0
        threshold = mean * pruner.threshold_factor
        return _ranked([e for e in sorted_edges(edges) if e.weight >= threshold])
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for (left, right), weight in edges.items():
        adjacency.setdefault(left, []).append((right, weight))
        adjacency.setdefault(right, []).append((left, weight))
    survivors: list[WeightedEdge] = []
    if isinstance(pruner, WNP):
        thresholds: dict[str, float] = {}
        for node, neighbors in adjacency.items():
            if neighbors:
                thresholds[node] = sum(w for _, w in neighbors) / len(neighbors)
        for edge in sorted_edges(edges):
            votes = 0
            if edge.weight >= thresholds.get(edge.left, math.inf):
                votes += 1
            if edge.weight >= thresholds.get(edge.right, math.inf):
                votes += 1
            if votes >= pruner.required_votes:
                survivors.append(edge)
        return _ranked(survivors)
    assert isinstance(pruner, CNP), pruner
    k = pruner.node_budget_from_blocks(blocks)
    kept_by_node: dict[str, set[str]] = {}
    # heapq.nsmallest == sorted(...)[:k] (same key, same ties), but
    # O(n log k) per node instead of a full O(n log n) sort.
    for node, neighbors in adjacency.items():
        top = heapq.nsmallest(k, neighbors, key=lambda nw: (-nw[1], nw[0]))
        kept_by_node[node] = {other for other, _ in top}
    for edge in sorted_edges(edges):
        votes = 0
        if edge.right in kept_by_node.get(edge.left, ()):
            votes += 1
        if edge.left in kept_by_node.get(edge.right, ()):
            votes += 1
        if votes >= pruner.required_votes:
            survivors.append(edge)
    return _ranked(survivors)
