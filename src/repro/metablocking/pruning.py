"""Pruning schemes over the weighted blocking graph.

Given the weighted graph, a pruning scheme decides which edges survive as
the comparison set handed to matching/scheduling.  The four canonical
algorithms (plus reciprocal node-centric variants):

==========  =================================================================
``WEP``     Weighted Edge Pruning — keep edges above the **global** mean
            weight.
``CEP``     Cardinality Edge Pruning — keep the globally top-``K`` edges,
            ``K = Σ_b ‖b‖ / 2`` block assignments halved (budget-shaped).
``WNP``     Weighted Node Pruning — per node, keep edges above the node
            neighbourhood's mean weight; an edge survives if **either**
            endpoint keeps it.
``CNP``     Cardinality Node Pruning — per node, keep the top-``k`` edges
            with ``k = ⌈Σ_b ‖b‖ / |E|⌉ − 1`` (average blocks per entity);
            an edge survives if either endpoint keeps it.
``ReciprocalWNP/CNP``  — as WNP/CNP but an edge survives only if **both**
            endpoints keep it (higher precision, lower recall).
==========  =================================================================

All schemes return deterministic, weight-then-pair ordered edge lists so
experiment tables are stable across runs.  The node-centric schemes run
vectorized over the graph's pair table; the adjacency-dict loops they
replaced are the test oracle (``tests/metablocking/string_graph_oracle.py``)
they stay bit-identical to.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as _np

from repro.metablocking.graph import BlockingGraph, WeightedEdge


def _ranked(edges: list[WeightedEdge]) -> list[WeightedEdge]:
    """Weight-descending, pair-ascending deterministic order."""
    # (-w, left, right) orders identically to (-w, pair) without building
    # a pair tuple per key call.
    return sorted(edges, key=lambda e: (-e.weight, e.left, e.right))


def _directed_view(graph: BlockingGraph):
    """Edge arrays plus the interleaved directed layout of a graph.

    Returns ``(table, weights, node, weight_directed)``.  The directed
    arrays interleave each edge's two endpoints (left at ``2i``, right at
    ``2i+1``), which is exactly the order the adjacency-dict construction
    appends neighbours in — so per-node float accumulations over this
    layout are bit-identical to sums over ``adjacency()`` lists.
    """
    table = graph.pair_table()
    edges = graph.materialize()
    count = len(edges)
    weights = _np.fromiter(edges.values(), dtype=_np.float64, count=count)
    node = _np.empty(2 * count, dtype=_np.int64)
    node[0::2] = table.ids_a
    node[1::2] = table.ids_b
    weight_directed = _np.repeat(weights, 2)
    return table, weights, node, weight_directed


def _survivor_edges(table, weights, surviving_indices) -> list[WeightedEdge]:
    pairs = table.pairs
    weight_list = weights.tolist()
    return _ranked(
        [
            WeightedEdge(pairs[i][0], pairs[i][1], weight_list[i])
            for i in surviving_indices.tolist()
        ]
    )


class PruningScheme(ABC):
    """Base class for blocking-graph pruning algorithms."""

    #: short name used in experiment tables
    name = "pruning"

    @abstractmethod
    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        """Return the surviving edges of *graph*, deterministically ordered."""


class WEP(PruningScheme):
    """Weighted Edge Pruning: global mean-weight threshold.

    Args:
        threshold_factor: multiple of the mean used as the cut (1.0 = the
            classic algorithm).
    """

    name = "WEP"

    def __init__(self, threshold_factor: float = 1.0) -> None:
        if threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        self.threshold_factor = threshold_factor

    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        threshold = graph.average_weight() * self.threshold_factor
        survivors = [edge for edge in graph.edges() if edge.weight >= threshold]
        return _ranked(survivors)


class CEP(PruningScheme):
    """Cardinality Edge Pruning: keep the globally top-K edges.

    ``K`` defaults to half the total block assignments — the evidence
    budget the literature derives from the blocking collection itself —
    but can be fixed explicitly for budget experiments.
    """

    name = "CEP"

    def __init__(self, k: int | None = None) -> None:
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def budget(self, graph: BlockingGraph) -> int:
        """The K used for *graph*."""
        return self.budget_from_blocks(graph.blocks)

    def budget_from_blocks(self, blocks) -> int:
        """The K derived from a block collection's statistics.

        Shared with the MapReduce jobs so their budget can never drift
        from the sequential derivation.
        """
        if self.k is not None:
            return self.k
        return max(1, blocks.total_assignments() // 2)

    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        return graph.top_edges(self.budget(graph))


class WNP(PruningScheme):
    """Weighted Node Pruning: per-neighbourhood mean threshold (redefined
    per node); union semantics across endpoints."""

    name = "WNP"

    #: an edge survives when this many endpoints keep it (1=union, 2=both)
    required_votes = 1

    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        """Vectorized WNP: per-node mean thresholds over the int arrays.

        ``bincount`` accumulates in the interleaved directed order, so the
        per-node sums (and hence thresholds) are bit-identical to the
        adjacency-dict formulation.
        """
        np = _np
        table, weights, node, weight_directed = _directed_view(graph)
        entities = len(table.uri_rank)
        if not len(weights):
            return []
        sums = np.bincount(node, weights=weight_directed, minlength=entities)
        counts = np.bincount(node, minlength=entities)
        thresholds = np.full(entities, np.inf)
        occupied = counts > 0
        thresholds[occupied] = sums[occupied] / counts[occupied]
        votes = (weights >= thresholds[table.ids_a]).astype(np.int8) + (
            weights >= thresholds[table.ids_b]
        )
        return _survivor_edges(table, weights, np.flatnonzero(votes >= self.required_votes))


class ReciprocalWNP(WNP):
    """WNP requiring both endpoints to retain the edge."""

    name = "ReciprocalWNP"
    required_votes = 2


class CNP(PruningScheme):
    """Cardinality Node Pruning: per-node top-k retention; union semantics.

    ``k`` defaults to the average number of block assignments per entity
    (rounded up) minus one, floored at 1 — the standard derivation.
    """

    name = "CNP"

    #: votes needed for an edge to survive (1=union, 2=both endpoints)
    required_votes = 1

    def __init__(self, k: int | None = None) -> None:
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def node_budget(self, graph: BlockingGraph) -> int:
        """The per-node k used for *graph*."""
        return self.node_budget_from_blocks(graph.blocks)

    def node_budget_from_blocks(self, blocks) -> int:
        """The per-node k derived from a block collection's statistics."""
        if self.k is not None:
            return self.k
        entities = max(blocks.entity_count(), 1)
        avg_assignments = blocks.total_assignments() / entities
        return max(1, math.ceil(avg_assignments) - 1)

    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        """Vectorized CNP: one lexsort ranks every node's neighbourhood.

        Sorting the directed entries by ``(node, -weight, neighbour URI
        rank)`` makes each node's top-k a contiguous prefix of its group —
        the deterministic order a per-node ``(-weight, URI)`` top-k
        selection uses, with integer ranks standing in for the URI
        tie-break.
        """
        np = _np
        k = self.node_budget(graph)
        table, weights, node, weight_directed = _directed_view(graph)
        if not len(weights):
            return []
        rank = table.uri_rank
        neighbor_rank = np.empty_like(node)
        neighbor_rank[0::2] = rank[table.ids_b]
        neighbor_rank[1::2] = rank[table.ids_a]
        order = np.lexsort((neighbor_rank, -weight_directed, node))
        sorted_nodes = node[order]
        boundary = np.empty(len(sorted_nodes), dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_nodes[1:], sorted_nodes[:-1], out=boundary[1:])
        group_start = np.flatnonzero(boundary)
        position = np.arange(len(sorted_nodes)) - group_start[np.cumsum(boundary) - 1]
        kept = np.empty(len(sorted_nodes), dtype=bool)
        kept[order] = position < k
        votes = kept[0::2].astype(np.int8) + kept[1::2]
        return _survivor_edges(table, weights, np.flatnonzero(votes >= self.required_votes))


class ReciprocalCNP(CNP):
    """CNP requiring both endpoints to retain the edge."""

    name = "ReciprocalCNP"
    required_votes = 2


#: registry used by experiment sweeps
PRUNERS: dict[str, type[PruningScheme]] = {
    cls.name: cls for cls in (WEP, CEP, WNP, CNP, ReciprocalWNP, ReciprocalCNP)
}


def make_pruner(name: str) -> PruningScheme:
    """Instantiate a pruning scheme by table name (e.g. ``"WNP"``).

    Soft-deprecated shim: ``repro.api.registry.create("pruner", name)``
    is the registry-backed path with parameter validation; this helper
    remains for the callers wired before the registry existed.

    Raises:
        KeyError: for unknown scheme names.
    """
    for key, cls in PRUNERS.items():
        if key.lower() == name.lower():
            return cls()
    raise KeyError(f"unknown pruning scheme {name!r}; choose from {sorted(PRUNERS)}")
