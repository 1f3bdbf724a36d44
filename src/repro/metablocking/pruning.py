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

Every scheme is a vectorized function from the graph's columns (pair
table + weight array) to the surviving row indices, followed by the one
shared tail, :meth:`~repro.metablocking.graph.PairTable.ranked`, which
puts the survivors in deterministic weight-then-pair order and builds
edge objects for them alone.  The string-dict loops they replaced are the
test oracle (``tests/metablocking/string_graph_oracle.py``) they stay
bit-identical to.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as _np

from repro.metablocking.graph import BlockingGraph, WeightedEdge, mean_weight


def node_budget(total_assignments: int, entities: int) -> int:
    """CNP's per-node ``k``: average placements per entity, rounded up,
    minus one, floored at 1.

    The one derivation of ``k``: batch CNP reads the counts from the
    block collection, a stream query from its pair table's maintained
    aggregates.
    """
    return max(1, math.ceil(total_assignments / max(entities, 1)) - 1)


def retention_votes(ids_a, ids_b, weights, uri_rank, directed, k: int | None = None):
    """The node-local retention rule (WNP's mean, CNP's top-*k*) as votes.

    Entry ``2·row`` of the directed layout is edge *row* seen from its
    left endpoint, ``2·row + 1`` from its right — the order the
    adjacency-dict construction appends neighbours in.  *directed* must
    be ascending and hold every entry of each node it names: the whole
    range sequentially, one hash partition's nodes in a MapReduce
    reducer.  Returns the row of every entry its node keeps, one vote
    each; :func:`voted_rows` merges them.
    """
    np = _np
    if not len(directed):
        return directed
    row = directed >> 1
    right = (directed & 1).astype(bool)
    node = np.where(right, ids_b[row], ids_a[row])
    weight = weights[row]
    if k is None:
        # bincount folds each node's weights in directed order, so sums
        # (hence thresholds) are bit-identical to the adjacency lists'.
        with np.errstate(invalid="ignore"):  # 0/0 at ids *directed* never names
            means = np.bincount(node, weights=weight) / np.bincount(node)
        return row[weight >= means[node]]
    # Sorting by (node, -weight, neighbour URI rank) makes each node's
    # top-k a contiguous prefix of its group — the order a per-node
    # ``(-weight, URI)`` selection uses, integer ranks breaking the ties.
    neighbor_rank = uri_rank[np.where(right, ids_a[row], ids_b[row])]
    order = np.lexsort((neighbor_rank, -weight, node))
    sorted_nodes = node[order]
    boundary = np.concatenate(([True], sorted_nodes[1:] != sorted_nodes[:-1]))
    group_start = np.flatnonzero(boundary)[np.cumsum(boundary) - 1]
    return row[order[np.arange(len(order)) - group_start < k]]


def voted_rows(votes, rows: int, required_votes: int):
    """Rows of a *rows*-row table with at least *required_votes* votes."""
    return _np.flatnonzero(_np.bincount(votes, minlength=rows) >= required_votes)


def _prune_by_votes(graph: BlockingGraph, required_votes: int, k: int | None):
    table, weights = graph.pair_table(), graph.weights
    votes = retention_votes(
        table.ids_a, table.ids_b, weights, table.uri_rank,
        _np.arange(2 * len(weights)), k,
    )
    return table.ranked(weights, voted_rows(votes, len(weights), required_votes))


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

    def threshold(self, weights) -> float:
        """The cut for a weight column (shared with the MapReduce driver)."""
        return mean_weight(weights) * self.threshold_factor

    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        weights = graph.weights
        rows = _np.flatnonzero(weights >= self.threshold(weights))
        return graph.pair_table().ranked(weights, rows)


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
        return _prune_by_votes(graph, self.required_votes, None)


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
        return node_budget(blocks.total_assignments(), blocks.entity_count())

    def prune(self, graph: BlockingGraph) -> list[WeightedEdge]:
        return _prune_by_votes(graph, self.required_votes, self.node_budget(graph))


class ReciprocalCNP(CNP):
    """CNP requiring both endpoints to retain the edge."""

    name = "ReciprocalCNP"
    required_votes = 2


#: name → class table the component registry (``repro.api``) registers
PRUNERS: dict[str, type[PruningScheme]] = {
    cls.name: cls for cls in (WEP, CEP, WNP, CNP, ReciprocalWNP, ReciprocalCNP)
}
