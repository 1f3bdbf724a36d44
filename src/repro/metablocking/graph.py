"""The blocking graph.

Nodes are description URIs; an (undirected) edge connects every pair
co-occurring in at least one block; the edge weight is computed by a
:class:`~repro.metablocking.weighting.WeightingScheme` from the pair's
co-occurrence statistics.  The graph is materialized lazily from a
:class:`~repro.blocking.block.BlockCollection`.

The graph is columns end to end: all implied comparisons are expanded
from the collection's CSR id views into flat arrays, each pair is packed
into a single ``a << 32 | b`` integer, and the ``(common, arcs)``
statistics are aggregated by :func:`fold_cells` — one sort plus a
bincount, the group-by the MapReduce reducers run too — into a
scheme-independent :class:`PairTable` cached on the collection.  Weights
are one float64 array over its rows, pruning selects row indices, and
URIs are resolved for the survivors alone (:meth:`PairTable.ranked`):
no string, tuple or dict entry exists per comparison.
:meth:`BlockingGraph.materialize` weighs the table once and returns the
weight column.

Blocks and intra-block pairs are visited in the order of the hand-written
string-tuple loop kept as the test oracle
(``tests/metablocking/string_graph_oracle.py``), so the floating-point
ARCS accumulations — and therefore every derived weight — are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from repro.blocking.block import BlockCollection, BlockIdArrays
from repro.metablocking.weighting import WeightingScheme, weight_pair_table
from repro.model.interner import PAIR_MASK, PAIR_SHIFT, pack_pair


def expand_comparison_cells(
    csr: BlockIdArrays,
    start: int = 0,
    stop: int | None = None,
    with_provenance: bool = False,
):
    """Implied comparisons of blocks ``[start, stop)`` as flat arrays.

    Fully vectorized — no Python-level loop over blocks: every block of
    ``n`` side-1 members spans a rectangular grid of ``n x width`` cells
    (``width`` being the side-2 size for bipartite blocks, ``n`` itself
    for dirty blocks), and a single div/mod over the global cell index
    recovers each cell's row and column.  Dirty blocks then keep only the
    triangular ``row < col`` cells and bipartite blocks drop self-pairs.
    The surviving cells appear in exactly the reference enumeration order
    (blocks in insertion order, nested pair order inside each block), so
    downstream float accumulations stay bit-identical to the string oracle.

    Returns ``(left, right, contribution)`` arrays, plus — when
    *with_provenance* is set — each kept cell's global index (its
    position in the whole collection's comparison enumeration), which is
    what lets the MapReduce formulation reassemble the exact sequential
    fold order across map-task boundaries.
    """
    np = _np
    if stop is None:
        stop = len(csr.cardinality)
    card = csr.cardinality[start:stop]
    active = np.flatnonzero(card > 0) + start
    off1 = csr.offsets1[active]
    n1 = csr.offsets1[active + 1] - off1
    off2 = csr.offsets2_abs[active]
    bipartite = csr.bipartite[active]
    width = np.where(bipartite, csr.offsets2_abs[active + 1] - off2, n1)
    right_off = np.where(bipartite, off2, off1)
    cells = n1 * width
    cell_offsets = np.zeros(len(active) + 1, dtype=np.int64)
    np.cumsum(cells, out=cell_offsets[1:])
    total = int(cell_offsets[-1])
    cell_block = np.repeat(np.arange(len(active)), cells)
    within = np.arange(total, dtype=np.int64) - cell_offsets[cell_block]
    row, col = np.divmod(within, width[cell_block])
    left = csr.sides[off1[cell_block] + row]
    right = csr.sides[right_off[cell_block] + col]
    keep = np.where(bipartite[cell_block], left != right, row < col)
    contribution = np.repeat(1.0 / csr.cardinality[active], cells)
    if not with_provenance:
        return left[keep], right[keep], contribution[keep]
    # Kept cells per block == block cardinality, so the range's first kept
    # cell sits at the cumulative cardinality of the preceding blocks.
    cell_base = int(csr.cardinality[:start].sum())
    cell_index = cell_base + np.arange(int(keep.sum()), dtype=np.int64)
    return left[keep], right[keep], contribution[keep], cell_index


class PairTable:
    """Scheme-independent pair statistics of a block collection.

    One row per distinct comparison, in first-occurrence order (the
    reference dict's insertion order), as columns only: the endpoint id
    arrays (``ids_a`` holding the lexicographically smaller URI), the
    common-block counts and the ARCS sums, plus ``uri_rank`` (entity id →
    rank of its URI in lexicographic order, so ties break "by URI" with
    integer compares) and ``uris`` (the interner's id → URI table as an
    object array).  Weighting and pruning are vectorized functions over
    these columns; :meth:`ranked` resolves URIs for surviving rows only.
    """

    __slots__ = ("ids_a", "ids_b", "common", "arcs", "uri_rank", "uris", "_pairs", "_index")

    def __init__(self, ids_a, ids_b, common, arcs, uri_rank, uris) -> None:
        self.ids_a = ids_a
        self.ids_b = ids_b
        self.common = common
        self.arcs = arcs
        self.uri_rank = uri_rank
        self.uris = uris
        self._pairs = None
        self._index = None

    def __len__(self) -> int:
        return len(self.common)

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """The canonical string pair of every row, derived on first access.

        For string-API plugin schemes, tests and ad-hoc inspection: no
        built-in scheme, pruner, backend or evaluation reads it.
        """
        if self._pairs is None:
            uris = self.uris
            self._pairs = list(zip(uris[self.ids_a].tolist(), uris[self.ids_b].tolist()))
        return self._pairs

    def rows_of(self, interner, pairs):
        """Row of each canonical URI pair in *pairs*; ``-1`` where absent.

        Membership by packed id key against a sorted copy of the key
        column (built on first use) — no string is hashed per table row.
        """
        np = _np
        if self._index is None:
            keys = pack_pair_arrays(self.ids_a, self.ids_b)
            order = np.argsort(keys)
            self._index = keys[order], order
        sorted_keys, order = self._index
        id_of = interner.get
        # An unknown URI has id -1, which packs to a negative key no row holds.
        wanted = np.fromiter(
            (pack_pair(id_of(a), id_of(b)) if a < b else -1 for a, b in pairs),
            dtype=np.int64,
        )
        if not len(sorted_keys):
            return np.full(len(wanted), -1)
        at = np.minimum(np.searchsorted(sorted_keys, wanted), len(sorted_keys) - 1)
        return np.where(sorted_keys[at] == wanted, order[at], -1)

    def edges(self, weights, rows) -> list[WeightedEdge]:
        """*rows* as :class:`WeightedEdge` objects, in the order given."""
        uris = self.uris
        return list(
            map(
                WeightedEdge,
                uris[self.ids_a[rows]].tolist(),
                uris[self.ids_b[rows]].tolist(),
                weights[rows].tolist(),
            )
        )

    def ranked(self, weights, rows, limit: int | None = None) -> list[WeightedEdge]:
        """The survivor tail every pruner on every backend ends in.

        Ranks *rows* by ``(-weight, URI rank of a, URI rank of b)`` — the
        deterministic (weight desc, pair asc) order — and builds edges
        for the first *limit* of them (all by default): the one place a
        URI is resolved, and only for rows that survived.
        """
        rank = self.uri_rank
        order = _np.lexsort(
            (rank[self.ids_b[rows]], rank[self.ids_a[rows]], -weights[rows])
        )
        return self.edges(weights, rows[order[:limit]])


def pack_pair_arrays(left, right):
    """Vectorized canonical ``min << 32 | max`` packing of id pair arrays."""
    return _np.where(
        left < right,
        (left << PAIR_SHIFT) | right,
        (right << PAIR_SHIFT) | left,
    )


def fold_cells(keys, contribution):
    """Fold comparison cells, given in enumeration order, per packed pair.

    The one ``(common, arcs)`` group-by of every backend: a stable sort
    on the packed key finds each pair's group, ``common`` is the group's
    size and ``arcs`` a ``bincount`` of the contributions in input order
    — the running sum of the string oracle, bit for bit
    (``np.add.reduceat`` would be faster but sums pairwise, which is
    not).  Returns ``(first, common, arcs)``, one row per distinct key in
    ascending key order, ``first`` being the input row of each group's
    first cell.
    """
    np = _np
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    group_of_sorted = np.cumsum(new_group) - 1
    common = np.diff(np.append(starts, len(sorted_keys)))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = group_of_sorted
    arcs = np.bincount(inverse, weights=contribution, minlength=len(starts))
    return order[starts], common, arcs


def finish_pair_table(
    blocks: BlockCollection, keys, common, arcs, first_seen
) -> PairTable:
    """Assemble a :class:`PairTable` from aggregated per-pair statistics.

    Rows are put in first-seen enumeration order (the reference dict's
    insertion order) by *first_seen*, each pair's first cell position;
    every packed key is then oriented in canonical string order via
    integer ranks — one O(n log n) sort over the n entities instead of a
    string compare per edge.  Shared by the sequential graph and the
    MapReduce jobs, which reassemble the same inputs from reducer output.
    """
    np = _np
    seen = np.argsort(first_seen)
    keys, common, arcs = keys[seen], common[seen], arcs[seen]
    uris = np.array(blocks.interner().uri_table(), dtype=object)
    rank = np.empty(len(uris), dtype=np.int64)
    rank[np.argsort(uris)] = np.arange(len(uris))
    ids_a = keys >> PAIR_SHIFT
    ids_b = keys & PAIR_MASK
    swap = rank[ids_a] > rank[ids_b]
    if swap.any():
        ids_a, ids_b = np.where(swap, ids_b, ids_a), np.where(swap, ids_a, ids_b)
    return PairTable(ids_a, ids_b, common, arcs, rank, uris)


def _build_pair_table(blocks: BlockCollection) -> PairTable:
    left, right, contribution = expand_comparison_cells(blocks.id_arrays())
    keys = pack_pair_arrays(left, right)
    first, common, arcs = fold_cells(keys, contribution)
    return finish_pair_table(blocks, keys[first], common, arcs, first)


def pair_table_for(blocks: BlockCollection) -> PairTable:
    """The (cached) pair table of *blocks*.

    Cached in ``blocks.derived_cache``: like the entity index, the table
    is a function of the block structure alone and is shared by every
    graph/scheme built over the collection until the blocks mutate.
    """
    table = blocks.derived_cache.get("metablocking.pair_table")
    if table is None:
        table = _build_pair_table(blocks)
        blocks.derived_cache["metablocking.pair_table"] = table
    return table


@dataclass(frozen=True)
class WeightedEdge:
    """A weighted comparison: canonical pair plus its evidence weight."""

    left: str
    right: str
    weight: float

    @property
    def pair(self) -> tuple[str, str]:
        """Canonical (sorted) URI pair."""
        return (self.left, self.right)


def mean_weight(weights) -> float:
    """Mean of a weight column, folded the way the reference folds it.

    A left-to-right Python ``sum`` over row order, like the string
    oracle's ``sum(dict.values())``: ``np.mean`` sums pairwise and can
    differ in the last bit, which would move WEP's threshold.
    """
    return sum(weights.tolist()) / len(weights) if len(weights) else 0.0


class BlockingGraph:
    """Weighted co-occurrence graph over a block collection.

    Args:
        blocks: the (post-processed) block collection.
        scheme: edge-weighting scheme; see
            :mod:`repro.metablocking.weighting`.

    The graph computes, per distinct pair:

    * the number of common blocks (for CBS/ECBS/JS/EJS),
    * the sum over common blocks of ``1 / cardinality(block)`` (for ARCS).
    """

    def __init__(self, blocks: BlockCollection, scheme: WeightingScheme) -> None:
        self.blocks = blocks
        self.scheme = scheme
        self._table: PairTable | None = None
        self._weights = None

    # -- construction ------------------------------------------------------

    def materialize(self):
        """Weigh the pair table (once); return the float64 weight of every
        row of :meth:`pair_table`, so ``len`` is the number of distinct
        comparisons.  No string exists per row (:meth:`PairTable.ranked`
        resolves the survivors' URIs)."""
        if self._weights is None:
            self._table = pair_table_for(self.blocks)
            self._weights = weight_pair_table(self.scheme, self.blocks, self._table)
        return self._weights

    @property
    def weights(self):
        """Per-row weights (float64), aligned with :meth:`pair_table`."""
        return self.materialize()

    def pair_table(self) -> PairTable:
        """The pair table whose rows the weights (and pruners) run over."""
        self.materialize()
        return self._table

    def top_edges(self, count: int) -> list[WeightedEdge]:
        """The *count* highest-weight edges (weight desc, pair asc).

        Only the rows at or above the *count*-th largest weight (ties
        included) are ranked, not the whole edge set.
        """
        weights = self.weights
        rows = _np.arange(len(weights))
        if 0 < count < len(weights):
            rows = _np.flatnonzero(weights >= _np.partition(weights, -count)[-count])
        return self.pair_table().ranked(weights, rows, count)
