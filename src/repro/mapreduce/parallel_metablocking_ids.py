"""MapReduce meta-blocking, after Efthymiou et al. (IEEE Big Data 2015) [4].

The paper parallelizes meta-blocking with two families of strategies:
**edge-centric** — materialize the blocking graph's edges in the shuffle
(map over blocks emitting one record per implied comparison with that
block's evidence contribution, reduce into the per-pair statistics every
weighting scheme needs; WEP/CEP then run on the aggregated edge list) —
and **entity-centric** — route each entity's complete neighbourhood to
one reducer, apply the node-local decision (WNP's neighbourhood mean or
CNP's top-k) there, and merge the retention votes with the
union/reciprocal semantics.  The engine metrics expose their very
different shuffle volumes — the trade-off the paper's evaluation (E8)
measures.

A driver call is **two jobs** — pair statistics, then pruning — over
dense int ids on one :class:`~repro.mapreduce.shm.SharedBlockStore`,
carried end to end by the zero-copy plane of :mod:`repro.mapreduce.shm`:

* the driver publishes the collection's CSR id views and, after
  weighing, the edge table's columns **once** into shared segments — map
  tasks receive only ``(start, stop, arena)`` plus the published
  :class:`~repro.mapreduce.shm.ArrayRef` descriptors, never pickled
  arrays;
* statistics mappers expand their block range straight from the attached
  CSR, pack every pair into a single ``a << 32 | b`` int64 key, and
  gather the routed columns into their task arena, so the shuffle moves
  :class:`~repro.mapreduce.records.DescriptorBatch` descriptors through
  the queues instead of materialized batches;
* pruning mappers ship **row indices** of the published edge table and
  nothing else — 8 bytes per directed entry for WNP/CNP: the reducer
  reads node, weight and neighbour rank back from the table it already
  has attached — and reducers return surviving rows (WEP/CEP) or
  retention votes (WNP/CNP), which the driver folds with one
  ``bincount``;
* no URI is resolved before the survivors are known: the pair table is
  columns only, and the sequential pruners' own tail
  (:meth:`~repro.metablocking.graph.PairTable.ranked`) builds the edge
  objects of the surviving rows.

**Bit-identity contract.**  Every result — pair statistics, weights,
surviving edges — is bit-identical to the sequential
:class:`~repro.metablocking.graph.BlockingGraph`, for any worker count
and either executor.  Floating-point addition is not associative, so
this needs care at two points:

* **ARCS sums** — every comparison cell ships with its global cell
  index; the reducer puts its cells back in that order and runs the
  sequential graph's own fold
  (:func:`~repro.metablocking.graph.fold_cells`), reproducing the
  sequential enumeration's value sequence exactly;
* **global/neighbourhood means** — the WEP threshold is folded
  driver-side in pair-table row order (first-seen order, recovered from
  the shuffled statistics via the carried first-cell indices), and the
  entity-centric reducers fold each node's weights in the interleaved
  directed-edge order the sequential pruners use.

Everything a worker touches is a module-level function over arrays and
descriptors, so the multiprocessing executor ships tasks by pickle with
no fork inheritance tricks; segment lifecycle is the driver's
responsibility — one store per call, created before the first phase,
guaranteed ``destroy()`` on every exit (also registered with the engine
as a safety net), so crashes and re-driven phases leak nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from repro.blocking.block import BlockCollection
from repro.mapreduce.engine import ArrayMapReduceJob, JobMetrics, MapReduceEngine
from repro.mapreduce.records import DescriptorBatch, concat_batches, partition_batch_into
from repro.mapreduce.shm import (
    ArenaWriter,
    SharedBlockStore,
    arena_capacity,
    attach_array,
)
from repro.metablocking.graph import (
    PairTable,
    WeightedEdge,
    expand_comparison_cells,
    finish_pair_table,
    fold_cells,
    pack_pair_arrays,
)
from repro.metablocking.pruning import (
    CEP,
    CNP,
    PruningScheme,
    WEP,
    WNP,
    retention_votes,
    voted_rows,
)
from repro.metablocking.weighting import WeightingScheme, weight_pair_table


# ---------------------------------------------------------------------------
# Input splits: contiguous ranges over the published arrays
# ---------------------------------------------------------------------------


#: the :class:`~repro.blocking.block.BlockIdArrays` columns that
#: :func:`expand_comparison_cells` reads, in publication order
_CSR_FIELDS = ("cardinality", "offsets1", "offsets2_abs", "bipartite", "sides")


def _attach_csr(refs: tuple) -> SimpleNamespace:
    """The published CSR — the full collection, zero-copy — in a worker;
    each map task works its ``[start, stop)`` block range against it."""
    return SimpleNamespace(
        **{name: attach_array(ref) for name, ref in zip(_CSR_FIELDS, refs)}
    )


def _block_ranges(csr, workers: int) -> list[tuple[int, int, int]]:
    """Contiguous ``(start, stop, cells)`` splits, balanced by cell count.

    Token frequencies are Zipfian, so splitting by block *count* leaves
    one mapper holding the stop-word blocks; splitting on the cumulative
    cardinality curve keeps map tasks within one cell-count of even.
    """
    count = len(csr.cardinality)
    if count == 0:
        return []
    cumulative = np.cumsum(csr.cardinality)
    total = int(cumulative[-1])
    targets = [(total * (i + 1)) // workers for i in range(workers)]
    boundaries = np.searchsorted(cumulative, targets, side="left") + 1
    ranges: list[tuple[int, int, int]] = []
    start = 0
    for boundary in boundaries.tolist():
        stop = min(max(boundary, start), count)
        if stop == start:
            continue
        cells_before = int(cumulative[start - 1]) if start else 0
        ranges.append((start, stop, int(cumulative[stop - 1]) - cells_before))
        start = stop
    return ranges


def _row_ranges(rows: int, workers: int) -> list[tuple[int, int]]:
    """Even contiguous ``(start, stop)`` splits of an edge-table row span."""
    size, remainder = divmod(rows, workers)
    ranges: list[tuple[int, int]] = []
    start = 0
    for worker in range(workers):
        length = size + (1 if worker < remainder else 0)
        if length == 0:
            continue
        ranges.append((start, start + length))
        start += length
    return ranges


# ---------------------------------------------------------------------------
# Job 1 — pair statistics (edge-centric aggregation)
# ---------------------------------------------------------------------------

#: per-cell shuffle row: packed key + global cell index + contribution
_CELL_ROW_BYTES = 24
#: pair-statistics reduce row: key + common + arcs + first-cell
_STATS_ROW_BYTES = 32


def _map_pair_cells(chunk, partitions: int, params: dict):
    """Expand one block range's cells from the attached CSR; route by pair.

    Batch columns: packed key, global cell index, per-cell contribution
    (``1/‖b‖``).  No map-side fold: each ``(pair, block)`` incidence is
    a single cell, so shipping cells raw is smaller than shipping folded
    incidences with their provenance — and the reducer's sort restores
    the exact sequential enumeration order from the cell index alone.
    """
    start, stop, arena = chunk
    csr = _attach_csr(params["csr"])
    left, right, contribution, cell_index = expand_comparison_cells(
        csr, start, stop, with_provenance=True
    )
    rows = len(left)
    if not rows:
        return [], 0
    keys = pack_pair_arrays(left, right)
    writer = ArenaWriter(arena)
    routed = partition_batch_into(
        (keys, cell_index, contribution), keys, partitions, writer
    )
    return routed, rows


def _reduce_pair_stats(batches: list[DescriptorBatch], params: dict, arena):
    """Fold one partition's cells into exact per-pair statistics.

    Cells arrive in shuffle order; put back in global cell-index order,
    they are the sequential enumeration restricted to this partition's
    pairs, so the shared :func:`~repro.metablocking.graph.fold_cells`
    accumulates every pair's ARCS terms in the sequential order —
    bit-identical floats.  Output columns (key, common, arcs,
    first-cell) go into the partition's reduce arena; only descriptors
    travel back to the driver.
    """
    if not batches:
        return None, 0
    keys, cell_index, contribution = concat_batches(batches, 3)
    order = np.argsort(cell_index)
    keys, cell_index = keys[order], cell_index[order]
    first, common, arcs = fold_cells(keys, contribution[order])
    writer = ArenaWriter(arena)
    refs = (
        writer.write(keys[first]),
        writer.write(common),
        writer.write(arcs),
        writer.write(cell_index[first]),
    )
    return DescriptorBatch(refs, len(first)), len(first)


@contextmanager
def _call_store(engine: MapReduceEngine):
    """The one shared store of a driver call, destroyed on every exit."""
    store = SharedBlockStore()
    engine.adopt_store(store)
    try:
        yield store
    finally:
        engine.release_store(store)


def _pair_statistics(
    engine: MapReduceEngine, blocks: BlockCollection, store: SharedBlockStore
) -> tuple[PairTable, JobMetrics]:
    csr = blocks.id_arrays()
    workers = engine.workers
    total_cells = int(csr.cardinality.sum())
    csr_refs = store.publish_arrays(*(getattr(csr, name) for name in _CSR_FIELDS))
    chunks = [
        (
            start,
            stop,
            store.allocate(arena_capacity(cells, _CELL_ROW_BYTES, workers, 3)),
        )
        for start, stop, cells in _block_ranges(csr, workers)
    ]
    job = ArrayMapReduceJob(
        name="pair-statistics-ids",
        mapper=_map_pair_cells,
        reducer=_reduce_pair_stats,
        params={"csr": csr_refs},
        reduce_extras=[
            store.allocate(arena_capacity(total_cells, _STATS_ROW_BYTES, 1, 4))
            for _ in range(workers)
        ],
    )
    outputs, metrics = engine.run_array(job, chunks)
    # Views die with this frame; the concatenated copies outlive the store.
    parts = [[store.view(ref) for ref in out.refs] for out in outputs if out]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        parts = [[empty, empty, empty.astype(np.float64), empty]]
    keys, common, arcs, first_seen = (np.concatenate(column) for column in zip(*parts))
    return finish_pair_table(blocks, keys, common, arcs, first_seen), metrics


def parallel_pair_table(
    engine: MapReduceEngine, blocks: BlockCollection
) -> tuple[PairTable, JobMetrics]:
    """Edge-centric MapReduce aggregation into a batch-identical pair table.

    The returned table — row order included — is bit-identical to the
    sequential :func:`~repro.metablocking.graph.pair_table_for` result:
    reducers carry each pair's first global cell index, so the driver can
    restore first-seen enumeration order after the shuffle scattered it.
    """
    with _call_store(engine) as store:
        return _pair_statistics(engine, blocks, store)


# ---------------------------------------------------------------------------
# Job 2 — pruning: surviving rows of the published edge table
# ---------------------------------------------------------------------------


def _map_weight_filter(chunk, partitions: int, params: dict):
    """WEP map: keep rows at or above the global mean threshold."""
    start, stop, arena = chunk
    (weights,) = (attach_array(ref) for ref in params["edges"])
    rows = np.flatnonzero(weights[start:stop] >= params["threshold"]) + start
    routed = partition_batch_into((rows,), rows, partitions, ArenaWriter(arena))
    return routed, stop - start


def _reduce_rows(batches: list[DescriptorBatch], params: dict):
    (rows,) = concat_batches(batches, 1)
    return rows, len(rows)


def _map_topk(chunk, partitions: int, params: dict):
    """CEP map: local top-K pre-selection (the distributed top-K trick)."""
    start, stop, arena = chunk
    weights, rank_a, rank_b = (
        attach_array(ref)[start:stop] for ref in params["edges"]
    )
    top = np.lexsort((rank_b, rank_a, -weights))[: params["k"]]
    columns = (top + start, weights[top], rank_a[top], rank_b[top])
    # One logical reduce group: every candidate routes on the same key.
    route = np.zeros(len(top), dtype=np.int64)
    routed = partition_batch_into(columns, route, partitions, ArenaWriter(arena))
    return routed, stop - start


def _reduce_topk(batches: list[DescriptorBatch], params: dict):
    rows, weights, rank_a, rank_b = concat_batches(batches, 4)
    top = np.lexsort((rank_b, rank_a, -weights.astype(np.float64)))[: params["k"]]
    return rows[top], len(top)


def _map_route_edges(chunk, partitions: int, params: dict):
    """Route every edge row to both endpoints (entity-centric map).

    Only the interleaved directed index crosses the shuffle (``2·row``
    for the left endpoint, ``2·row + 1`` for the right — the sequential
    pruners' fold order), 8 bytes per entry: reducers read node, weight
    and neighbour rank back from the published edge table.
    """
    start, stop, arena = chunk
    ids_a, ids_b = (attach_array(ref)[start:stop] for ref in params["edges"][:2])
    row = np.arange(start, stop, dtype=np.int64)
    directed = np.concatenate([2 * row, 2 * row + 1])
    node = np.concatenate([ids_a, ids_b])
    routed = partition_batch_into((directed,), node, partitions, ArenaWriter(arena))
    return routed, stop - start


def _reduce_node_retention(batches: list[DescriptorBatch], params: dict):
    """Apply the node-local retention rule to each complete neighbourhood.

    The sequential pruners' own kernel over this partition's nodes: one
    retention vote (the edge row index) per kept directed entry.
    """
    (directed,) = concat_batches(batches, 1)
    edges = (attach_array(ref) for ref in params["edges"])
    votes = retention_votes(*edges, np.sort(directed), params["k"])
    return votes, len(votes)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _pruning_job(blocks: BlockCollection, table: PairTable, weights, pruner):
    """*pruner*'s job, the edge-table columns it reads (published as its
    ``params["edges"]``) and its shuffle bytes per edge row."""
    if isinstance(pruner, (WNP, CNP)):
        k = pruner.node_budget_from_blocks(blocks) if isinstance(pruner, CNP) else None
        job = ArrayMapReduceJob(
            "node-retention-ids", _map_route_edges, _reduce_node_retention, {"k": k}
        )
        return job, (table.ids_a, table.ids_b, weights, table.uri_rank), 16
    if isinstance(pruner, WEP):
        params = {"threshold": pruner.threshold(weights)}
        job = ArrayMapReduceJob(
            "wep-pruning-ids", _map_weight_filter, _reduce_rows, params
        )
        return job, (weights,), 8
    if isinstance(pruner, CEP):
        rank = table.uri_rank
        params = {"k": pruner.budget_from_blocks(blocks)}
        job = ArrayMapReduceJob("cep-pruning-ids", _map_topk, _reduce_topk, params)
        return job, (weights, rank[table.ids_a], rank[table.ids_b]), 32
    raise TypeError(
        f"{pruner.name} has no parallel formulation (expected WEP/CEP/WNP/CNP)"
    )


def parallel_metablocking_ids(
    engine: MapReduceEngine,
    blocks: BlockCollection,
    scheme: WeightingScheme,
    pruner: PruningScheme,
) -> tuple[list[WeightedEdge], list[JobMetrics]]:
    """Parallel meta-blocking over int ids: statistics, weighting, pruning.

    Two jobs on one shared store.  Job 1 aggregates the pair table
    edge-centrically; the driver weighs it through the shared
    :func:`~repro.metablocking.weighting.weight_pair_table` path and
    publishes the weighted edge table; job 2 selects the surviving rows —
    WEP/CEP as edge-centric filters, WNP/CNP (and their reciprocal
    variants) as entity-centric retention whose votes the driver folds
    with one ``bincount``.  URIs are resolved for the survivors alone, by
    the sequential pruners' own tail
    (:meth:`~repro.metablocking.graph.PairTable.ranked`), so results are
    bit-identical to ``pruner.prune(BlockingGraph(blocks, scheme))`` for
    every worker count and executor.

    Returns:
        ``(surviving_edges, [statistics_metrics, pruning_metrics])`` with
        edges in the pruner's deterministic (-weight, pair) order.

    Raises:
        TypeError: for pruning schemes with neither global nor
            node-centric parallel semantics.
    """
    workers = engine.workers
    with _call_store(engine) as store:
        table, stats_metrics = _pair_statistics(engine, blocks, store)
        weights = weight_pair_table(scheme, blocks, table)
        job, columns, row_bytes = _pruning_job(blocks, table, weights, pruner)
        job.params["edges"] = store.publish_arrays(*columns)
        chunks = [  # 4 columns (CEP's) bound every job's alignment pads
            (
                start,
                stop,
                store.allocate(arena_capacity(stop - start, row_bytes, workers, 4)),
            )
            for start, stop in _row_ranges(len(weights), workers)
        ]
        outputs, prune_metrics = engine.run_array(job, chunks)
    rows = np.concatenate(outputs)
    if isinstance(pruner, (WNP, CNP)):
        rows = voted_rows(rows, len(weights), pruner.required_votes)
    return table.ranked(weights, rows), [stats_metrics, prune_metrics]
