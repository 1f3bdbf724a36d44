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

Both run here over dense int ids, carried end to end by the zero-copy
plane of :mod:`repro.mapreduce.shm`:

* the driver publishes the collection's CSR id views (and, for pruning,
  the weighted edge table) **once** into shared segments — map tasks
  receive only ``(start, stop, arena)`` plus the published
  :class:`~repro.mapreduce.shm.ArrayRef` descriptors, never pickled
  arrays;
* mappers expand their block range straight from the attached CSR,
  pack every pair into a single ``a << 32 | b`` int64 key, and gather
  the routed columns into their task arena, so the shuffle moves
  :class:`~repro.mapreduce.records.DescriptorBatch` descriptors through
  the queues instead of materialized batches;
* reducers attach their partition's columns zero-copy and write bulky
  output (pair statistics, retention votes) into per-partition reduce
  arenas; only scalar-sized results are pickled back.

**Bit-identity contract.**  Every result — pair statistics, weights,
surviving edges — is bit-identical to the sequential
:class:`~repro.metablocking.graph.BlockingGraph`, for any worker count
and either executor.  Floating-point addition is not associative, so
this needs care at two points:

* **ARCS sums** — every comparison cell ships with its global cell
  index; the reducer orders each pair's cells by that index
  (``lexsort`` keyed on pair then cell) before the sequential
  ``bincount`` fold, reproducing the sequential enumeration's value
  sequence exactly;
* **global/neighbourhood means** — the WEP threshold is folded
  driver-side in pair-table row order (first-seen order, recovered from
  the shuffled statistics via the carried first-cell indices), and the
  entity-centric reducers fold each node's weights in the interleaved
  directed-edge order the sequential pruners use.

Everything a worker touches is a module-level function over arrays and
descriptors, so the multiprocessing executor ships tasks by pickle with
no fork inheritance tricks; segment lifecycle is the drivers'
responsibility — create and publish before the phase, guaranteed
``destroy()`` in a ``finally`` (also registered with the engine as a
safety net), so crashes and re-driven phases leak nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    pack_pair_arrays,
)
from repro.metablocking.pruning import CEP, CNP, PruningScheme, WEP, WNP
from repro.metablocking.weighting import WeightingScheme, weight_pair_table


# ---------------------------------------------------------------------------
# Input splits: contiguous ranges over the published arrays
# ---------------------------------------------------------------------------


@dataclass
class _AttachedCSR:
    """The published CSR arrays, re-attached in a worker.

    Shaped exactly like :class:`~repro.blocking.block.BlockIdArrays` as
    far as :func:`expand_comparison_cells` is concerned — the full
    collection, zero-copy; each map task works its ``[start, stop)``
    block range against it.
    """

    cardinality: "np.ndarray"
    offsets1: "np.ndarray"
    offsets2_abs: "np.ndarray"
    bipartite: "np.ndarray"
    sides: "np.ndarray"


def _attach_csr(refs: tuple) -> _AttachedCSR:
    return _AttachedCSR(*(attach_array(ref) for ref in refs))


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
    left, right, contribution, _ordinals, cell_index = expand_comparison_cells(
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

    Cells are sorted by (pair, global cell index), so the bincount
    accumulates every pair's ARCS terms in the sequential enumeration
    order — bit-identical floats.  Output columns (key, common, arcs,
    first-cell) go into the partition's reduce arena; only descriptors
    travel back to the driver.
    """
    if not batches:
        return None, 0
    keys, cell_index, contribution = concat_batches(batches, 3)
    order = np.lexsort((cell_index, keys))
    keys_s = keys[order]
    contrib_s = contribution[order]
    new_pair = np.concatenate(([True], keys_s[1:] != keys_s[:-1]))
    group = np.cumsum(new_pair) - 1
    groups = int(group[-1]) + 1
    starts = np.flatnonzero(new_pair)
    arcs = np.bincount(group, weights=contrib_s, minlength=groups)
    common = np.diff(np.append(starts, len(keys_s))).astype(np.int64)
    writer = ArenaWriter(arena)
    refs = (
        writer.write(keys_s[starts]),
        writer.write(common),
        writer.write(arcs),
        writer.write(cell_index[order][starts]),
    )
    return DescriptorBatch(refs, groups), groups


def _empty_pair_table() -> PairTable:
    empty = np.empty(0, dtype=np.int64)
    return PairTable([], empty, empty, empty, np.empty(0, dtype=np.float64), empty)


def parallel_pair_table(
    engine: MapReduceEngine, blocks: BlockCollection
) -> tuple[PairTable, JobMetrics]:
    """Edge-centric MapReduce aggregation into a batch-identical pair table.

    The returned table — row order included — is bit-identical to the
    sequential :func:`~repro.metablocking.graph.pair_table_for` result:
    reducers carry each pair's first global cell index, so the driver can
    restore first-seen enumeration order after the shuffle scattered it.
    """
    csr = blocks.id_arrays()
    ranges = _block_ranges(csr, engine.workers)
    total_cells = int(csr.cardinality.sum()) if len(csr.cardinality) else 0
    if not ranges or not total_cells:
        metrics = JobMetrics(
            job_name="pair-statistics-ids",
            workers=engine.workers,
            executor=engine.executor.name,
        )
        return _empty_pair_table(), metrics

    workers = engine.workers
    store = SharedBlockStore()
    engine.adopt_store(store)
    try:
        csr_refs = store.publish_arrays(
            csr.cardinality, csr.offsets1, csr.offsets2_abs, csr.bipartite, csr.sides
        )
        chunks = [
            (
                start,
                stop,
                store.allocate(arena_capacity(cells, _CELL_ROW_BYTES, workers, 3)),
            )
            for start, stop, cells in ranges
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
        parts = [
            tuple(store.fetch(ref) for ref in out.refs)
            for out in outputs
            if out is not None and len(out)
        ]
    finally:
        engine.release_store(store)
    if not parts:
        return _empty_pair_table(), metrics
    keys = np.concatenate([p[0] for p in parts])
    common = np.concatenate([p[1] for p in parts])
    arcs = np.concatenate([p[2] for p in parts])
    first_seen = np.concatenate([p[3] for p in parts])
    order = np.argsort(first_seen, kind="stable")
    return finish_pair_table(blocks, keys[order], common[order], arcs[order]), metrics


# ---------------------------------------------------------------------------
# Job 2a — global pruning (WEP threshold filter / CEP distributed top-K)
# ---------------------------------------------------------------------------


def _map_weight_filter(chunk, partitions: int, params: dict):
    """WEP map: keep rows at or above the global mean threshold."""
    start, stop, arena = chunk
    keys_all, weights_all = (attach_array(ref) for ref in params["edges"])
    weights = weights_all[start:stop]
    mask = weights >= params["threshold"]
    rows = (np.flatnonzero(mask) + start).astype(np.int64)
    columns = (rows, keys_all[start:stop][mask])
    writer = ArenaWriter(arena)
    return partition_batch_into(columns, columns[1], partitions, writer), stop - start


def _reduce_row_identity(batches: list[DescriptorBatch], params: dict):
    rows, _keys = concat_batches(batches, 2)
    return rows, len(rows)


def _map_topk(chunk, partitions: int, params: dict):
    """CEP map: local top-K pre-selection (the distributed top-K trick)."""
    start, stop, arena = chunk
    weights_all, rank_a_all, rank_b_all = (
        attach_array(ref) for ref in params["edges"]
    )
    weights = weights_all[start:stop]
    rank_a = rank_a_all[start:stop]
    rank_b = rank_b_all[start:stop]
    top = np.lexsort((rank_b, rank_a, -weights))[: params["k"]]
    columns = (
        (top + start).astype(np.int64),
        weights[top],
        rank_a[top],
        rank_b[top],
    )
    writer = ArenaWriter(arena)
    # One logical reduce group: every candidate routes on the same key.
    return (
        partition_batch_into(
            columns, np.zeros(len(top), dtype=np.int64), partitions, writer
        ),
        stop - start,
    )


def _reduce_topk(batches: list[DescriptorBatch], params: dict):
    rows, weights, rank_a, rank_b = concat_batches(batches, 4)
    if not len(rows):
        return np.empty(0, dtype=np.int64), 0
    top = np.lexsort((rank_b, rank_a, -weights.astype(np.float64)))[: params["k"]]
    return rows[top], len(top)


# ---------------------------------------------------------------------------
# Job 2b — entity-centric node retention + vote merge (WNP/CNP)
# ---------------------------------------------------------------------------

#: routed directed-edge row: node + directed index + rank + weight + edge
_EDGE_ROW_BYTES = 40


def _map_route_edges(chunk, partitions: int, params: dict):
    """Route every weighted edge to both endpoints (entity-centric map).

    Batch columns: node id, interleaved directed index (``2·edge`` for
    the left endpoint, ``2·edge + 1`` for the right — the sequential
    pruners' fold order), the *other* endpoint's URI rank, the weight and
    the edge row index.
    """
    start, stop, arena = chunk
    ids_a_all, ids_b_all, rank_a_all, rank_b_all, weights_all = (
        attach_array(ref) for ref in params["edges"]
    )
    ids_a = ids_a_all[start:stop]
    ids_b = ids_b_all[start:stop]
    weights = weights_all[start:stop]
    edge = np.arange(start, stop, dtype=np.int64)
    node = np.concatenate([ids_a, ids_b])
    directed = np.concatenate([2 * edge, 2 * edge + 1])
    neighbor_rank = np.concatenate([rank_b_all[start:stop], rank_a_all[start:stop]])
    weight = np.concatenate([weights, weights])
    edges = np.concatenate([edge, edge])
    columns = (node, directed, neighbor_rank, weight, edges)
    writer = ArenaWriter(arena)
    return partition_batch_into(columns, node, partitions, writer), stop - start


def _reduce_node_retention(batches: list[DescriptorBatch], params: dict, arena):
    """Apply the node-local retention rule to each complete neighbourhood.

    Emits one retention vote (the edge row index) per kept directed
    entry; WNP folds each node's weights in directed order so the mean
    threshold is bit-identical to the sequential vectorized pruner.
    Votes stay in shared memory — the vote-merge job consumes the
    returned descriptors without the driver ever materializing them.
    """
    if not batches:
        return None, 0
    node, directed, neighbor_rank, weight, edges = concat_batches(batches, 5)
    weight = weight.astype(np.float64, copy=False)
    if params["mode"] == "CNP":
        order = np.lexsort((neighbor_rank, -weight, node))
        node_s = node[order]
        boundary = np.concatenate(([True], node_s[1:] != node_s[:-1]))
        group_start = np.flatnonzero(boundary)
        position = (
            np.arange(len(node_s)) - group_start[np.cumsum(boundary) - 1]
        )
        kept = position < params["k"]
    else:  # WNP: per-node mean threshold, folded in directed order
        order = np.lexsort((directed, node))
        node_s = node[order]
        weight_s = weight[order]
        boundary = np.concatenate(([True], node_s[1:] != node_s[:-1]))
        group = np.cumsum(boundary) - 1
        groups = int(group[-1]) + 1
        sums = np.bincount(group, weights=weight_s, minlength=groups)
        counts = np.bincount(group, minlength=groups)
        kept = weight_s >= (sums / counts)[group]
    votes = edges[order][kept]
    writer = ArenaWriter(arena)
    return DescriptorBatch((writer.write(votes),), len(votes)), len(votes)


def _map_votes(chunk, partitions: int, params: dict):
    ref, arena = chunk
    votes = attach_array(ref)
    writer = ArenaWriter(arena)
    return partition_batch_into((votes,), votes, partitions, writer), len(votes)


def _reduce_votes(batches: list[DescriptorBatch], params: dict):
    """Union/reciprocal merge: count endpoint votes per edge."""
    (votes,) = concat_batches(batches, 1)
    if not len(votes):
        return np.empty(0, dtype=np.int64), 0
    edges, counts = np.unique(votes, return_counts=True)
    survivors = edges[counts >= params["required"]]
    return survivors, len(survivors)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _ranked_edges(table: PairTable, weights, rows) -> list[WeightedEdge]:
    """Surviving rows as WeightedEdges in (-weight, pair) order."""
    rank = table.uri_rank
    rows = np.asarray(rows, dtype=np.int64)
    kept_w = weights[rows]
    order = np.lexsort(
        (rank[table.ids_b[rows]], rank[table.ids_a[rows]], -kept_w)
    )
    pairs = table.pairs
    weight_list = kept_w.tolist()
    row_list = rows.tolist()
    return [
        WeightedEdge(pairs[row_list[i]][0], pairs[row_list[i]][1], weight_list[i])
        for i in order.tolist()
    ]


def _node_pruning_survivors(
    engine: MapReduceEngine,
    table: PairTable,
    weights,
    rank_a,
    rank_b,
    params: dict,
) -> tuple["np.ndarray", list[JobMetrics]]:
    """The WNP/CNP retention + vote-merge chain on one shared store."""
    workers = engine.workers
    row_count = len(weights)
    store = SharedBlockStore()
    engine.adopt_store(store)
    try:
        edge_refs = store.publish_arrays(
            table.ids_a, table.ids_b, rank_a, rank_b, weights
        )
        chunks = [
            (
                start,
                stop,
                store.allocate(
                    arena_capacity(2 * (stop - start), _EDGE_ROW_BYTES, workers, 5)
                ),
            )
            for start, stop in _row_ranges(row_count, workers)
        ]
        retention_job = ArrayMapReduceJob(
            name="node-retention-ids",
            mapper=_map_route_edges,
            reducer=_reduce_node_retention,
            params={"edges": edge_refs, **params},
            reduce_extras=[
                store.allocate(arena_capacity(2 * row_count, 8, 1, 1))
                for _ in range(workers)
            ],
        )
        vote_batches, retention_metrics = engine.run_array(retention_job, chunks)
        vote_chunks = [
            (
                batch.refs[0],
                store.allocate(arena_capacity(len(batch), 8, workers, 1)),
            )
            for batch in vote_batches
            if batch is not None and len(batch)
        ]
        vote_job = ArrayMapReduceJob(
            name="vote-merge-ids",
            mapper=_map_votes,
            reducer=_reduce_votes,
            params={"required": params["required"]},
        )
        survivor_parts, vote_metrics = engine.run_array(vote_job, vote_chunks)
    finally:
        engine.release_store(store)
    survivors = (
        np.concatenate(survivor_parts)
        if survivor_parts
        else np.empty(0, dtype=np.int64)
    )
    return survivors, [retention_metrics, vote_metrics]


def parallel_metablocking_ids(
    engine: MapReduceEngine,
    blocks: BlockCollection,
    scheme: WeightingScheme,
    pruner: PruningScheme,
) -> tuple[list[WeightedEdge], list[JobMetrics]]:
    """Parallel meta-blocking over int ids: statistics, weighting, pruning.

    Stage 1 aggregates the pair table edge-centrically; weights are then
    evaluated through the shared
    :func:`~repro.metablocking.weighting.weight_pair_table` path; stage 2
    prunes — WEP/CEP as edge-centric array jobs, WNP/CNP (and their
    reciprocal variants) through the entity-centric retention + vote
    merge chain.  Results are bit-identical to the sequential
    ``pruner.prune(BlockingGraph(blocks, scheme))`` for every worker
    count and executor.

    Returns:
        ``(surviving_edges, [job_metrics...])`` with edges in the
        pruner's deterministic (-weight, pair) order.

    Raises:
        TypeError: for pruning schemes with neither global nor
            node-centric parallel semantics.
    """
    table, stats_metrics = parallel_pair_table(engine, blocks)
    metrics = [stats_metrics]
    weights = weight_pair_table(scheme, blocks, table)
    row_count = len(weights)
    rank = table.uri_rank
    workers = engine.workers

    if isinstance(pruner, (WNP, CNP)):
        if isinstance(pruner, CNP):
            params = {
                "mode": "CNP",
                "k": pruner.node_budget_from_blocks(blocks),
                "required": pruner.required_votes,
            }
        else:
            params = {"mode": "WNP", "required": pruner.required_votes}
        rank_a = rank[table.ids_a] if row_count else np.empty(0, dtype=np.int64)
        rank_b = rank[table.ids_b] if row_count else np.empty(0, dtype=np.int64)
        survivors, prune_metrics = _node_pruning_survivors(
            engine, table, weights, rank_a, rank_b, params
        )
        metrics.extend(prune_metrics)
        return _ranked_edges(table, weights, survivors), metrics

    if isinstance(pruner, WEP):
        # The global mean must reproduce graph.average_weight(): a plain
        # left-to-right Python fold over table-row (first-seen) order.
        weight_list = weights.tolist()
        mean = sum(weight_list) / len(weight_list) if weight_list else 0.0
        keys = (table.ids_a << 32) | table.ids_b if row_count else np.empty(
            0, dtype=np.int64
        )
        store = SharedBlockStore()
        engine.adopt_store(store)
        try:
            edge_refs = store.publish_arrays(keys, weights)
            chunks = [
                (
                    start,
                    stop,
                    store.allocate(arena_capacity(stop - start, 16, workers, 2)),
                )
                for start, stop in _row_ranges(row_count, workers)
            ]
            job = ArrayMapReduceJob(
                name="wep-pruning-ids",
                mapper=_map_weight_filter,
                reducer=_reduce_row_identity,
                params={
                    "edges": edge_refs,
                    "threshold": mean * pruner.threshold_factor,
                },
            )
            outputs, prune_metrics = engine.run_array(job, chunks)
        finally:
            engine.release_store(store)
        metrics.append(prune_metrics)
        survivors = (
            np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)
        )
        return _ranked_edges(table, weights, survivors), metrics

    if isinstance(pruner, CEP):
        k = pruner.budget_from_blocks(blocks)
        rank_a = rank[table.ids_a] if row_count else np.empty(0, dtype=np.int64)
        rank_b = rank[table.ids_b] if row_count else np.empty(0, dtype=np.int64)
        store = SharedBlockStore()
        engine.adopt_store(store)
        try:
            edge_refs = store.publish_arrays(weights, rank_a, rank_b)
            chunks = [
                (
                    start,
                    stop,
                    store.allocate(
                        arena_capacity(min(stop - start, k), 32, workers, 4)
                    ),
                )
                for start, stop in _row_ranges(row_count, workers)
            ]
            job = ArrayMapReduceJob(
                name="cep-pruning-ids",
                mapper=_map_topk,
                reducer=_reduce_topk,
                params={"edges": edge_refs, "k": k},
            )
            outputs, prune_metrics = engine.run_array(job, chunks)
        finally:
            engine.release_store(store)
        metrics.append(prune_metrics)
        survivors = (
            np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)
        )
        return _ranked_edges(table, weights, survivors), metrics

    raise TypeError(
        f"{pruner.name} has no parallel formulation (expected WEP/CEP/WNP/CNP)"
    )
