"""MapReduce block post-processing: parallel purging and filtering.

On a cluster, block purging and filtering run as MapReduce jobs between
blocking and meta-blocking [5].  Both are reproduced here on the
columnar batch path — per-block and per-assignment rows travel as
parallel numpy arrays, never as per-record Python tuples:

* **parallel purging** — a statistics job aggregates the per-cardinality
  (comparisons, assignments) histogram with a map-side ``np.unique``
  combine; the driver computes the adaptive threshold exactly as the
  sequential :class:`~repro.blocking.purging.BlockPurging` does (the
  histogram is tiny, so this mirrors Hadoop practice of finishing scalar
  decisions driver-side); a second job drops oversized blocks.
* **parallel filtering** — entity-centric: map expands each block into
  assignment rows ``(uri, block_rank, cardinality, side)`` routed by
  entity, each reduce group ranks one entity's blocks and keeps its
  smallest share, and a final job regroups the surviving assignments
  into blocks.

Blocks are identified throughout by their **key rank** (the block key's
position in sorted key order): an int64 column routes through the
allocation-free splitmix hash, and ranking by ``(cardinality, rank)``
reproduces the sequential ``(cardinality, key)`` tie-break exactly.
Outputs are identical to the sequential implementations (asserted in
tests), with the engine metrics exposing the extra shuffle rounds a
cluster pays for post-processing.  Mappers and reducers are module-level
functions over picklable chunks, so both jobs run on the persistent
process pool.
"""

from __future__ import annotations

import numpy as np

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.mapreduce.engine import ArrayMapReduceJob, JobMetrics, MapReduceEngine
from repro.mapreduce.parallel_blocking import split_records
from repro.mapreduce.records import (
    concat_batches,
    partition_assigned,
    partition_batch,
    stable_hash_str_array,
)


def _ranked_blocks(blocks: BlockCollection) -> tuple[list[str], dict[str, int]]:
    """Block keys in sorted order plus the key → rank lookup."""
    keys = sorted(block.key for block in blocks)
    return keys, {key: rank for rank, key in enumerate(keys)}


# ---------------------------------------------------------------------------
# Purging
# ---------------------------------------------------------------------------


def _map_purging_stats(chunk, partitions: int, params: dict):
    """Per-level (comparisons, assignments) sums — the map-side combine."""
    cardinality, size = chunk
    if not len(cardinality):
        return [], 0
    levels, inverse = np.unique(cardinality, return_inverse=True)
    comparisons = np.bincount(
        inverse, weights=cardinality.astype(np.float64)
    ).astype(np.int64)
    assignments = np.bincount(inverse, weights=size.astype(np.float64)).astype(
        np.int64
    )
    columns = (levels, comparisons, assignments)
    return partition_batch(columns, levels, partitions), len(cardinality)


def _reduce_purging_stats(batches: list, params: dict):
    """Merge one partition's per-level sums into histogram entries."""
    levels, comparisons, assignments = concat_batches(batches, 3)
    if not len(levels):
        return [], 0
    unique, inverse = np.unique(levels, return_inverse=True)
    comps = np.bincount(inverse, weights=comparisons.astype(np.float64)).astype(
        np.int64
    )
    assigns = np.bincount(inverse, weights=assignments.astype(np.float64)).astype(
        np.int64
    )
    entries = list(zip(unique.tolist(), zip(comps.tolist(), assigns.tolist())))
    return entries, len(entries)


def _map_purging_drop(chunk, partitions: int, params: dict):
    """Keep block ranks at or below the cardinality threshold."""
    rank, cardinality = chunk
    kept = rank[cardinality <= params["threshold"]]
    return partition_batch((kept,), kept, partitions), len(rank)


def _reduce_rank_identity(batches: list, params: dict):
    (ranks,) = concat_batches(batches, 1)
    return ranks, len(ranks)


def parallel_block_purging(
    engine: MapReduceEngine,
    blocks: BlockCollection,
    purging: BlockPurging | None = None,
) -> tuple[BlockCollection, list[JobMetrics]]:
    """Run block purging as columnar MapReduce jobs on *engine*.

    Returns:
        ``(purged_blocks, [stats_metrics, drop_metrics])``.
    """
    purging = purging or BlockPurging()
    keys, _ = _ranked_blocks(blocks)
    by_key = {block.key: block for block in blocks}
    cardinality = np.array(
        [by_key[key].cardinality() for key in keys], dtype=np.int64
    )
    size = np.array([len(by_key[key]) for key in keys], dtype=np.int64)
    ranks = np.arange(len(keys), dtype=np.int64)
    splits = split_records(list(range(len(keys))), engine.workers)
    stat_chunks = [(cardinality[s[0] : s[-1] + 1], size[s[0] : s[-1] + 1]) for s in splits]

    stats_job = ArrayMapReduceJob(
        name="purging-statistics",
        mapper=_map_purging_stats,
        reducer=_reduce_purging_stats,
    )
    outputs, stats_metrics = engine.run_array(stats_job, stat_chunks)
    histogram = dict(entry for output in outputs for entry in output)

    threshold = (
        purging.max_cardinality
        if purging.max_cardinality is not None
        else _threshold_from_histogram(histogram, purging.smoothing)
    )

    drop_chunks = [
        (ranks[s[0] : s[-1] + 1], cardinality[s[0] : s[-1] + 1]) for s in splits
    ]
    drop_job = ArrayMapReduceJob(
        name="purging-drop",
        mapper=_map_purging_drop,
        reducer=_reduce_rank_identity,
        params={"threshold": threshold},
    )
    outputs, drop_metrics = engine.run_array(drop_job, drop_chunks)
    survivors = np.sort(np.concatenate(outputs)) if outputs else ranks[:0]
    purged = BlockCollection(name=f"purged({blocks.name})")
    for rank in survivors.tolist():
        purged.add(by_key[keys[rank]])
    return purged, [stats_metrics, drop_metrics]


def _threshold_from_histogram(
    histogram: dict[int, tuple[int, int]], smoothing: float
) -> int:
    """The sequential adaptive-threshold scan over an aggregated histogram."""
    if not histogram:
        return 1
    levels = sorted(histogram)
    cum_comparisons: list[int] = []
    cum_assignments: list[int] = []
    running_comps = 0
    running_assigns = 0
    for level in levels:
        comps, assigns = histogram[level]
        running_comps += comps
        running_assigns += assigns
        cum_comparisons.append(running_comps)
        cum_assignments.append(running_assigns)
    cut = len(levels) - 1
    while cut > 0:
        ratio_with = cum_comparisons[cut] / max(cum_assignments[cut], 1)
        ratio_without = cum_comparisons[cut - 1] / max(cum_assignments[cut - 1], 1)
        if ratio_with <= smoothing * ratio_without:
            break
        cut -= 1
    return levels[cut]


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def _map_filter_assignments(chunk, partitions: int, params: dict):
    """Expand one slice of blocks into assignment rows, routed by entity.

    Row order is block order then side-1 before side-2 members — the
    emission order the sequential tie-break relies on.
    """
    uris: list[str] = []
    ranks: list[int] = []
    cards: list[int] = []
    sides: list[int] = []
    for rank, cardinality, entities1, entities2 in chunk:
        uris.extend(entities1)
        ranks.extend([rank] * len(entities1))
        cards.extend([cardinality] * len(entities1))
        sides.extend([1] * len(entities1))
        if entities2 is not None:
            uris.extend(entities2)
            ranks.extend([rank] * len(entities2))
            cards.extend([cardinality] * len(entities2))
            sides.extend([2] * len(entities2))
    if not uris:
        return [], len(chunk)
    uri_col = np.array(uris)
    columns = (
        uri_col,
        np.array(ranks, dtype=np.int64),
        np.array(cards, dtype=np.int64),
        np.array(sides, dtype=np.int64),
    )
    assignment = stable_hash_str_array(uri_col, partitions)
    return partition_assigned(columns, assignment, partitions), len(chunk)


def _reduce_entity_retention(batches: list, params: dict):
    """Keep each entity's smallest-cardinality share of its blocks.

    Ranking by ``(cardinality, block rank)`` equals the sequential
    ``(cardinality, key)`` sort — the rank *is* the key's sorted
    position — and the stable lexsort keeps emission order for the only
    possible tie (one URI on both sides of one block), exactly like
    ``sorted``.
    """
    uris, ranks, cards, sides = concat_batches(batches, 4)
    if not len(uris):
        return None, 0
    order = np.lexsort((ranks, cards, uris))
    uris_s = uris[order]
    boundary = np.concatenate(([True], uris_s[1:] != uris_s[:-1]))
    group_starts = np.flatnonzero(boundary)
    group_sizes = np.diff(np.append(group_starts, len(uris_s)))
    limits = np.maximum(
        1, (params["ratio"] * group_sizes + 0.5).astype(np.int64)
    )
    position = np.arange(len(uris_s)) - np.repeat(group_starts, group_sizes)
    kept = position < np.repeat(limits, group_sizes)
    columns = (ranks[order][kept], uris_s[kept], sides[order][kept])
    return columns, int(kept.sum())


def _map_regroup(chunk, partitions: int, params: dict):
    """Route surviving assignments back to their blocks."""
    ranks, uris, sides = chunk
    return partition_batch((ranks, uris, sides), ranks, partitions), len(ranks)


def _reduce_block_regroup(batches: list, params: dict):
    """Rebuild each block from its surviving members (sorted per side)."""
    ranks, uris, sides = concat_batches(batches, 3)
    if not len(ranks):
        return [], 0
    order = np.lexsort((uris, sides, ranks))
    ranks_s = ranks[order]
    uris_s = uris[order]
    sides_s = sides[order]
    boundary = np.concatenate(([True], ranks_s[1:] != ranks_s[:-1]))
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(ranks_s))
    bipartite = params["bipartite"]
    out: list[tuple[int, list[str], list[str] | None]] = []
    for start, end in zip(starts.tolist(), ends.tolist()):
        side = sides_s[start:end]
        uri = uris_s[start:end]
        side1 = uri[side == 1].tolist()
        side2 = uri[side == 2].tolist()
        if bipartite:
            if side1 and side2:
                out.append((int(ranks_s[start]), side1, side2))
        elif len(side1) >= 2:
            out.append((int(ranks_s[start]), side1, None))
    return out, len(out)


def parallel_block_filtering(
    engine: MapReduceEngine,
    blocks: BlockCollection,
    filtering: BlockFiltering | None = None,
) -> tuple[BlockCollection, list[JobMetrics]]:
    """Run entity-centric block filtering as columnar MapReduce jobs.

    Returns:
        ``(filtered_blocks, [retention_metrics, regroup_metrics])``.
    """
    filtering = filtering or BlockFiltering()
    keys, rank_of = _ranked_blocks(blocks)
    by_key = {block.key: block for block in blocks}
    bipartite = any(block.is_bipartite for block in blocks)
    # Assignment expansion order must match the sequential map emission:
    # blocks in collection order, side 1 before side 2.
    records = [
        (
            rank_of[block.key],
            block.cardinality(),
            block.entities1,
            block.entities2,
        )
        for block in blocks
    ]

    retention_job = ArrayMapReduceJob(
        name="filtering-retention",
        mapper=_map_filter_assignments,
        reducer=_reduce_entity_retention,
        params={"ratio": filtering.ratio},
    )
    retained, retention_metrics = engine.run_array(
        retention_job, split_records(records, engine.workers)
    )

    regroup_job = ArrayMapReduceJob(
        name="filtering-regroup",
        mapper=_map_regroup,
        reducer=_reduce_block_regroup,
        params={"bipartite": bipartite},
    )
    regroup_chunks = [
        columns for columns in retained if columns is not None and len(columns[0])
    ]
    outputs, regroup_metrics = engine.run_array(regroup_job, regroup_chunks)

    merged = [entry for output in outputs for entry in output]
    merged.sort(key=lambda entry: entry[0])
    filtered = BlockCollection(name=f"filtered({blocks.name})")
    for rank, side1, side2 in merged:
        key = keys[rank]
        filtered.add(Block(key, side1, side2) if side2 is not None else Block(key, side1))
    return filtered, [retention_metrics, regroup_metrics]
