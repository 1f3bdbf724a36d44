"""MapReduce token blocking, after Efthymiou et al. (IEEE Big Data 2015) [5].

The parallel formulation of token blocking is the canonical one:

* **map** — each map task tokenizes its slice of the input descriptions
  and emits the assignments as one **columnar record batch** (token,
  side, URI — parallel numpy arrays), routed by the token's stable
  string hash;
* **reduce** — each partition sorts its rows by token (stable, so
  members keep collection order) and every token group becomes a block
  of the partition's block columns; singleton and one-sided groups are
  discarded exactly as in the sequential algorithm.

This used to ship one Python ``(token, (side, uri))`` tuple per
assignment through the shuffle; the columnar rewrite moves whole
``U``-dtype arrays instead, so the process executor pickles a handful of
buffers per task rather than hundreds of thousands of objects.  The
output is byte-for-byte equivalent (same blocks, same member order, same
interner) to :class:`repro.blocking.TokenBlocking` — asserted by
the integration tests — while the engine's metrics expose the shuffle
volume and per-worker skew the paper reports.  Mapper and reducer are
module-level functions over picklable chunks, so the job runs on the
persistent process pool without fork-inheritance tricks.
"""

from __future__ import annotations

import numpy as np

from repro.blocking.block import BlockCollection, csr_offsets
from repro.mapreduce.engine import ArrayMapReduceJob, JobMetrics, MapReduceEngine
from repro.mapreduce.records import (
    concat_batches,
    partition_assigned,
    stable_hash_str_array,
)
from repro.model.collection import EntityCollection
from repro.model.tokenizer import Tokenizer, row_positions


def split_records(records: list, workers: int) -> list[list]:
    """Contiguous even splits of a record list (like HDFS input splits)."""
    if not records:
        return []
    size, remainder = divmod(len(records), workers)
    splits: list[list] = []
    start = 0
    for worker in range(workers):
        length = size + (1 if worker < remainder else 0)
        if length == 0:
            continue
        splits.append(records[start : start + length])
        start += length
    return splits


def _map_tokenize(chunk, partitions: int, params: dict):
    """Tokenize one slice of descriptions into a routed columnar batch.

    Token order within a description is sorted (set iteration order is
    not deterministic across processes) and rows keep description order,
    so downstream member lists reproduce the sequential builder's.
    """
    tokenizer = params["tokenizer"]
    tokens: list[str] = []
    sides: list[int] = []
    uris: list[str] = []
    for side, description in chunk:
        for token in sorted(tokenizer.token_set(description)):
            tokens.append(token)
            sides.append(side)
            uris.append(description.uri)
    if not tokens:
        return [], len(chunk)
    token_col = np.array(tokens)
    columns = (token_col, np.array(sides, dtype=np.int64), np.array(uris))
    assignment = stable_hash_str_array(token_col, partitions)
    return partition_assigned(columns, assignment, partitions), len(chunk)


def _reduce_token_groups(batches: list, params: dict):
    """Group one partition's assignment rows into token-sorted block columns.

    Returns ``(keys, sizes1, sizes2, uris1, uris2)``: the kept tokens in
    order, each block's member count per side, and the side-1 / side-2
    member URIs block after block.  The stable sort by token preserves
    row arrival order inside each group — task order is split order, so
    members come out in collection order, exactly like the sequential
    builder's postings.
    """
    tokens, sides, uris = concat_batches(batches, 3)
    if not len(tokens):
        return [], 0
    order = np.argsort(tokens, kind="stable")
    tokens, sides, uris = tokens[order], sides[order], uris[order]
    boundary = np.concatenate(([True], tokens[1:] != tokens[:-1]))
    group = np.cumsum(boundary) - 1
    groups = int(group[-1]) + 1
    on1 = sides == 1
    sizes1 = np.bincount(group[on1], minlength=groups)
    sizes2 = np.bincount(group[~on1], minlength=groups)
    keep = np.ones(groups, dtype=bool)
    if params["drop_singletons"]:
        keep = (sizes1 > 0) & (sizes2 > 0) if params["clean_clean"] else sizes1 >= 2
    kept = keep[group]
    columns = (
        tokens[boundary][keep].tolist(),
        sizes1[keep],
        sizes2[keep],
        uris[on1 & kept],
        uris[~on1 & kept],
    )
    return columns, int(keep.sum())
def parallel_token_blocking(
    engine: MapReduceEngine,
    collection1: EntityCollection,
    collection2: EntityCollection | None = None,
    tokenizer: Tokenizer | None = None,
    drop_singletons: bool = True,
) -> tuple[BlockCollection, JobMetrics]:
    """Run token blocking as a columnar MapReduce job on *engine*.

    Args:
        engine: the simulated cluster.
        collection1: first (or only) KB.
        collection2: second KB for clean-clean ER.
        tokenizer: key extractor shared with the sequential implementation.
        drop_singletons: discard comparison-free blocks.

    Returns:
        ``(blocks, job_metrics)``.
    """
    tokenizer = tokenizer or Tokenizer(include_uri_infix=True)
    records: list[tuple[int, object]] = [(1, d) for d in collection1]
    if collection2 is not None:
        records.extend((2, d) for d in collection2)
    job = ArrayMapReduceJob(
        name="parallel-token-blocking",
        mapper=_map_tokenize,
        reducer=_reduce_token_groups,
        params={
            "tokenizer": tokenizer,
            "clean_clean": collection2 is not None,
            "drop_singletons": drop_singletons,
        },
    )
    outputs, metrics = engine.run_array(job, split_records(records, engine.workers))

    names = collection1.name if collection2 is None else f"{collection1.name},{collection2.name}"
    # Reduce partitions arrive in partition order, each sorted by token;
    # one sort of all kept tokens restores the sequential builder's order.
    parts = [output for output in outputs if output]
    keys = [key for part in parts for key in part[0]]
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
    # Every member URI is its own id here; from_members folds equal URIs.
    uris: list[str] = []
    columns = []
    for side in (1, 2):
        sizes = np.concatenate([np.zeros(0, np.int64), *(part[side] for part in parts)])
        positions, kept = row_positions(csr_offsets(sizes), order)
        columns += [positions + len(uris), csr_offsets(kept)]
        uris += [uri for part in parts for uri in part[side + 2].tolist()]
    blocks = BlockCollection.from_members(
        f"mr-token-blocking({names})", [keys[i] for i in order.tolist()], uris,
        *columns, collection2 is not None,
    )
    return blocks, metrics
