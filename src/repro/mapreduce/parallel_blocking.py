"""MapReduce token blocking, after Efthymiou et al. (IEEE Big Data 2015) [5].

The parallel formulation of token blocking is the canonical one:

* **map** — each map task tokenizes its slice of the input descriptions
  and emits the assignments as one **columnar record batch** (token,
  side, URI — parallel numpy arrays), routed by the token's stable
  string hash;
* **reduce** — each partition sorts its rows by token (stable, so
  members keep collection order) and every token group becomes a block;
  singleton and one-sided groups are discarded exactly as in the
  sequential algorithm.

This used to ship one Python ``(token, (side, uri))`` tuple per
assignment through the shuffle; the columnar rewrite moves whole
``U``-dtype arrays instead, so the process executor pickles a handful of
buffers per task rather than hundreds of thousands of objects.  The
output is byte-for-byte equivalent (same blocks, same member order, same
primed id views) to :class:`repro.blocking.TokenBlocking` — asserted by
the integration tests — while the engine's metrics expose the shuffle
volume and per-worker skew the paper reports.  Mapper and reducer are
module-level functions over picklable chunks, so the job runs on the
persistent process pool without fork-inheritance tricks.
"""

from __future__ import annotations

import numpy as np

from repro.blocking.block import Block, BlockCollection
from repro.mapreduce.engine import ArrayMapReduceJob, JobMetrics, MapReduceEngine
from repro.mapreduce.records import (
    concat_batches,
    partition_assigned,
    stable_hash_str_array,
)
from repro.model.collection import EntityCollection
from repro.model.interner import EntityInterner
from repro.model.tokenizer import Tokenizer


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
    """Group one partition's assignment rows into (token, members) blocks.

    The stable sort by token preserves row arrival order inside each
    group — task order is split order, so members come out in collection
    order, exactly like the sequential per-token append loop.
    """
    tokens, sides, uris = concat_batches(batches, 3)
    if not len(tokens):
        return [], 0
    order = np.argsort(tokens, kind="stable")
    tokens_s = tokens[order]
    sides_s = sides[order]
    uris_s = uris[order]
    boundary = np.concatenate(([True], tokens_s[1:] != tokens_s[:-1]))
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(tokens_s))
    clean_clean = params["clean_clean"]
    drop_singletons = params["drop_singletons"]
    blocks: list[tuple[str, list[str], list[str] | None]] = []
    for start, end in zip(starts.tolist(), ends.tolist()):
        side = sides_s[start:end]
        uri = uris_s[start:end]
        side1 = uri[side == 1].tolist()
        if clean_clean:
            side2 = uri[side == 2].tolist()
            if drop_singletons and (not side1 or not side2):
                continue
            blocks.append((str(tokens_s[start]), side1, side2))
        else:
            if drop_singletons and len(side1) < 2:
                continue
            blocks.append((str(tokens_s[start]), side1, None))
    return blocks, len(blocks)


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
    blocks = BlockCollection(name=f"mr-token-blocking({names})")
    # Reduce partitions arrive in partition order; normalize to sorted key
    # order so the result is identical to the sequential builder — and
    # prime the id views in the same pass, exactly as Blocker.build does,
    # so int-ID meta-blocking starts warm on MapReduce-built blocks too.
    merged = [entry for output in outputs for entry in output]
    merged.sort(key=lambda entry: entry[0])
    interner = EntityInterner()
    intern = interner.intern
    id_blocks: list[tuple[list[int], list[int] | None, int]] = []
    for token, side1, side2 in merged:
        block = Block(token, side1, side2) if side2 is not None else Block(token, side1)
        blocks.add(block)
        id_blocks.append(
            (
                list(map(intern, block.entities1)),
                list(map(intern, block.entities2))
                if block.entities2 is not None
                else None,
                block.cardinality(),
            )
        )
    blocks.prime_id_views(interner, id_blocks)
    return blocks, metrics
