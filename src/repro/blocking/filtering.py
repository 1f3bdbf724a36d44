"""Block filtering: keep each entity only in its most selective blocks.

Complementary to purging (which drops whole blocks), block filtering
(Papadakis et al.) acts per entity: an entity appearing in many blocks is
removed from its *largest* blocks, keeping only the fraction ``ratio`` of
its smallest (most selective) ones.  The intuition: an entity's small
blocks carry its discriminative tokens; its large blocks are mostly noise.
Filtering shrinks the blocking graph before meta-blocking, which both
speeds meta-blocking up and improves its precision.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as _np

from repro.blocking.block import BlockCollection, span_owners


def retention_limit(key_count: int, ratio: float) -> int:
    """Blocks an entity with *key_count* blocks keeps under *ratio*.

    ``ceil``-like rounding with a floor of one: every placed entity
    keeps at least its single most selective block.
    """
    return max(1, int(ratio * key_count + 0.5))


def retained_keys(
    keys: Iterable[str],
    cardinality_of: Callable[[str], int],
    ratio: float,
) -> list[str]:
    """The keys of an entity's retained (most selective) blocks, ranked.

    Ranks *keys* by increasing block cardinality (ties broken on the
    key, so the result is deterministic) and keeps the leading
    :func:`retention_limit` fraction.  This is the per-entity decision
    at the heart of block filtering, factored out so the streaming
    processed view can re-apply it to one touched entity at a time with
    its live cardinalities.
    """
    ranked = sorted(keys, key=lambda key: (cardinality_of(key), key))
    return ranked[: retention_limit(len(ranked), ratio)]


class BlockFiltering:
    """Per-entity block retention.

    Args:
        ratio: fraction of each entity's blocks to keep, in (0, 1].  The
            literature default is 0.8; E3 sweeps this.
    """

    name = "block-filtering"

    def __init__(self, ratio: float = 0.8) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio

    def signature(self) -> tuple:
        """Hashable identity of this operator's parameterization.

        Snapshot caches key processed results by operator signature, so
        two equal-parameter instances share a cache entry while a
        subclass (different qualname) never collides with the base.
        """
        return (type(self).__qualname__, self.ratio)

    def process(self, blocks: BlockCollection) -> BlockCollection:
        """Return a new collection with entities removed from their largest blocks.

        One pass over every placement: a ``lexsort`` on (entity, block
        cardinality, key) ranks each entity's blocks as
        :func:`retained_keys` does, and the leading
        :func:`retention_limit` placements of each entity stay.
        """
        arrays = blocks.id_arrays()
        keys = blocks.keys()
        key_rank = _np.empty(len(keys), dtype=_np.int64)
        key_rank[sorted(range(len(keys)), key=keys.__getitem__)] = _np.arange(len(keys))
        owners1, owners2 = span_owners(arrays.offsets1), span_owners(arrays.offsets2)
        owners = _np.concatenate([owners1, owners2])
        order = _np.lexsort((key_rank[owners], arrays.cardinality[owners], arrays.sides))
        ranked = arrays.sides[order]
        counts = _np.bincount(arrays.sides)
        rank = _np.arange(len(order)) - (_np.cumsum(counts) - counts)[ranked]
        # retention_limit per entity
        limit = _np.maximum(1, (self.ratio * counts + 0.5).astype(_np.int64))
        kept = rank < limit[ranked]
        # A member of both sides of a block holds two adjacent placements
        # there; the block is retained for it when the first one is.
        ranked_owners = owners[order]
        twin = (ranked[1:] == ranked[:-1]) & (ranked_owners[1:] == ranked_owners[:-1])
        kept[1:] |= twin & kept[:-1]
        keep = _np.empty(len(order), dtype=bool)
        keep[order] = kept
        keep1, keep2 = keep[: len(owners1)], keep[len(owners1) :]
        sizes1 = _np.bincount(owners1[keep1], minlength=len(keys))
        sizes2 = _np.bincount(owners2[keep2], minlength=len(keys))
        survives = _np.where(arrays.bipartite, (sizes1 > 0) & (sizes2 > 0), sizes1 >= 2)
        return blocks.select(survives, keep1, keep2, name=f"filtered({blocks.name})")
