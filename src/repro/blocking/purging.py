"""Block purging: discard oversized, low-signal blocks.

Token blocking produces a heavy-tailed block-size distribution: a few stop
-word-like tokens generate blocks containing thousands of descriptions,
contributing the bulk of the comparison cost while carrying almost no
matching signal (co-occurring in a huge block says little).  Block purging
(Papadakis et al.) removes those blocks.

Two policies are provided:

* an explicit ``max_cardinality`` cutoff, and
* the **adaptive** policy from the literature: scan blocks from largest to
  smallest cardinality and purge while the marginal comparisons-per-
  assignment ratio of the remaining collection keeps improving — i.e. find
  the smallest cardinality threshold such that keeping larger blocks would
  grow comparisons disproportionately to the block assignments (matching
  evidence) they add.
"""

from __future__ import annotations

import numpy as _np

from repro.blocking.block import BlockCollection


def cardinality_histogram(blocks: BlockCollection) -> dict[int, tuple[int, int]]:
    """Per-cardinality-level ``(comparisons, assignments)`` totals.

    The block-size distribution the adaptive purging policy consumes:
    level ``c`` maps to the summed comparisons and block assignments of
    every block whose cardinality is exactly ``c``.  The streaming
    processed view maintains the same histogram incrementally (one
    level update per touched key) and feeds it to
    :func:`threshold_from_histogram`, so batch and streaming purge from
    the identical distribution.
    """
    arrays = blocks.id_arrays()
    levels, level_of = _np.unique(arrays.cardinality, return_inverse=True)
    blocks_at = _np.bincount(level_of, minlength=len(levels))
    sizes = _np.diff(arrays.offsets1) + _np.diff(arrays.offsets2)
    assignments = _np.bincount(level_of, weights=sizes, minlength=len(levels))
    totals = zip((levels * blocks_at).tolist(), assignments.astype(_np.int64).tolist())
    return dict(zip(levels.tolist(), totals))


def threshold_from_histogram(
    histogram: dict[int, tuple[int, int]], smoothing: float
) -> int:
    """The adaptive cardinality cutoff for a block-size *histogram*.

    Accumulates comparisons (CC) and assignments (BC) over the sorted
    levels, then scans from the **largest** level downwards, purging a
    level while its inclusion inflates the collection-wide CC/BC ratio
    by more than *smoothing* relative to the collection without it.
    Returns the largest surviving level (1 for an empty histogram).
    """
    if not histogram:
        return 1
    levels = sorted(histogram)
    cum_comparisons = [0] * len(levels)
    cum_assignments = [0] * len(levels)
    running_comps = 0
    running_assigns = 0
    for i, level in enumerate(levels):
        comps, assigns = histogram[level]
        running_comps += comps
        running_assigns += assigns
        cum_comparisons[i] = running_comps
        cum_assignments[i] = running_assigns

    cut = len(levels) - 1
    while cut > 0:
        ratio_with = cum_comparisons[cut] / max(cum_assignments[cut], 1)
        ratio_without = cum_comparisons[cut - 1] / max(cum_assignments[cut - 1], 1)
        if ratio_with <= smoothing * ratio_without:
            break
        cut -= 1
    return levels[cut]


class BlockPurging:
    """Remove blocks whose comparison cardinality exceeds a threshold.

    Args:
        max_cardinality: explicit cutoff; if None, the adaptive policy
            picks the cutoff from the block-size distribution.
        smoothing: adaptive policy's tolerance factor — the largest
            cardinality level survives only if including it inflates the
            collection's comparisons-per-assignment ratio by at most this
            factor (1.1 keeps PC ≈ 1.0 while purging stop-token blocks on
            every corpus in the evaluation; E3 sweeps it).
    """

    name = "block-purging"

    def __init__(self, max_cardinality: int | None = None, smoothing: float = 1.1) -> None:
        if max_cardinality is not None and max_cardinality < 1:
            raise ValueError("max_cardinality must be >= 1")
        if smoothing < 1.0:
            raise ValueError("smoothing must be >= 1.0")
        self.max_cardinality = max_cardinality
        self.smoothing = smoothing

    def signature(self) -> tuple:
        """Hashable identity of this operator's parameterization.

        Snapshot caches key processed results by operator signature, so
        two equal-parameter instances share a cache entry while a
        subclass (different qualname) never collides with the base.
        """
        return (type(self).__qualname__, self.max_cardinality, self.smoothing)

    def process(self, blocks: BlockCollection) -> BlockCollection:
        """Return a new collection without the purged blocks."""
        threshold = (
            self.max_cardinality
            if self.max_cardinality is not None
            else self.adaptive_threshold(blocks)
        )
        keep = blocks.id_arrays().cardinality <= threshold
        return blocks.select(keep, name=f"purged({blocks.name})")

    def adaptive_threshold(self, blocks: BlockCollection) -> int:
        """Compute the adaptive cardinality cutoff for *blocks*.

        Group blocks by comparison cardinality and accumulate, per level,
        the comparisons (CC) and block assignments (BC) of all blocks at or
        below it.  Scanning from the **largest** level downwards, a level is
        purged while its inclusion inflates the collection-wide CC/BC ratio
        by more than the ``smoothing`` factor relative to the collection
        without it — the signature of stop-token blocks, which contribute
        quadratically many comparisons but only linearly many assignments
        (matching evidence).  The threshold is the largest surviving level.

        Delegates to the module-level :func:`cardinality_histogram` /
        :func:`threshold_from_histogram` pair so incremental maintainers
        can reuse the exact policy over their own live histograms.
        """
        return threshold_from_histogram(
            cardinality_histogram(blocks), self.smoothing
        )
