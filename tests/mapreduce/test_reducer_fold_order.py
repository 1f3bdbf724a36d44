"""The pair-statistics reducer sums in enumeration order, not arrival order.

A reducer receives its cells in whatever order the shuffle delivered
them; each carries its global cell index.  Floating-point addition does
not associate, so the ARCS sums are bit-identical to the sequential
graph only if every pair's terms are added in cell-index order — the
reducer reorders, then runs the shared
:func:`~repro.metablocking.graph.fold_cells`.  Checked against a dict
reference that walks the cells by index, float for float, through the
real reducer over shared-memory batches.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.parallel_metablocking_ids import _reduce_pair_stats
from repro.mapreduce.records import DescriptorBatch
from repro.mapreduce.shm import SharedBlockStore, arena_capacity
from repro.model.interner import pack_pair

KEYS = [pack_pair(0, 1), pack_pair(0, 2), pack_pair(1, 2), pack_pair(3, 7)]

#: (packed pair, block cardinality) per cell, in cell-index order
cells_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(1, 40)), max_size=60
)


def reference(cells) -> dict[int, tuple[int, float, int]]:
    """key → (common, arcs, first cell index), summed in cell-index order."""
    out: dict[int, tuple[int, float, int]] = {}
    for index, (key, cardinality) in enumerate(cells):
        common, arcs, first = out.get(key, (0, 0.0, index))
        out[key] = (common + 1, arcs + 1.0 / cardinality, first)
    return out


def reduce(cells, arrival, cuts) -> dict[int, tuple[int, float, int]]:
    """Run the reducer on *cells* delivered in *arrival* order, split
    into shuffle batches at *cuts*."""
    keys = np.array([key for key, _ in cells], dtype=np.int64)[arrival]
    index = np.arange(len(cells), dtype=np.int64)[arrival]
    contribution = np.array([1.0 / card for _, card in cells])[arrival]
    bounds = [0, *sorted(cuts), len(cells)]
    with SharedBlockStore() as store:
        batches = [
            DescriptorBatch(
                store.publish_arrays(keys[a:b], index[a:b], contribution[a:b]), b - a
            )
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]
        arena = store.allocate(arena_capacity(len(cells), 32, 1, 4))
        out, groups = _reduce_pair_stats(batches, {}, arena)
        if out is None:
            assert groups == 0
            return {}
        columns = [store.view(ref).tolist() for ref in out.refs]
    assert groups == len(columns[0])
    assert columns[0] == sorted(columns[0])
    return {key: (common, arcs, first) for key, common, arcs, first in zip(*columns)}


@settings(max_examples=80, deadline=None)
@given(cells=cells_strategy, data=st.data())
def test_shuffled_cells_fold_in_cell_index_order(cells, data):
    arrival = data.draw(st.permutations(range(len(cells))))
    cuts = data.draw(st.lists(st.integers(0, len(cells)), max_size=3))
    assert reduce(cells, list(arrival), cuts) == reference(cells)


def test_edge_cases():
    assert reduce([], [], []) == {}
    assert reduce([(KEYS[0], 3)], [0], []) == {KEYS[0]: (1, 1.0 / 3, 0)}
    one_key = [(KEYS[1], card) for card in (3, 7, 11, 13, 17)]
    assert reduce(one_key, [4, 2, 0, 3, 1], [2]) == reference(one_key)
