"""The eager pair table, kept as a test oracle.

Until the raw :class:`~repro.stream.pairs.DeltaPairTable` became a lazy
view over the postings, it was maintained one comparison cell at a time:
the index called ``on_cell`` / ``on_cell_removed`` once per (entity,
co-member) of every touched block.  That table is preserved here hook
for hook as the reference the differential suite compares the lazy
table against.

The index no longer enumerates cells, so the oracle does it itself:
``on_key_update`` tells it which (key, entity, side) posting changed,
and it walks that block's opposite-side postings (the same side, in a
dirty store) exactly as ``_on_insert`` / ``_on_delete`` used to.  Its
``(common, arcs)`` are read one pair at a time — the shared keys in
sorted order, :func:`cells_between` cells each — the way the lazy table
read them before it folded whole stars; its :meth:`star` assembles
those pairs, and :meth:`weigh` is the lazy table's own, so the two
weigh identical columns exactly when their stars agree.
"""

from __future__ import annotations

from repro.model.interner import pack_pair, unpack_pair
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable


def cells_between(index: IncrementalBlockIndex, key: str, id_a: int, id_b: int) -> int:
    """Comparison cells of the (distinct) pair inside *key*'s block.

    0, 1 — or 2 for bipartite blocks holding both entities on both
    sides, matching the repetition count the batch enumeration yields.
    """
    if id_a == id_b:
        return 0
    mask_a = index.keys_of(id_a).get(key, 0)
    mask_b = index.keys_of(id_b).get(key, 0)
    if not mask_a or not mask_b:
        return 0
    if not index.two_sided:
        return 1
    return int(bool(mask_a & 1) and bool(mask_b & 2)) + int(
        bool(mask_b & 1) and bool(mask_a & 2)
    )


class EagerPairTable(DeltaConsumer):
    """Packed-pair statistics folded in one comparison cell at a time."""

    weigh = DeltaPairTable.weigh

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = self.source = index
        #: packed pair → number of common blocks (counting repeated cells)
        self.common: dict[int, int] = {}
        self.placements: dict[int, int] = {}
        self.degrees: dict[int, int] = {}
        self.active_blocks = 0
        self.total_assignments = 0
        self.entities_placed = 0
        self.edge_count = 0
        #: the (key, entity, side) postings seen so far — how a key
        #: update is told apart as an insert or a removal
        self._posted: set[tuple[str, int, int]] = set()
        index.attach(self)

    # -- the cell enumeration the index used to perform -----------------------

    def on_key_update(self, key: str, entity_id: int, source: int) -> None:
        sides = self.index.postings(key)
        partners = sides[1 - source] if self.index.two_sided else sides[0]
        posting = (key, entity_id, source)
        if posting in self._posted:
            self._posted.remove(posting)
            hook = self.on_cell_removed
        else:
            self._posted.add(posting)
            hook = self.on_cell
        for partner in partners:
            if partner != entity_id:
                hook(entity_id, partner)

    # -- delta hooks (verbatim from the eager table) -------------------------

    def on_cell(self, id_a: int, id_b: int) -> None:
        key = pack_pair(id_a, id_b)
        count = self.common.get(key, 0)
        if count == 0:
            self.edge_count += 1
            self.degrees[id_a] = self.degrees.get(id_a, 0) + 1
            self.degrees[id_b] = self.degrees.get(id_b, 0) + 1
        self.common[key] = count + 1

    def on_placement(self, entity_id: int) -> None:
        count = self.placements.get(entity_id, 0)
        if count == 0:
            self.entities_placed += 1
        self.placements[entity_id] = count + 1
        self.total_assignments += 1

    def on_block_activated(self, key: str) -> None:
        self.active_blocks += 1

    def on_cell_removed(self, id_a: int, id_b: int) -> None:
        key = pack_pair(id_a, id_b)
        count = self.common[key] - 1
        if count == 0:
            del self.common[key]
            self.edge_count -= 1
            for entity_id in (id_a, id_b):
                remaining = self.degrees[entity_id] - 1
                if remaining:
                    self.degrees[entity_id] = remaining
                else:
                    del self.degrees[entity_id]
        else:
            self.common[key] = count

    def on_placement_removed(self, entity_id: int) -> None:
        count = self.placements[entity_id] - 1
        self.total_assignments -= 1
        if count == 0:
            del self.placements[entity_id]
            self.entities_placed -= 1
        else:
            self.placements[entity_id] = count

    def on_block_deactivated(self, key: str) -> None:
        self.active_blocks -= 1

    # -- statistics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.common)

    def partners(self, entity_id: int) -> list[int]:
        """Every entity sharing a comparison cell with *entity_id*."""
        return sorted(
            id_b if id_a == entity_id else id_a
            for id_a, id_b in map(unpack_pair, self.common)
            if entity_id in (id_a, id_b)
        )

    def pair_stats(self, id_a: int, id_b: int) -> tuple[int, float]:
        if id_a == id_b:
            return 0, 0.0
        common = self.common.get(pack_pair(id_a, id_b), 0)
        index = self.index
        keys_a = index.keys_of(id_a)
        keys_b = index.keys_of(id_b)
        if len(keys_b) < len(keys_a):
            keys_a, keys_b = keys_b, keys_a
        shared = [key for key in keys_a if key in keys_b]
        if not shared:
            return common, 0.0
        shared.sort()
        arcs = 0.0
        for key in shared:
            cells = cells_between(index, key, id_a, id_b)
            if not cells:
                continue
            cardinality = index.cardinality_of(key)
            if not cardinality:
                continue
            contribution = 1.0 / cardinality
            for _ in range(cells):
                arcs += contribution
        return common, arcs

    def star(self, entity_id: int) -> tuple[dict[int, int], dict[int, float]]:
        """:meth:`pair_stats` of every partner, in the lazy table's shape."""
        stats = {
            partner: self.pair_stats(entity_id, partner)
            for partner in self.partners(entity_id)
        }
        return (
            {partner: common for partner, (common, _) in stats.items()},
            {partner: arcs for partner, (_, arcs) in stats.items()},
        )

    def as_reference_stats(self) -> dict[tuple[str, str], tuple[int, float]]:
        """URI-keyed (common, arcs) of every pair, one pair at a time."""
        uris = self.index.store.interner.uri_table()
        return {
            tuple(sorted((uris[id_a], uris[id_b]))): self.pair_stats(id_a, id_b)
            for id_a, id_b in map(unpack_pair, self.common)
        }
