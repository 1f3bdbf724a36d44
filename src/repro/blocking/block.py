"""Blocks, block collections and comparison identities.

Terminology (following the blocking literature the paper builds on):

* a **block** is a set of descriptions sharing a blocking key;
* in **dirty ER** a block holds one entity set and implies all
  ``n·(n−1)/2`` intra-block pairs;
* in **clean-clean ER** (two individually duplicate-free KBs) a block is
  bipartite — ``entities1 × entities2`` — and implies only cross-KB pairs;
* a **comparison** is an unordered description pair; the same comparison
  may be implied by many blocks, and de-duplicating those repetitions is
  exactly what meta-blocking is for.

A :class:`BlockCollection` is columnar at its core: the block keys in
collection order (sorted, for a blocker's output); per side, every block's
member ids concatenated block by block with CSR offsets
(:class:`BlockIdArrays`; a dirty block's side-2 span is empty), members in
collection order; and the interner, whose dense ids follow first placement
(block by block, side 1 before side 2).  Token blocking, purging, filtering
and every backend's snapshot builder write these columns; meta-blocking,
the pruning budgets and the evaluation read them.  A :class:`Block` is a
URI view derived on demand for the string API.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as _np

from repro.model.interner import EntityInterner


def comparison_pair(uri_a: str, uri_b: str) -> tuple[str, str]:
    """Canonical unordered identity of a comparison.

    Raises:
        ValueError: when both URIs are identical (a description is never
            compared with itself).
    """
    if uri_a == uri_b:
        raise ValueError(f"self-comparison: {uri_a!r}")
    return (uri_a, uri_b) if uri_a < uri_b else (uri_b, uri_a)


class Block:
    """One block: a key plus the descriptions it groups.

    For clean-clean ER pass both *entities1* and *entities2*; for dirty ER
    pass only *entities1*.
    """

    __slots__ = ("key", "entities1", "entities2", "_side_overlap")

    def __init__(
        self,
        key: str,
        entities1: Iterable[str],
        entities2: Iterable[str] | None = None,
    ) -> None:
        self.key = key
        self.entities1: list[str] = list(dict.fromkeys(entities1))
        self.entities2: list[str] | None = (
            list(dict.fromkeys(entities2)) if entities2 is not None else None
        )
        # Members are fixed at construction, so the cross-side overlap is
        # computed once here, keeping cardinality() O(1) in hot loops.
        self._side_overlap = (
            len(set(self.entities1) & set(self.entities2))
            if self.entities2 is not None
            else 0
        )

    @property
    def is_bipartite(self) -> bool:
        """True for clean-clean (two-sided) blocks."""
        return self.entities2 is not None

    def __repr__(self) -> str:
        if self.is_bipartite:
            return f"Block({self.key!r}, {len(self.entities1)}x{len(self.entities2 or [])})"
        return f"Block({self.key!r}, {len(self.entities1)})"

    def __len__(self) -> int:
        """Number of entity placements (block assignments) in this block."""
        return len(self.entities1) + (len(self.entities2) if self.entities2 else 0)

    def cardinality(self) -> int:
        """Number of comparisons this block implies.

        For bipartite blocks an entity may appear on both sides (dirty
        input reaching a clean-clean block); ``comparisons()`` skips those
        ``a == b`` pairs, so they are subtracted here to keep ARCS
        contributions and CEP/CNP budgets consistent with the enumerated
        comparisons.
        """
        if self.is_bipartite:
            assert self.entities2 is not None
            return len(self.entities1) * len(self.entities2) - self._side_overlap
        n = len(self.entities1)
        return n * (n - 1) // 2

    def entities(self) -> list[str]:
        """All member URIs (both sides for bipartite blocks)."""
        if self.is_bipartite:
            assert self.entities2 is not None
            return self.entities1 + self.entities2
        return list(self.entities1)

    def comparisons(self) -> Iterator[tuple[str, str]]:
        """Iterate over the implied comparisons (canonical pair order)."""
        if self.is_bipartite:
            assert self.entities2 is not None
            for a in self.entities1:
                for b in self.entities2:
                    if a != b:
                        yield comparison_pair(a, b)
            return
        ents = self.entities1
        for i in range(len(ents)):
            for j in range(i + 1, len(ents)):
                yield comparison_pair(ents[i], ents[j])


def csr_offsets(sizes) -> _np.ndarray:
    """CSR offsets of consecutive spans of *sizes*."""
    offsets = _np.zeros(len(sizes) + 1, dtype=_np.int64)
    _np.cumsum(sizes, out=offsets[1:])
    return offsets


def csr_from_lists(lists: list) -> tuple[_np.ndarray, _np.ndarray]:
    """The concatenated values of int *lists* and their CSR offsets."""
    offsets = csr_offsets(_np.fromiter(map(len, lists), _np.int64, len(lists)))
    return _np.fromiter(chain.from_iterable(lists), _np.int64, int(offsets[-1])), offsets


def span_owners(offsets: _np.ndarray) -> _np.ndarray:
    """The span (block) index of every entry of a CSR layout."""
    return _np.repeat(_np.arange(len(offsets) - 1), _np.diff(offsets))


def _side_overlap(side1, offsets1, side2, offsets2) -> _np.ndarray:
    """Per block, the members sitting on both of its sides."""
    width = int(_np.concatenate([side1, side2]).max(initial=-1)) + 1
    on_side1 = _np.zeros(width, dtype=bool)
    on_side1[side1] = True
    both = _np.flatnonzero(on_side1[side2])  # on side 1 of some block
    owners2 = span_owners(offsets2)[both]
    if len(both):
        keys1 = span_owners(offsets1) * width + side1
        owners2 = owners2[_np.isin(owners2 * width + side2[both], keys1)]
    return _np.bincount(owners2, minlength=len(offsets1) - 1)


def _first_placement(side1, offsets1, side2, offsets2, width: int) -> _np.ndarray:
    """The ids in ``[0, width)`` the blocks place, in first-placement order."""
    total = len(side1) + len(side2)
    first = _np.full(width, total, dtype=_np.int64)
    # Placement order is block by block, side 1 before side 2: a side-1
    # entry is preceded by the side-2 spans of earlier blocks, a side-2
    # entry by the side-1 spans of its own and earlier blocks.
    _np.minimum.at(
        first, side1, _np.arange(len(side1)) + _np.repeat(offsets2[:-1], _np.diff(offsets1))
    )
    _np.minimum.at(
        first, side2, _np.arange(len(side2)) + _np.repeat(offsets1[1:], _np.diff(offsets2))
    )
    placed = _np.flatnonzero(first < total)
    return placed[_np.argsort(first[placed])]


class BlockIdArrays:
    """The member columns of a collection's blocks over dense ids.

    Block *b*'s side-1 members are ``side1[offsets1[b]:offsets1[b + 1]]``,
    likewise for side 2 (a dirty block's side-2 span is empty);
    ``bipartite`` flags clean-clean blocks and ``cardinality`` counts the
    comparisons each block implies.  ``sides`` holds both sides in one
    gatherable array, side-2 spans addressed via ``offsets2_abs``, so a
    single fancy-index serves dirty and bipartite blocks alike.
    """

    __slots__ = (
        "side1", "offsets1", "side2", "offsets2", "sides", "offsets2_abs",
        "bipartite", "cardinality",
    )

    def __init__(self, side1, offsets1, side2, offsets2, bipartite) -> None:
        self.side1, self.offsets1 = side1, offsets1
        self.side2, self.offsets2 = side2, offsets2
        self.bipartite = bipartite
        n1, n2 = _np.diff(offsets1), _np.diff(offsets2)
        # A URI described in both KBs may sit on both sides of a block,
        # and is never compared with itself.
        cross = n1 * n2 - _side_overlap(side1, offsets1, side2, offsets2)
        self.cardinality = _np.where(bipartite, cross, n1 * (n1 - 1) // 2)
        self.sides = _np.concatenate([side1, side2])
        self.offsets2_abs = offsets2 + len(side1)


class BlockCollection:
    """An ordered set of blocks, held as columns (see the module docstring).

    Blockers, purging, filtering and the backends build collections from
    columns with :meth:`from_members` and :meth:`select`.  Blocks passed to
    the constructor or :meth:`add` are laid out as columns on the next
    read.  Every aggregate, id view and the entity → blocks index derives
    from the columns.
    """

    def __init__(self, blocks: Iterable[Block] = (), name: str = "blocks") -> None:
        self.name = name
        self._keys: list[str] = []
        self._interner = EntityInterner()
        empty, start = _np.zeros(0, dtype=_np.int64), _np.zeros(1, dtype=_np.int64)
        self._arrays = BlockIdArrays(empty, start, empty, start, empty.astype(bool))
        #: blocks added through :meth:`add`, laid out on the next read
        self._staged: dict[str, Block] = {}
        self._positions: dict[str, int] | None = None
        self._entity_index: dict[str, list[str]] | None = None
        #: scheme-independent derived views (e.g. the meta-blocking pair
        #: table) keyed by owner; cleared on any mutation.  Consumers must
        #: treat stored values as immutable.
        self.derived_cache: dict = {}
        for block in blocks:
            self.add(block)

    @classmethod
    def from_members(
        cls, name: str, keys: list[str], uris: list[str],
        side1, offsets1, side2, offsets2, bipartite,
    ) -> "BlockCollection":
        """A collection whose member ids index the *uris* table.

        Block *b* is ``keys[b]`` with side-1 members ``uris[i]`` for ``i``
        in ``side1[offsets1[b]:offsets1[b + 1]]``, likewise side 2;
        *bipartite* is one flag for all blocks or one per block.  Members
        are distinct within a side.  Ids naming one URI (say, a URI both
        KBs describe) become one entity, and the entities are numbered
        densely in first-placement order.
        """
        order = _first_placement(side1, offsets1, side2, offsets2, len(uris))
        placed = list(map(uris.__getitem__, order.tolist()))
        out = cls(name=name)
        out._keys = keys
        out._interner = EntityInterner(placed)
        dense = _np.empty(len(uris), dtype=_np.int64)
        dense[order] = out._interner.ids_of(placed)
        out._arrays = BlockIdArrays(
            dense[side1], offsets1, dense[side2], offsets2,
            _np.full(len(keys), bipartite, dtype=bool),
        )
        return out

    def __len__(self) -> int:
        return len(self._keys) + len(self._staged)

    def __iter__(self) -> Iterator[Block]:
        self._laid_out()
        return map(self._block, range(len(self._keys)))

    def __contains__(self, key: str) -> bool:
        return key in self._staged or key in self._position()

    def __getitem__(self, key: str) -> Block:
        self._laid_out()
        return self._block(self._position()[key])

    def __repr__(self) -> str:
        return f"BlockCollection({self.name!r}, {len(self)} blocks)"

    def _position(self) -> dict[str, int]:
        if self._positions is None:
            self._positions = dict(zip(self._keys, range(len(self._keys))))
        return self._positions

    def _block(self, position: int) -> Block:
        """The block at *position* as a URI view."""
        arrays, uris = self._arrays, self._interner.uri_table()
        side1, side2 = (
            [uris[i] for i in side[offsets[position] : offsets[position + 1]].tolist()]
            for side, offsets in ((arrays.side1, arrays.offsets1), (arrays.side2, arrays.offsets2))
        )
        return Block(self._keys[position], side1, side2 if arrays.bipartite[position] else None)

    def _laid_out(self) -> BlockIdArrays:
        """The columns, once the staged blocks are appended to them."""
        if self._staged:
            blocks = [*map(self._block, range(len(self._keys))), *self._staged.values()]
            sides = [[b.entities1 for b in blocks], [b.entities2 or () for b in blocks]]
            sizes = [list(map(len, members)) for members in sides]
            uris = list(chain.from_iterable(chain.from_iterable(sides)))
            self._adopt(BlockCollection.from_members(
                self.name, [block.key for block in blocks], uris,
                _np.arange(sum(sizes[0])), csr_offsets(sizes[0]),
                _np.arange(sum(sizes[0]), len(uris)), csr_offsets(sizes[1]),
                [block.is_bipartite for block in blocks],
            ))
        return self._arrays

    def _adopt(self, other: "BlockCollection") -> None:
        self._keys, self._interner, self._arrays = other._keys, other._interner, other._arrays
        self._staged, self._positions = {}, None
        self._changed()

    def add(self, block: Block) -> None:
        """Append *block*.

        Raises:
            ValueError: on duplicate block keys (keys identify blocks).
        """
        if block.key in self:
            raise ValueError(f"duplicate block key {block.key!r}")
        self._staged[block.key] = block
        self._changed()

    def remove(self, key: str) -> Block:
        """Remove and return the block with *key*."""
        block = self[key]
        keep = _np.ones(len(self), dtype=bool)
        keep[self._position()[key]] = False
        self._adopt(self.select(keep))
        return block

    def _changed(self) -> None:
        self._entity_index = None
        self.derived_cache.clear()

    def select(self, keep, keep1=None, keep2=None, name: str | None = None) -> "BlockCollection":
        """The blocks flagged in *keep* as a new collection.

        *keep1* / *keep2* flag the entries of ``side1`` / ``side2`` of
        :meth:`id_arrays` that stay (default: all of a kept block's).
        """
        arrays = self.id_arrays()
        owners1, owners2 = span_owners(arrays.offsets1), span_owners(arrays.offsets2)
        kept1 = keep[owners1] if keep1 is None else keep1 & keep[owners1]
        kept2 = keep[owners2] if keep2 is None else keep2 & keep[owners2]
        sizes1 = _np.bincount(owners1[kept1], minlength=len(keep))[keep]
        sizes2 = _np.bincount(owners2[kept2], minlength=len(keep))[keep]
        return BlockCollection.from_members(
            self.name if name is None else name,
            [key for key, kept in zip(self._keys, keep.tolist()) if kept],
            self._interner.uri_table(),
            arrays.side1[kept1], csr_offsets(sizes1),
            arrays.side2[kept2], csr_offsets(sizes2),
            arrays.bipartite[keep],
        )

    def keys(self) -> list[str]:
        """Block keys in collection order."""
        return [*self._keys, *self._staged]

    def blocks(self) -> list[Block]:
        """Blocks in collection order."""
        return list(self)

    # -- aggregate measures --------------------------------------------------

    def total_comparisons(self) -> int:
        """Sum of per-block cardinalities (with repetitions)."""
        return int(self.id_arrays().cardinality.sum())

    def distinct_comparisons(self) -> set[tuple[str, str]]:
        """The de-duplicated comparison set (materialized; use on small data)."""
        out: set[tuple[str, str]] = set()
        for block in self:
            out.update(block.comparisons())
        return out

    def total_assignments(self) -> int:
        """Total block assignments (the BC measure's denominator)."""
        return len(self.id_arrays().sides)

    def entity_count(self) -> int:
        """Number of distinct entities placed in at least one block."""
        return len(self.interner())

    # -- inverted index ------------------------------------------------------

    def entity_index(self) -> dict[str, list[str]]:
        """Entity URI → ordered list of keys of blocks containing it.

        A URI view for the string API, derived on first call.
        """
        if self._entity_index is None:
            index: dict[str, list[str]] = {}
            for block in self:
                for uri in block.entities():
                    index.setdefault(uri, []).append(block.key)
            self._entity_index = index
        return self._entity_index

    # -- int-id views --------------------------------------------------------

    def interner(self) -> EntityInterner:
        """Dense ids over every entity placed in at least one block.

        Ids follow first-placement order, matching the key order of
        :meth:`entity_index`.
        """
        self._laid_out()
        return self._interner

    def id_blocks(self) -> list[tuple[list[int], list[int] | None, int]]:
        """Blocks as id lists: ``(ids1, ids2, cardinality)`` per block.

        ``ids2`` is None for dirty (unipartite) blocks.  Entries align
        with iteration order over the collection.
        """
        arrays = self.id_arrays()
        side1, side2 = arrays.side1.tolist(), arrays.side2.tolist()
        bounds1, bounds2 = arrays.offsets1.tolist(), arrays.offsets2.tolist()
        flags = zip(arrays.bipartite.tolist(), arrays.cardinality.tolist())
        return [
            (
                side1[bounds1[b] : bounds1[b + 1]],
                side2[bounds2[b] : bounds2[b + 1]] if bipartite else None,
                cardinality,
            )
            for b, (bipartite, cardinality) in enumerate(flags)
        ]

    def id_arrays(self) -> BlockIdArrays:
        """The member columns over :meth:`interner` ids."""
        return self._laid_out()
