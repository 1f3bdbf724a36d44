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
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as _np

from repro.model.interner import EntityInterner, dense_ids


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

    def contains_pair(self, uri_a: str, uri_b: str) -> bool:
        """True if this block implies the comparison (uri_a, uri_b)."""
        if self.is_bipartite:
            assert self.entities2 is not None
            s1, s2 = set(self.entities1), set(self.entities2)
            return (uri_a in s1 and uri_b in s2) or (uri_b in s1 and uri_a in s2)
        members = set(self.entities1)
        return uri_a in members and uri_b in members


class BlockIdArrays:
    """Flat array (CSR-style) view of a collection's blocks over dense ids.

    The layout the vectorized meta-blocking path consumes: all side-1
    members concatenated block by block with an offsets array, likewise
    for side-2 members (dirty blocks contribute an empty side-2 span),
    plus per-block bipartite flags and cardinalities.
    """

    __slots__ = (
        "side1", "offsets1", "side2", "offsets2", "sides", "offsets2_abs",
        "bipartite", "cardinality",
    )

    def __init__(
        self, id_blocks: list[tuple[list[int], list[int] | None, int]]
    ) -> None:
        self.offsets1, self.side1 = _flatten([ids1 for ids1, _, _ in id_blocks])
        self.offsets2, self.side2 = _flatten([ids2 or () for _, ids2, _ in id_blocks])
        self.bipartite = _np.array([ids2 is not None for _, ids2, _ in id_blocks], bool)
        self.cardinality = _np.array([card for *_, card in id_blocks], _np.int64)
        # Both sides in one gatherable array: side-2 spans addressed via
        # offsets2_abs so a single fancy-index serves dirty and bipartite
        # blocks alike.
        self.sides = _np.concatenate([self.side1, self.side2])
        self.offsets2_abs = self.offsets2 + len(self.side1)


def _flatten(lists: list) -> tuple[_np.ndarray, _np.ndarray]:
    """CSR offsets and concatenated values of *lists*."""
    offsets = _np.zeros(len(lists) + 1, dtype=_np.int64)
    _np.cumsum(_np.fromiter(map(len, lists), _np.int64, len(lists)), out=offsets[1:])
    values = _np.fromiter(chain.from_iterable(lists), _np.int64, int(offsets[-1]))
    return offsets, values


class BlockCollection:
    """An ordered set of blocks plus the entity→blocks inverted index.

    The inverted index is what meta-blocking's weighting schemes consume:
    ``blocks_of(e)`` gives the keys of every block containing ``e``, so the
    common-blocks count of a pair is a set intersection.
    """

    def __init__(self, blocks: Iterable[Block] = (), name: str = "blocks") -> None:
        self.name = name
        self._blocks: dict[str, Block] = {}
        self._entity_index: dict[str, list[str]] | None = None
        self._id_views: (
            tuple[EntityInterner, list[tuple[list[int], list[int] | None, int]]] | None
        ) = None
        self._id_arrays: BlockIdArrays | None = None
        #: scheme-independent derived views (e.g. the meta-blocking pair
        #: table) keyed by owner; cleared on any mutation.  Consumers must
        #: treat stored values as immutable.
        self.derived_cache: dict = {}
        for block in blocks:
            self.add(block)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def __getitem__(self, key: str) -> Block:
        return self._blocks[key]

    def __repr__(self) -> str:
        return f"BlockCollection({self.name!r}, {len(self)} blocks)"

    def add(self, block: Block) -> None:
        """Insert *block*.

        Raises:
            ValueError: on duplicate block keys (keys identify blocks).
        """
        if block.key in self._blocks:
            raise ValueError(f"duplicate block key {block.key!r}")
        self._blocks[block.key] = block
        self._invalidate_views()

    def remove(self, key: str) -> Block:
        """Remove and return the block with *key*."""
        block = self._blocks.pop(key)
        self._invalidate_views()
        return block

    def _invalidate_views(self) -> None:
        self._entity_index = None
        self._id_views = None
        self._id_arrays = None
        self.derived_cache.clear()

    def keys(self) -> list[str]:
        """Block keys in insertion order."""
        return list(self._blocks)

    def blocks(self) -> list[Block]:
        """Blocks in insertion order."""
        return list(self._blocks.values())

    # -- aggregate measures --------------------------------------------------

    def total_comparisons(self) -> int:
        """Sum of per-block cardinalities (with repetitions)."""
        return sum(block.cardinality() for block in self)

    def distinct_comparisons(self) -> set[tuple[str, str]]:
        """The de-duplicated comparison set (materialized; use on small data)."""
        out: set[tuple[str, str]] = set()
        for block in self:
            out.update(block.comparisons())
        return out

    def iter_comparisons_with_repetitions(self) -> Iterator[tuple[str, tuple[str, str]]]:
        """Yield ``(block_key, pair)`` for every implied comparison."""
        for block in self:
            for pair in block.comparisons():
                yield block.key, pair

    def total_assignments(self) -> int:
        """Total block assignments (the BC measure's denominator)."""
        return sum(len(block) for block in self)

    def entity_count(self) -> int:
        """Number of distinct entities placed in at least one block."""
        return len(self.entity_index())

    # -- inverted index ------------------------------------------------------

    def entity_index(self) -> dict[str, list[str]]:
        """Entity URI → ordered list of keys of blocks containing it."""
        if self._entity_index is None:
            index: dict[str, list[str]] = {}
            for block in self:
                for uri in block.entities():
                    index.setdefault(uri, []).append(block.key)
            self._entity_index = index
        return self._entity_index

    def blocks_of(self, uri: str) -> list[str]:
        """Keys of the blocks containing *uri* (empty when unindexed)."""
        return list(self.entity_index().get(uri, ()))

    # -- int-id views --------------------------------------------------------

    def prime_id_views(
        self,
        interner: EntityInterner,
        id_blocks: list[tuple[list[int], list[int] | None, int]],
    ) -> None:
        """Adopt id views computed while the blocks were being built.

        Blockers iterate every member anyway, so they intern URIs in
        first-placement order during construction and hand the result
        over here, sparing the cold path a second full pass in
        :meth:`_ensure_id_views`.  Entries must align with iteration
        order and ids must follow first-placement order — exactly what
        :meth:`_ensure_id_views` would have produced.  Any later
        mutation invalidates the primed views as usual.
        """
        self._id_views = (interner, id_blocks)

    def _ensure_id_views(
        self,
    ) -> tuple[EntityInterner, list[tuple[list[int], list[int] | None, int]]]:
        if self._id_views is None:
            entity_ids = dense_ids()
            intern = entity_ids.__getitem__
            id_blocks: list[tuple[list[int], list[int] | None, int]] = []
            for block in self:
                ids1 = list(map(intern, block.entities1))
                ids2 = block.entities2
                if ids2 is not None:
                    ids2 = list(map(intern, ids2))
                id_blocks.append((ids1, ids2, block.cardinality()))
            self._id_views = (EntityInterner(entity_ids), id_blocks)
        return self._id_views

    def interner(self) -> EntityInterner:
        """Dense ids over every entity placed in at least one block.

        Ids follow first-placement order, matching the key order of
        :meth:`entity_index`.  The interner (like every id view) is
        rebuilt lazily after :meth:`add`/:meth:`remove`.
        """
        return self._ensure_id_views()[0]

    def id_blocks(self) -> list[tuple[list[int], list[int] | None, int]]:
        """Blocks as id-arrays: ``(ids1, ids2, cardinality)`` per block.

        ``ids2`` is None for dirty (unipartite) blocks.  Entries align
        with iteration order over the collection.
        """
        return self._ensure_id_views()[1]

    def id_arrays(self) -> BlockIdArrays:
        """CSR-style numpy view of the blocks.

        Like the other id views this is a pure re-layout of the block
        structure, built lazily and invalidated on mutation.
        """
        if self._id_arrays is None:
            self._id_arrays = BlockIdArrays(self._ensure_id_views()[1])
        return self._id_arrays

    def comparisons_in_common(self, uri_a: str, uri_b: str) -> int:
        """Number of blocks containing both descriptions."""
        index = self.entity_index()
        blocks_a = set(index.get(uri_a, ()))
        if not blocks_a:
            return 0
        return sum(1 for key in index.get(uri_b, ()) if key in blocks_a)
