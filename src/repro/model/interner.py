"""URI ↔ dense integer id interning.

Every hot loop in blocking and meta-blocking is, at bottom, a loop over
entity identities.  Hashing and comparing full URI strings (and
allocating a tuple per pair) in those loops is the dominant constant
factor, so the platform interns URIs to dense integer ids once and runs
the loops over ints: a pair packs into a single ``a << 32 | b`` integer,
per-entity aggregates become flat lists indexed by id, and URIs are
translated back only at the public-API boundary.

The interner is append-only: ids are assigned in first-seen order and
never change, so any index built against it stays valid as long as the
underlying collection is not mutated.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

#: number of bits reserved for the low id in a packed pair
PAIR_SHIFT = 32
#: mask extracting the low id from a packed pair
PAIR_MASK = (1 << PAIR_SHIFT) - 1
#: ids an interner may assign: the smaller id of a pair is shifted into
#: the high half, and ``id << PAIR_SHIFT`` stays a non-negative int64
#: only below this
MAX_ENTITIES = 1 << (PAIR_SHIFT - 1)


class EntityIdOverflowError(ValueError):
    """An interner was asked for more ids than a packed pair can hold."""


def dense_ids() -> defaultdict:
    """A dict giving each missing key the next dense id: ``map(d.__getitem__,
    keys)`` interns in C; a ``default_factory`` of None freezes it."""
    ids: defaultdict = defaultdict()
    ids.default_factory = ids.__len__
    return ids


def pack_pair(id_a: int, id_b: int) -> int:
    """Canonical packed identity of an unordered id pair.

    The smaller id occupies the high bits so packed pairs sort like
    ``(min, max)`` tuples.

    >>> pack_pair(3, 1) == pack_pair(1, 3)
    True
    >>> unpack_pair(pack_pair(1, 3))
    (1, 3)
    """
    if id_a < id_b:
        return (id_a << PAIR_SHIFT) | id_b
    return (id_b << PAIR_SHIFT) | id_a


def unpack_pair(key: int) -> tuple[int, int]:
    """Invert :func:`pack_pair` into the ``(min_id, max_id)`` tuple."""
    return key >> PAIR_SHIFT, key & PAIR_MASK


class EntityInterner:
    """A bijection between URIs and dense integer ids.

    Ids are assigned in first-intern order starting at 0, so an interner
    doubles as an ordered set of URIs: iterating yields URIs in id order
    and ``uris()[i]`` is the URI of id ``i``.

    >>> interner = EntityInterner(["a", "b"])
    >>> interner.intern("a")
    0
    >>> interner.intern("c")
    2
    >>> interner.uri_of(1)
    'b'
    """

    __slots__ = ("_ids", "_uris")

    def __init__(self, uris: Iterable[str] = ()) -> None:
        self._uris: list[str] = list(dict.fromkeys(uris))
        if len(self._uris) > MAX_ENTITIES:
            raise EntityIdOverflowError(
                f"cannot intern {self._uris[MAX_ENTITIES]!r}: {MAX_ENTITIES} ids "
                f"are assigned and a packed pair holds no larger one"
            )
        self._ids: dict[str, int] = dict(zip(self._uris, range(len(self._uris))))

    def __len__(self) -> int:
        return len(self._uris)

    def __contains__(self, uri: str) -> bool:
        return uri in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._uris)

    def __repr__(self) -> str:
        return f"EntityInterner({len(self)} entities)"

    def intern(self, uri: str) -> int:
        """Id of *uri*, assigning the next dense id on first sight.

        Raises:
            EntityIdOverflowError: when the next id would not fit the
                ``a << 32 | b`` pair packing; the interner is unchanged.
        """
        existing = self._ids.get(uri)
        if existing is not None:
            return existing
        new_id = len(self._uris)
        if new_id >= MAX_ENTITIES:
            raise EntityIdOverflowError(
                f"cannot intern {uri!r}: {MAX_ENTITIES} ids are assigned and "
                f"a packed pair holds no larger one"
            )
        self._ids[uri] = new_id
        self._uris.append(uri)
        return new_id

    def id_of(self, uri: str) -> int:
        """Id of an already-interned URI.

        Raises:
            KeyError: if *uri* was never interned.
        """
        return self._ids[uri]

    def ids_of(self, uris: Iterable[str]) -> list[int]:
        """Ids of already-interned URIs (KeyError for one never interned)."""
        return list(map(self._ids.__getitem__, uris))

    def get(self, uri: str, default: int = -1) -> int:
        """Id of *uri*, or *default* when unknown."""
        return self._ids.get(uri, default)

    def uri_of(self, entity_id: int) -> str:
        """URI of *entity_id*.

        Raises:
            IndexError: for ids never assigned.
        """
        return self._uris[entity_id]

    def uris(self) -> list[str]:
        """All URIs, indexed by id (the returned list is a copy)."""
        return list(self._uris)

    def uri_table(self) -> list[str]:
        """The internal id → URI table (NOT a copy; do not mutate)."""
        return self._uris
