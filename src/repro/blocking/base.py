"""The blocker interface.

Every blocking method maps one collection (dirty ER) or two collections
(clean-clean ER) to a :class:`~repro.blocking.block.BlockCollection`.
Methods differ only in how they derive blocking keys per description, so
the base class implements the grouping and subclasses supply
:meth:`Blocker.keys_for`; a blocker that can group a whole collection at
once (token blocking, from the collection's token column) overrides
:meth:`Blocker.groups` instead, and ``keys_for`` remains its
per-description form for incremental indexes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat

import numpy as _np

from repro.blocking.block import BlockCollection, csr_from_lists, csr_offsets
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.tokenizer import row_positions

#: a collection grouped by key: key → group number, CSR offsets over the
#: groups and the member rows (indexes into ``collection.uris()``,
#: ascending within a group)
Groups = tuple[dict[str, int], _np.ndarray, _np.ndarray]


class Blocker(ABC):
    """Base class for key-based blocking methods."""

    #: human-readable name used in experiment tables
    name = "blocker"

    @abstractmethod
    def keys_for(self, description: EntityDescription) -> set[str]:
        """The blocking keys of one description."""

    def groups(self, collection: EntityCollection) -> Groups:
        """*collection* grouped by blocking key (see :data:`Groups`)."""
        groups: dict[str, list[int]] = {}
        for row, description in enumerate(collection):
            for key in self.keys_for(description):
                groups.setdefault(key, []).append(row)
        rows, indptr = csr_from_lists(list(groups.values()))
        return dict(zip(groups, range(len(groups)))), indptr, rows

    def build(
        self,
        collection1: EntityCollection,
        collection2: EntityCollection | None = None,
        drop_singletons: bool = True,
    ) -> BlockCollection:
        """Group descriptions by shared keys.

        Args:
            collection1: first (or only) KB.
            collection2: second KB for clean-clean ER; when given, blocks
                are bipartite and only cross-KB comparisons are implied.
            drop_singletons: discard blocks that imply no comparison
                (single-member blocks, or one-sided bipartite blocks).

        Returns:
            The block collection, with deterministic block order (sorted
            keys) for reproducible downstream processing.
        """
        collections = [collection1] if collection2 is None else [collection1, collection2]
        groups = [self.groups(collection) for collection in collections]
        index1 = groups[0][0]
        if collection2 is None:
            sizes = _np.diff(groups[0][1]).tolist()
            keys = [k for k, i in index1.items() if sizes[i] > 1 or not drop_singletons]
        else:
            # A key on one side only makes a one-sided block.
            index2 = groups[1][0]
            keys = index1.keys() & index2.keys()
            if not drop_singletons:
                keys = index1.keys() | index2.keys()
        keys = sorted(keys)
        uris: list[str] = []
        columns = []
        for collection, (index, indptr, rows) in zip(collections, groups):
            # One trailing empty group stands in for every key *index* lacks.
            chosen = map(index.get, keys, repeat(len(index)))
            positions, sizes = row_positions(
                _np.append(indptr, indptr[-1]), _np.fromiter(chosen, _np.int64, len(keys))
            )
            columns += [rows[positions] + len(uris), csr_offsets(sizes)]
            uris += collection.uris()
        if collection2 is None:
            columns += [_np.zeros(0, dtype=_np.int64), _np.zeros(len(keys) + 1, dtype=_np.int64)]
        name = ",".join(collection.name for collection in collections)
        return BlockCollection.from_members(
            f"{self.name}({name})", keys, uris, *columns, collection2 is not None
        )
