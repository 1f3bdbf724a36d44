"""The blocker interface.

Every blocking method maps one collection (dirty ER) or two collections
(clean-clean ER) to a :class:`~repro.blocking.block.BlockCollection`.
Methods differ only in how they derive blocking keys per description, so
the base class implements the grouping loop and subclasses supply
:meth:`Blocker.keys_for`; a blocker that can group a whole collection at
once (token blocking, from the collection's token column) overrides
:meth:`Blocker.groups` instead, and ``keys_for`` remains its
per-description form for incremental indexes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.blocking.block import Block, BlockCollection
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


class Blocker(ABC):
    """Base class for key-based blocking methods."""

    #: human-readable name used in experiment tables
    name = "blocker"

    @abstractmethod
    def keys_for(self, description: EntityDescription) -> set[str]:
        """The blocking keys of one description."""

    def groups(self, collection: EntityCollection) -> dict[str, list[str]]:
        """Blocking key → member URIs, members in collection order."""
        groups: dict[str, list[str]] = {}
        for description in collection:
            for key in self.keys_for(description):
                groups.setdefault(key, []).append(description.uri)
        return groups

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
        groups1 = self.groups(collection1)
        groups2 = None if collection2 is None else self.groups(collection2)
        if groups2 is None:
            name = collection1.name
            keys = [k for k, m in groups1.items() if len(m) > 1 or not drop_singletons]
        else:
            name = f"{collection1.name},{collection2.name}"
            # A key on one side only makes a one-sided block.
            keys = groups1.keys() & groups2.keys()
            if not drop_singletons:
                keys = groups1.keys() | groups2.keys()
        blocks = BlockCollection(name=f"{self.name}({name})")
        for key in sorted(keys):
            side2 = None if groups2 is None else groups2.get(key, [])
            blocks.add(Block(key, groups1.get(key, []), side2))
        # Entity ids are interned while the members are hot, so the cold
        # meta-blocking path finds its id views ready.
        blocks.id_blocks()
        return blocks
