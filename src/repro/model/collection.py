"""Entity collections (knowledge bases) and their derived indexes.

An :class:`EntityCollection` holds the descriptions of one KB (or of a union
of KBs for dirty ER) and materializes the two structures the rest of the
platform needs:

* the **relationship graph** — which descriptions reference which (the
  neighbourhood the progressive *update* phase propagates evidence along);
* per-collection **statistics** — the LOD-cloud shape measurements the
  paper's motivation section quotes (property diversity, vocabulary reuse,
  linkage density).

The relationship graph and the token columns of
:meth:`repro.model.tokenizer.Tokenizer.column` are memoised until the next
:meth:`~EntityCollection.add` / :meth:`~EntityCollection.remove`; editing a
member description in place bypasses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import is_not
from typing import Iterable, Iterator, Sequence

from repro.model.description import URI_PREFIXES, EntityDescription
from repro.model.interner import EntityInterner

_is_description = partial(is_not, None)


@dataclass(frozen=True)
class CollectionStatistics:
    """Shape statistics of a collection (see paper §1's LOD measurements)."""

    description_count: int
    triple_count: int
    property_count: int
    avg_properties_per_description: float
    avg_values_per_description: float
    relationship_count: int
    avg_out_degree: float
    source_count: int


class EntityCollection:
    """A set of entity descriptions with lazy relationship/stat indexes.

    Args:
        descriptions: initial content.
        name: label used in reports (e.g. ``"dbpedia-sample"``).

    The collection preserves insertion order, so iteration and the integer
    ids of :attr:`interner` are deterministic.
    """

    def __init__(
        self,
        descriptions: Iterable[EntityDescription] = (),
        name: str = "collection",
    ) -> None:
        self.name = name
        self._by_uri: dict[str, EntityDescription] = {}
        self._interner = EntityInterner()
        self._references: tuple[list[str], list[str]] | None = None
        self._graph: tuple[dict[str, list[str]], dict[str, list[str]]] | None = None
        #: tokenizer signature → TokenColumn (``Tokenizer.column``'s memo)
        self.token_columns: dict = {}
        for description in descriptions:
            self.add(description)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_uri)

    def __iter__(self) -> Iterator[EntityDescription]:
        # Insertion order, removed URIs skipped: no Python frame per item.
        return filter(_is_description, map(self._by_uri.get, self._interner))

    def __contains__(self, uri: str) -> bool:
        return uri in self._by_uri

    def __getitem__(self, uri: str) -> EntityDescription:
        return self._by_uri[uri]

    # -- construction ----------------------------------------------------------

    def add(self, description: EntityDescription) -> None:
        """Insert *description*; merges attributes if the URI already exists."""
        existing = self._by_uri.get(description.uri)
        if existing is None:
            self._interner.intern(description.uri)
            self._by_uri[description.uri] = description
        else:
            for prop, value in description.pairs():
                existing.add(prop, value)
        self._invalidate()

    def remove(self, uri: str) -> bool:
        """Retract the description with *uri*; returns True if present.

        The interner entry is kept — ids are append-only and stay stable
        so every structure keyed by dense id survives the retraction —
        but the description leaves the live set: iteration, ``len`` and
        lookups no longer see it, and a later :meth:`add` of the same
        URI starts from an empty description at the original insertion
        rank.
        """
        if self._by_uri.pop(uri, None) is None:
            return False
        self._invalidate()
        return True

    def get(self, uri: str) -> EntityDescription | None:
        """Description with *uri*, or None."""
        return self._by_uri.get(uri)

    def uris(self) -> list[str]:
        """Live URIs in insertion order (removed URIs are skipped)."""
        return list(filter(self._by_uri.__contains__, self._interner))

    @property
    def interner(self) -> EntityInterner:
        """The URI ↔ dense-id bijection of the collection (insertion rank).

        The interner is live (not a copy): ids stay stable as long as the
        collection only grows.
        """
        return self._interner

    def _invalidate(self) -> None:
        self._references = self._graph = None
        self.token_columns.clear()

    # -- relationship graph -----------------------------------------------------

    def graph(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """The relationship graph as two maps, URI → out-neighbours and
        URI → in-neighbours, each in description order (memoised; read-only).
        A URI without neighbours on a side is absent from that map."""
        if self._graph is None:
            self._graph = adjacency(*self.references())
        return self._graph

    def references(self) -> tuple[list[str], list[str]]:
        """The relationship graph's edges as two columns, referencing and
        referenced URI, in description-then-value order (memoised;
        read-only): one flat pass keeps each value that looks like a URI
        and names another description of this collection."""
        if self._references is None:
            by_uri = self._by_uri
            edges = [
                (description.uri, value)
                for description in self
                for values in description.attributes().values()
                for value in values
                if value in by_uri and value != description.uri and value.startswith(URI_PREFIXES)
            ]
            self._references = [owner for owner, _ in edges], [target for _, target in edges]
        return self._references

    # -- statistics ----------------------------------------------------------------

    def statistics(self) -> CollectionStatistics:
        """Compute shape statistics (see :class:`CollectionStatistics`)."""
        neighbors, _ = self.graph()
        properties: set[str] = set()
        triple_count = 0
        prop_occurrences = 0
        sources: set[str] = set()
        for description in self:
            props = description.properties()
            properties.update(props)
            prop_occurrences += len(props)
            triple_count += len(description)
            sources.add(description.source)
        n = len(self) or 1
        relationship_count = sum(len(v) for v in neighbors.values())
        return CollectionStatistics(
            description_count=len(self),
            triple_count=triple_count,
            property_count=len(properties),
            avg_properties_per_description=prop_occurrences / n,
            avg_values_per_description=triple_count / n,
            relationship_count=relationship_count,
            avg_out_degree=relationship_count / n,
            source_count=len(sources),
        )


def adjacency(owners: Sequence, targets: Sequence) -> tuple[dict, dict]:
    """Out- and in-neighbour lists of every node of the edges
    ``owners[i] → targets[i]``, in edge order, over URIs or over ids; a
    node without neighbours on a side is absent from that map."""
    out: dict = {}
    inverse: dict = {}
    for owner, target in zip(owners, targets):
        out.setdefault(owner, []).append(target)
        inverse.setdefault(target, []).append(owner)
    return out, inverse

