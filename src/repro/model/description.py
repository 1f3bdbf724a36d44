"""The entity description: URI + attribute–value pairs.

An entity description corresponds to the set of RDF triples sharing a
subject URI.  Values are either literals (strings) or URIs of other
descriptions; the latter induce the *relationship graph* that MinoanER's
update phase exploits as similarity evidence.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class EntityDescription:
    """A single entity description.

    Attributes are multi-valued: the same property may appear with several
    values (common in RDF).  The class is deliberately schema-agnostic — the
    Web-of-data setting means no attribute alignment can be assumed.

    Args:
        uri: the description's identifier.
        attributes: mapping of property → iterable of values.  Values are
            stored as strings; use :meth:`object_references` to find values
            that are themselves URIs of other descriptions.
        source: identifier of the KB this description came from (used by
            clean-clean ER to avoid intra-source comparisons).

    >>> d = EntityDescription("http://ex.org/e1", {"name": ["Alice"]})
    >>> d.values()
    ['Alice']
    """

    __slots__ = ("uri", "source", "_attributes")

    def __init__(
        self,
        uri: str,
        attributes: dict[str, Iterable[str]] | None = None,
        source: str = "",
    ) -> None:
        if not uri:
            raise ValueError("an entity description requires a non-empty URI")
        self.uri = uri
        self.source = source
        self._attributes: dict[str, list[str]] = {}
        if attributes:
            for prop, values in attributes.items():
                for value in values:
                    self.add(prop, value)

    # -- construction ------------------------------------------------------

    def add(self, prop: str, value: str) -> None:
        """Append *value* under *prop* (duplicates are kept once)."""
        if not prop:
            raise ValueError("property name must be non-empty")
        values = self._attributes.setdefault(prop, [])
        if value not in values:
            values.append(value)

    # -- inspection ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"EntityDescription({self.uri!r}, {len(self._attributes)} props)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityDescription):
            return NotImplemented
        return self.uri == other.uri and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self.uri)

    def __len__(self) -> int:
        """Number of attribute–value pairs."""
        return sum(len(v) for v in self._attributes.values())

    def properties(self) -> list[str]:
        """The property names used by this description."""
        return list(self._attributes)

    def attributes(self) -> dict[str, list[str]]:
        """The property → values mapping itself (live; only a loader
        filling a fresh description may mutate it)."""
        return self._attributes

    def get(self, prop: str) -> list[str]:
        """Values of *prop* (empty list if absent)."""
        return list(self._attributes.get(prop, ()))

    def first(self, prop: str, default: str = "") -> str:
        """First value of *prop*, or *default*."""
        values = self._attributes.get(prop)
        return values[0] if values else default

    def values(self) -> list[str]:
        """All attribute values, in property-then-insertion order."""
        out: list[str] = []
        for vals in self._attributes.values():
            out.extend(vals)
        return out

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Iterate over ``(property, value)`` pairs."""
        for prop, vals in self._attributes.items():
            for value in vals:
                yield prop, value

    def literal_pairs(self) -> Iterator[tuple[str, str]]:
        """``(property, value)`` pairs whose value is not a URI."""
        for prop, value in self.pairs():
            if not _looks_like_uri(value):
                yield prop, value

    def object_references(self) -> list[str]:
        """Values that look like URIs — candidate links to other descriptions.

        The relationship graph of an :class:`~repro.model.collection.
        EntityCollection` is built from these.
        """
        return [v for v in self.values() if _looks_like_uri(v)]

    def literal_values(self) -> list[str]:
        """Values that are not URIs (the text content used for blocking)."""
        return [v for v in self.values() if not _looks_like_uri(v)]

    def copy(self) -> "EntityDescription":
        """Deep copy (new attribute lists)."""
        clone = EntityDescription(self.uri, source=self.source)
        for prop, vals in self._attributes.items():
            clone._attributes[prop] = list(vals)
        return clone


URI_PREFIXES = ("http://", "https://", "urn:")  #: a value so prefixed names a resource


def _looks_like_uri(value: str) -> bool:
    return value.startswith(URI_PREFIXES)
