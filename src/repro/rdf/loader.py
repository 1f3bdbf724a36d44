"""Turn RDF triples into entity collections.

Grouping triples by subject yields one entity description per subject URI —
the standard Web-of-data framing of ER input (Christophides, Efthymiou,
Stefanidis, *Entity Resolution in the Web of Data*, 2015).  Predicates
become attribute names; IRI objects stay IRIs (feeding the relationship
graph), literal objects become attribute values.
"""

from __future__ import annotations

import os
from itertools import groupby
from operator import attrgetter
from typing import Iterable

from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.rdf.ntriples import _STATEMENT, Triple, _read_line


def collection_from_triples(
    triples: Iterable[Triple], name: str = "collection"
) -> EntityCollection:
    """Group *triples* by subject into an :class:`EntityCollection` named
    *name*, with *name* as every description's source.

    Blank-node subjects are skipped: they are document-scoped, not
    resolvable entities.  ``rdf:type`` statements are kept, since
    attribute-clustering blocking can exploit them.
    """
    collection = EntityCollection(name=name)
    # Dumps list a subject's statements together: touch the collection once
    # per run of equal subjects, not once per statement.
    for subject, statements in groupby(triples, key=attrgetter("subject")):
        description = _description_of(collection, subject)
        if description is not None:
            add = description.add
            for triple in statements:
                add(triple.predicate, triple.object)
    return collection


def _description_of(collection: EntityCollection, subject: str) -> EntityDescription | None:
    """The description of *subject*, added on first sight; None for a
    skipped blank node."""
    if subject.startswith("_:"):
        return None
    description = collection.get(subject)
    if description is None:
        description = EntityDescription(subject, source=collection.name)
        collection.add(description)
    return description


def load_collection(path: str, name: str = "") -> EntityCollection:
    """Load an entity collection from an N-Triples (``.nt``) file, named
    *name* (the file's stem by default).

    The extension compares case-insensitively; a UTF-8 byte-order mark is
    skipped.  The result equals :func:`collection_from_triples` over
    :func:`~repro.rdf.ntriples.parse_ntriples` of the text.

    Raises:
        ValueError: for an extension other than ``.nt`` / ``.ntriples``.
        NTriplesParseError: on a malformed statement (a ``ValueError``).
        OSError: if the file cannot be read.
    """
    stem, ext = os.path.splitext(os.path.basename(path))
    if ext.lower() not in (".nt", ".ntriples"):
        raise ValueError(f"unsupported RDF extension {ext.lower()!r} (use .nt)")
    # utf-8-sig: a byte-order mark is not part of the first statement.
    with open(path, "r", encoding="utf-8-sig") as handle:
        return _scan_ntriples(handle, name or stem)


def _scan_ntriples(lines: Iterable[str], name: str) -> EntityCollection:
    """:func:`collection_from_triples` over ``parse_ntriples(lines)``, in one
    pass that streams the lines: a plain statement line is read from the
    groups of its match, and only an escaped, indented, comment, blank or
    malformed line takes the per-line parser."""
    collection = EntityCollection(name=name)
    match_line = _STATEMENT.fullmatch
    subject = None
    attributes = None  # the current subject's, or None while it is skipped
    for number, line in enumerate(lines, start=1):
        match = match_line(line, 0, len(line) - line.endswith("\n"))
        if match is not None and "\\" not in line:
            s_iri, s_bnode, predicate, o_iri, o_bnode, literal, _, _ = match.groups()
            line_subject = s_iri or s_bnode
            value = o_iri or o_bnode or literal
        else:
            triple = _read_line(line, number)
            if triple is None:
                continue
            line_subject, predicate, value = triple.subject, triple.predicate, triple.object
        # Dumps list a subject's statements together: touch the collection
        # once per run of equal subjects, not once per statement.
        if line_subject != subject:
            subject = line_subject
            description = _description_of(collection, subject)
            attributes = None if description is None else description.attributes()
        if attributes is not None:
            values = attributes.get(predicate)
            if values is None:
                attributes[predicate] = [value]
            elif value not in values:  # EntityDescription.add, inlined
                values.append(value)
    return collection
