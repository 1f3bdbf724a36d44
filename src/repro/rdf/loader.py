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
from repro.rdf.turtle import parse_turtle

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def collection_from_triples(
    triples: Iterable[Triple],
    name: str = "collection",
    source: str = "",
    skip_blank_nodes: bool = True,
    skip_rdf_type: bool = False,
) -> EntityCollection:
    """Group *triples* by subject into an :class:`EntityCollection`.

    Args:
        triples: statements to group.
        name: collection label.
        source: source tag stamped on every description (defaults to *name*).
        skip_blank_nodes: drop triples whose subject is a blank node —
            blank nodes are document-scoped and not resolvable entities.
        skip_rdf_type: drop ``rdf:type`` statements (types are often
            KB-specific noise for schema-agnostic blocking; keep them by
            default since attribute-clustering blocking can exploit them).
    """
    source = source or name
    collection = EntityCollection(name=name)
    if skip_rdf_type:
        triples = (t for t in triples if t.predicate != _RDF_TYPE)
    # Dumps list a subject's statements together: touch the collection once
    # per run of equal subjects, not once per statement.
    for subject, statements in groupby(triples, key=attrgetter("subject")):
        description = _description_of(collection, subject, source, skip_blank_nodes)
        if description is not None:
            add = description.add
            for triple in statements:
                add(triple.predicate, triple.object)
    return collection


def _description_of(
    collection: EntityCollection, subject: str, source: str, skip_blank_nodes: bool
) -> EntityDescription | None:
    """The description of *subject*, added on first sight; None for a
    skipped blank node."""
    if skip_blank_nodes and subject.startswith("_:"):
        return None
    description = collection.get(subject)
    if description is None:
        description = EntityDescription(subject, source=source)
        collection.add(description)
    return description


def load_collection(
    path: str,
    name: str = "",
    source: str = "",
    **kwargs,
) -> EntityCollection:
    """Load an entity collection from an ``.nt`` or ``.ttl`` file.

    The syntax is chosen by file extension, compared case-insensitively;
    a UTF-8 byte-order mark is skipped.  Additional keyword arguments are
    those of :func:`collection_from_triples`, whose result over the parsed
    statements this equals.

    Raises:
        ValueError: for unsupported extensions.
        NTriplesParseError: on a malformed statement (a ``ValueError``).
        OSError: if the file cannot be read.
    """
    base = os.path.basename(path)
    stem, ext = os.path.splitext(base)
    name = name or stem
    ext = ext.lower()
    if ext not in (".nt", ".ntriples", ".ttl", ".turtle"):
        raise ValueError(f"unsupported RDF extension {ext!r} (use .nt or .ttl)")
    # utf-8-sig: a byte-order mark is not part of the first statement.
    with open(path, "r", encoding="utf-8-sig") as handle:
        if ext in (".nt", ".ntriples"):
            return _scan_ntriples(handle, name, source or name, **kwargs)
        return collection_from_triples(parse_turtle(handle.read()), name, source, **kwargs)


def _scan_ntriples(
    lines: Iterable[str],
    name: str,
    source: str,
    skip_blank_nodes: bool = True,
    skip_rdf_type: bool = False,
) -> EntityCollection:
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
        if skip_rdf_type and predicate == _RDF_TYPE:
            continue
        # Dumps list a subject's statements together: touch the collection
        # once per run of equal subjects, not once per statement.
        if line_subject != subject:
            subject = line_subject
            description = _description_of(collection, subject, source, skip_blank_nodes)
            attributes = None if description is None else description.attributes()
        if attributes is not None:
            values = attributes.get(predicate)
            if values is None:
                attributes[predicate] = [value]
            elif value not in values:  # EntityDescription.add, inlined
                values.append(value)
    return collection
