"""RDF substrate: parsing and loading of Linked Data.

MinoanER resolves entities "described by linked data in the Web (e.g., in
RDF)".  With no network and no third-party RDF stack available, this package
implements the substrate from scratch, for one syntax: N-Triples, the one
LOD dumps such as BTC and DBpedia are published in.

* :mod:`repro.rdf.ntriples` — a line-oriented N-Triples parser/serializer;
* :mod:`repro.rdf.loader` — :func:`load_collection` scans an ``.nt`` file
  straight into an :class:`~repro.model.EntityCollection`, one description
  per subject; :func:`collection_from_triples` groups parsed triples the
  same way, the reference the scanner is tested against.
"""

from repro.rdf.ntriples import (
    Triple,
    NTriplesParseError,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
)
from repro.rdf.loader import collection_from_triples, load_collection

__all__ = [
    "Triple",
    "NTriplesParseError",
    "parse_ntriples",
    "parse_ntriples_line",
    "serialize_ntriples",
    "collection_from_triples",
    "load_collection",
]
