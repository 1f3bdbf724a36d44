"""Entity description model.

The unit of resolution in the Web of Data is the *entity description*: a URI
plus a set of attribute–value pairs (the subject of a group of RDF triples).
This package defines:

* :class:`~repro.model.description.EntityDescription` — one description;
* :class:`~repro.model.collection.EntityCollection` — a knowledge base (KB)
  of descriptions, with token/statistics indexes and the relationship graph
  connecting descriptions that reference each other (the structure the
  progressive *update* phase walks);
* :class:`~repro.model.interner.EntityInterner` — the URI ↔ dense integer
  id bijection the blocking/meta-blocking hot paths run on;
* URI utilities implementing the prefix/infix/suffix decomposition used by
  URI-aware blocking;
* the tokenizer shared by blocking and matching.
"""

from repro.model.description import EntityDescription
from repro.model.collection import EntityCollection, CollectionStatistics
from repro.model.interner import (
    EntityIdOverflowError,
    EntityInterner,
    pack_pair,
)
from repro.model.namespaces import split_uri, uri_infix, uri_local_name
from repro.model.tokenizer import Tokenizer

__all__ = [
    "EntityDescription",
    "EntityCollection",
    "CollectionStatistics",
    "EntityInterner",
    "EntityIdOverflowError",
    "pack_pair",
    "split_uri",
    "uri_infix",
    "uri_local_name",
    "Tokenizer",
]
