"""The tokenizer shared by blocking and token-based similarity.

Token blocking and the schema-agnostic similarity functions both view a
description as a bag of normalized tokens drawn from its literal values and
(optionally) its URI infix.  Centralizing tokenization here guarantees the
two stages agree on what a "common token" is — the invariant the
meta-blocking weighting schemes rely on.

A batch job reads that bag twice (token blocking, then the TF-IDF
index), so :meth:`Tokenizer.column` tokenises a collection once into a
:class:`TokenColumn` of CSR token-id rows, memoised on the collection
until it next mutates.  The per-description calls serve
the streaming path, whose collections change on every event.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING

import numpy as _np

from repro.model.description import EntityDescription
from repro.model.interner import dense_ids
from repro.model.namespaces import uri_infix
from repro.utils.text import token_split

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.collection import EntityCollection


class TokenColumn:
    """One tokenisation pass over a collection, as CSR rows.

    Row ``r`` is ``uris[r]`` (collection order); its distinct tokens are
    ``ids[indptr[r]:indptr[r + 1]]`` in first-occurrence order, with their
    multiplicities at the same positions of ``counts``; ``vocabulary[i]``
    is the token of id ``i``.  Read-only: the collection's memo shares it.
    """

    def __init__(self, collection: "EntityCollection", tokenizer: "Tokenizer") -> None:
        self.uris: list[str] = collection.uris()
        bags = list(map(tokenizer.tokens, collection))
        token_ids = dense_ids()
        flat = _np.fromiter(map(token_ids.__getitem__, chain(*bags)), _np.int64)
        token_ids.default_factory = None  # breaks the dict's reference cycle
        self.vocabulary: list[str] = list(token_ids)
        width = max(len(self.vocabulary), 1)
        rows = _np.repeat(_np.arange(len(bags)), list(map(len, bags)))
        keys, first, counts = _np.unique(
            rows * width + flat, return_index=True, return_counts=True
        )
        # Repeats fold into one (row, token) key each; ordering the keys by
        # first position keeps rows contiguous and in first-occurrence order.
        order = _np.argsort(first, kind="stable")
        self.ids: _np.ndarray = keys[order] % width
        self.counts: _np.ndarray = counts[order]
        self.indptr: _np.ndarray = _np.zeros(len(bags) + 1, dtype=_np.int64)
        sizes = _np.bincount(keys // width, minlength=len(bags))
        _np.cumsum(sizes, out=self.indptr[1:])

    def postings(self) -> tuple[_np.ndarray, _np.ndarray]:
        """``(indptr, rows)``: the rows holding token *i* are
        ``rows[indptr[i]:indptr[i + 1]]``, ascending."""
        rows = _np.repeat(_np.arange(len(self.uris)), _np.diff(self.indptr))
        indptr = _np.zeros(len(self.vocabulary) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(self.ids, minlength=len(self.vocabulary)), out=indptr[1:])
        return indptr, rows[_np.argsort(self.ids, kind="stable")]


def row_positions(indptr: _np.ndarray, rows: _np.ndarray) -> tuple:
    """Positions of the CSR entries of *rows*, row after row, and row sizes."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    ends = _np.cumsum(sizes)
    shift = _np.repeat(starts - (ends - sizes), sizes)
    return _np.arange(len(shift)) + shift, sizes


class Tokenizer:
    """Configurable description → token-bag mapper.

    Args:
        min_token_length: drop tokens shorter than this many characters.
        include_uri_infix: also emit tokens from the description URI's
            infix (MinoanER: "a common token in their descriptions or
            URIs").
        include_reference_infixes: also emit tokens from the infixes of
            URI-valued attributes — neighbour names often leak entity
            evidence (e.g. ``dbpedia:Stanley_Kubrick`` as director).
    """

    def __init__(
        self,
        min_token_length: int = 2,
        include_uri_infix: bool = True,
        include_reference_infixes: bool = False,
    ) -> None:
        if min_token_length < 1:
            raise ValueError("min_token_length must be >= 1")
        self.min_token_length = min_token_length
        self.include_uri_infix = include_uri_infix
        self.include_reference_infixes = include_reference_infixes

    def tokens(self, description: EntityDescription) -> list[str]:
        """All tokens of *description*, duplicates preserved."""
        out: list[str] = []
        for value in description.literal_values():
            out.extend(token_split(value, self.min_token_length))
        if self.include_uri_infix:
            out.extend(token_split(uri_infix(description.uri), self.min_token_length))
        if self.include_reference_infixes:
            for ref in description.object_references():
                out.extend(token_split(uri_infix(ref), self.min_token_length))
        return out

    def token_set(self, description: EntityDescription) -> frozenset[str]:
        """Distinct tokens of *description* (blocking keys)."""
        return frozenset(self.tokens(description))

    def token_counts(self, description: EntityDescription) -> Counter:
        """Token multiplicities (for TF-IDF style similarity)."""
        return Counter(self.tokens(description))

    def column(self, collection: "EntityCollection") -> TokenColumn:
        """*collection*'s :class:`TokenColumn`: one :meth:`tokens` call per
        description, memoised on the collection per tokenizer signature."""
        memo = collection.token_columns
        signature = (type(self), self.min_token_length, self.include_uri_infix,
                     self.include_reference_infixes)
        if signature not in memo:
            memo[signature] = TokenColumn(collection, self)
        return memo[signature]
