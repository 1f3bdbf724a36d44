"""Token blocking: one block per distinct value token.

The baseline schema-agnostic method (Papadakis et al.; used as the first
stage of MinoanER's pipeline): every distinct token appearing in any
attribute value — and, per the paper, optionally in the description URI —
becomes a blocking key.  Matching descriptions that share *any* token are
guaranteed to co-occur in at least one block, which gives token blocking
its high recall (and its enormous number of repeated comparisons, which
meta-blocking then prunes).

A batch build joins the two collections' token columns (the copy the
TF-IDF index reads too) on their vocabularies and gathers each shared
token's postings straight into the block columns — no URI list is built;
:meth:`TokenBlocking.keys_for` serves the streaming index's per-insert
path.
"""

from __future__ import annotations

from repro.blocking.base import Blocker, Groups
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.tokenizer import Tokenizer


class TokenBlocking(Blocker):
    """Schema-agnostic token blocking.

    Args:
        tokenizer: token extractor; defaults to a tokenizer that also mines
            URI-infix tokens, per MinoanER ("a common token in their
            descriptions or URIs").
    """

    name = "token-blocking"

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self.tokenizer = tokenizer or Tokenizer(include_uri_infix=True)

    def keys_for(self, description: EntityDescription) -> set[str]:
        return set(self.tokenizer.token_set(description))

    def groups(self, collection: EntityCollection) -> Groups:
        column = self.tokenizer.column(collection)
        return dict(zip(column.vocabulary, range(len(column.vocabulary)))), *column.postings()
