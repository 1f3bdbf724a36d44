"""Blockers lay out the id columns themselves (the cold-path lever).

A build writes the block columns and the first-placement interner
directly, so meta-blocking finds its id views ready; they equal what
laying out the derived ``Block`` views from scratch produces.
"""

from __future__ import annotations

from repro.blocking import block as block_module
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.token_blocking import TokenBlocking
from repro.datasets import load_movies


def lazily_derived(blocks):
    """The id views of a copy laid out from the derived Block views."""
    clone = block_module.BlockCollection(blocks.blocks(), name=blocks.name)
    return clone.interner(), clone.id_blocks()


class TestPrimedIdViews:
    def test_build_primes_id_views(self, monkeypatch):
        kb1, kb2, _ = load_movies()
        built = []
        init = block_module.Block.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(block_module.Block, "__init__", counting_init)
        blocks = TokenBlocking().build(kb1, kb2)
        assert len(blocks.id_arrays().cardinality) == len(blocks)
        assert built == []  # no Block was built, nor laid out lazily

    def test_primed_views_equal_lazy_derivation(self):
        kb1, kb2, _ = load_movies()
        for blocker in (TokenBlocking(), QGramsBlocking(q=3)):
            blocks = blocker.build(kb1, kb2)
            lazy_interner, lazy_blocks = lazily_derived(blocks)
            assert blocks.interner().uris() == lazy_interner.uris()
            assert blocks.id_blocks() == lazy_blocks

    def test_dirty_build_primes_too(self):
        kb1, _, _ = load_movies()
        blocks = TokenBlocking().build(kb1)
        lazy_interner, lazy_blocks = lazily_derived(blocks)
        assert blocks.interner().uris() == lazy_interner.uris()
        assert blocks.id_blocks() == lazy_blocks

    def test_mutation_invalidates_primed_views(self):
        kb1, kb2, _ = load_movies()
        blocks = TokenBlocking().build(kb1, kb2)
        blocks.add(block_module.Block("fresh-key", ["http://e/x", "http://e/y"]))
        assert len(blocks.id_blocks()) == len(blocks)
        assert "http://e/x" in blocks.interner()
