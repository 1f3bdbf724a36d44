"""Tests for the URI ↔ dense-id interner and packed pairs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.interner import EntityInterner, pack_pair, unpack_pair


class TestInterner:
    def test_dense_first_seen_ids(self):
        interner = EntityInterner()
        assert interner.intern("b") == 0
        assert interner.intern("a") == 1
        assert interner.intern("b") == 0

    def test_lookup_round_trip(self):
        interner = EntityInterner(["x", "y"])
        assert interner.id_of("y") == 1
        assert interner.uri_of(1) == "y"
        assert interner.get("nope") == -1
        with pytest.raises(KeyError):
            interner.id_of("nope")

    def test_iteration_in_id_order(self):
        interner = EntityInterner(["c", "a", "b"])
        assert list(interner) == ["c", "a", "b"]
        assert interner.uris() == ["c", "a", "b"]
        assert len(interner) == 3
        assert "a" in interner and "z" not in interner

    @given(st.lists(st.text(min_size=1, max_size=6)))
    def test_bijection(self, uris):
        interner = EntityInterner(uris)
        for uri in uris:
            assert interner.uri_of(interner.id_of(uri)) == uri
        assert len(interner) == len(set(uris))


class TestPackedPairs:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_pack_unpack_round_trip(self, a, b):
        low, high = min(a, b), max(a, b)
        assert unpack_pair(pack_pair(a, b)) == (low, high)
        assert pack_pair(a, b) == pack_pair(b, a)

    def test_packed_order_matches_tuple_order(self):
        pairs = [(0, 5), (1, 2), (0, 1), (3, 4)]
        packed = sorted(pack_pair(a, b) for a, b in pairs)
        assert [unpack_pair(k) for k in packed] == sorted(pairs)


class TestCollectionInterner:
    def test_collection_exposes_interner(self):
        collection = EntityCollection(
            [EntityDescription(f"http://e/{i}", {"p": ["v"]}) for i in range(3)]
        )
        assert collection.interner.id_of("http://e/2") == 2
        assert collection.index_of("http://e/1") == collection.interner.id_of(
            "http://e/1"
        )

    def test_ids_stable_under_growth(self):
        collection = EntityCollection([EntityDescription("http://e/a", {"p": ["v"]})])
        first = collection.index_of("http://e/a")
        collection.add(EntityDescription("http://e/b", {"p": ["v"]}))
        assert collection.index_of("http://e/a") == first


class TestBlockCollectionIdViews:
    def collection(self) -> BlockCollection:
        return BlockCollection(
            [
                Block("k1", ["a", "b"]),
                Block("k2", ["b", "c"], ["c", "d"]),
            ]
        )

    def test_id_blocks_align_with_blocks(self):
        blocks = self.collection()
        interner = blocks.interner()
        (ids1_a, ids2_a, card_a), (ids1_b, ids2_b, card_b) = blocks.id_blocks()
        assert [interner.uri_of(i) for i in ids1_a] == ["a", "b"]
        assert ids2_a is None and card_a == 1
        assert [interner.uri_of(i) for i in ids1_b] == ["b", "c"]
        assert ids2_b is not None
        assert [interner.uri_of(i) for i in ids2_b] == ["c", "d"]
        # 2x2 cross pairs minus the (c, c) self-pair.
        assert card_b == 3

    def test_views_invalidated_on_mutation(self):
        blocks = self.collection()
        assert len(blocks.interner()) == 4
        blocks.add(Block("k3", ["e", "f"]))
        assert len(blocks.interner()) == 6
        blocks.remove("k3")
        assert len(blocks.interner()) == 4


class TestIdOverflow:
    """One typed check where ids are born covers every packing site."""

    def test_interner_rejects_the_id_that_would_not_pack(self, monkeypatch):
        from repro import EntityIdOverflowError
        from repro.model import interner as module

        assert module.MAX_ENTITIES == 1 << (module.PAIR_SHIFT - 1)
        monkeypatch.setattr(module, "MAX_ENTITIES", 4)
        interner = EntityInterner(["a", "b", "c", "d"])
        with pytest.raises(EntityIdOverflowError) as caught:
            interner.intern("e")
        assert isinstance(caught.value, ValueError)
        assert "'e'" in str(caught.value)
        # Unchanged, and the hit path still answers at the limit.
        assert len(interner) == 4 and "e" not in interner
        assert interner.get("e") == -1
        assert interner.intern("d") == 3
        with pytest.raises(EntityIdOverflowError):
            EntityInterner("abcde")

    def test_scheduler_and_blocks_are_covered(self, monkeypatch):
        from repro import EntityIdOverflowError
        from repro.core.benefit import QuantityBenefit
        from repro.core.engine import ResolutionContext
        from repro.core.scheduler import ComparisonScheduler
        from repro.model import interner as module

        collection = EntityCollection(
            [EntityDescription(f"http://e/{i}", {"p": ["v"]}) for i in range(4)]
        )
        monkeypatch.setattr(module, "MAX_ENTITIES", 4)
        scheduler = ComparisonScheduler(QuantityBenefit(), ResolutionContext([collection]))
        scheduler.schedule("http://e/0", "http://e/1", 1.0)
        scheduler.schedule("http://e/2", "http://e/3", 1.0)
        with pytest.raises(EntityIdOverflowError):
            scheduler.schedule("http://e/0", "http://e/4", 1.0)
        assert len(scheduler) == 2
        blocks = BlockCollection([Block("k", ["a", "b", "c"]), Block("l", ["d", "e"])])
        with pytest.raises(EntityIdOverflowError):
            blocks.id_blocks()
        with pytest.raises(EntityIdOverflowError):
            collection.add(EntityDescription("http://e/4", {"p": ["v"]}))
        assert len(collection) == 4 and "http://e/4" not in collection
