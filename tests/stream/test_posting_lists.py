"""Array-backed posting lists: growth, sort markers, no redundant work.

The incremental index keeps each key's postings in contiguous int64
arrays and re-sorts lazily only the (key, side) pairs a merge straggler
actually disturbed — clearing the marker once sorted.  The
``resort_count`` counter makes that observable: repeated snapshots (with
or without straggler-free inserts in between) must do zero additional
sort work.
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.description import EntityDescription
from repro.stream import IncrementalBlockIndex, StreamingEntityStore


def _entity(i: int, tokens: str) -> EntityDescription:
    return EntityDescription(f"http://e/{i}", {"p": [tokens]})


def _fresh_index() -> tuple[StreamingEntityStore, IncrementalBlockIndex]:
    store = StreamingEntityStore(sources=("kb",))
    return store, IncrementalBlockIndex(store)


class TestArrayBackedPostings:
    def test_postings_are_int64_arrays(self):
        store, index = _fresh_index()
        store.insert(_entity(0, "alpha beta"))
        store.insert(_entity(1, "alpha"))
        side0, side1 = index.postings("alpha")
        assert isinstance(side0, array) and side0.typecode == "q"
        assert list(side0) == [0, 1]
        assert len(side1) == 0

    def test_absent_key_yields_empty_arrays(self):
        _, index = _fresh_index()
        side0, side1 = index.postings("nope")
        assert len(side0) == 0 and len(side1) == 0

    def test_growth_preserves_arrival_order(self):
        store, index = _fresh_index()
        for i in range(100):
            store.insert(_entity(i, "shared"))
        side0, _ = index.postings("shared")
        assert list(side0) == list(range(100))


class TestNoRedundantSorts:
    def test_straggler_free_stream_never_sorts(self):
        store, index = _fresh_index()
        for i in range(20):
            store.insert(_entity(i, f"tok{i % 3} common"))
            index.snapshot()
        assert index.resort_count == 0

    def test_straggler_sorted_once_then_marker_cleared(self):
        store, index = _fresh_index()
        store.insert(_entity(0, "alpha"))
        store.insert(_entity(1, "beta"))
        # Merge grants entity 0 the key "beta" after entity 1 claimed it:
        # the posting list is now out of arrival order for that key.
        store.insert(_entity(0, "beta"))
        assert index.resort_count == 0  # lazy: nothing sorted yet
        snapshot = index.snapshot()
        assert index.resort_count == 1
        assert snapshot["beta"].entities1 == ["http://e/0", "http://e/1"]
        # Repeated snapshots — with straggler-free inserts in between —
        # must not re-sort the already-restored key.
        index.snapshot()
        store.insert(_entity(2, "beta gamma"))
        index.snapshot()
        assert index.resort_count == 1

    def test_only_touched_side_resorts(self):
        store = StreamingEntityStore(sources=("kb1", "kb2"))
        index = IncrementalBlockIndex(store)
        store.insert(_entity(0, "alpha"), source=0)
        store.insert(_entity(1, "alpha"), source=1)
        store.insert(_entity(2, "beta"), source=0)
        store.insert(_entity(0, "beta"), source=0)  # straggler on side 0 only
        index.snapshot()
        assert index.resort_count == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "c", "a b"])),
            min_size=1,
            max_size=25,
        )
    )
    def test_repeated_snapshots_do_no_extra_work(self, arrivals):
        store, index = _fresh_index()
        for entity, tokens in arrivals:
            store.insert(_entity(entity, tokens))
        index.snapshot()
        after_first = index.resort_count
        index.snapshot_processed()
        index.snapshot()
        index.snapshot_processed()
        assert index.resort_count == after_first


class TestSnapshotBlockCache:
    def test_snapshots_build_no_block_objects(self, monkeypatch):
        from repro.blocking import block as block_module

        built = []
        init = block_module.Block.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        store, index = _fresh_index()
        store.insert(_entity(0, "alpha beta"))
        store.insert(_entity(1, "alpha beta"))
        monkeypatch.setattr(block_module.Block, "__init__", counting_init)
        first = index.snapshot()
        store.insert(_entity(2, "gamma delta"))
        store.insert(_entity(3, "gamma"))
        second = index.snapshot()
        # The posting lists are laid out as columns; a Block is only a
        # view derived when someone asks for one.
        assert built == []
        assert second["alpha"].entities1 == first["alpha"].entities1
        assert second["gamma"].entities1 == ["http://e/2", "http://e/3"]

    def test_touched_blocks_rebuilt(self):
        store, index = _fresh_index()
        store.insert(_entity(0, "alpha"))
        store.insert(_entity(1, "alpha"))
        first = index.snapshot()
        store.insert(_entity(2, "alpha"))
        second = index.snapshot()
        assert second["alpha"] is not first["alpha"]
        assert second["alpha"].entities1 == [
            "http://e/0",
            "http://e/1",
            "http://e/2",
        ]
