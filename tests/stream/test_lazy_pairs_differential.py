"""Differential: the lazy pair table against the eager one it replaced.

:class:`~repro.stream.pairs.DeltaPairTable` reads ``common`` and
``arcs`` from the postings and keeps ``degrees`` / ``edge_count`` by one
set difference per event.  :class:`EagerPairTable` is the previous
implementation — one callback per comparison cell — fed by its own
enumeration of the postings.  Both hang off the same index while a
state machine inserts, merges late keys in, deletes and re-inserts; they
must agree after every step on every global factor, on every pair's
``(common, arcs)`` — the lazy table's one pass over each entity's star
against the oracle's pair-at-a-time walk of the shared keys, from both
endpoints — and, float for float, on every entity's star weighed under
all six weighting schemes.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import registry
from repro.metablocking.scheme_defs import SCHEME_NAMES
from repro.model.description import EntityDescription
from repro.stream.durability import capture_state, restore_components
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.store import StreamingEntityStore

from .eager_pairs_oracle import EagerPairTable, cells_between

TOKENS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega"]
#: the first two live in both KBs of the clean-clean store — between
#: them one bipartite block holds a pair twice (two cells in one block)
SHARED = ["http://e/both", "http://e/either"]
URIS = [f"http://e/{name}" for name in "bcdefg"]

token_sets = st.sets(st.sampled_from(TOKENS), min_size=1, max_size=4)


def _description(uri: str, tokens: set[str], prop: str = "p") -> EntityDescription:
    return EntityDescription(uri, {prop: [" ".join(sorted(tokens))]})


class TwoPairTables(RuleBasedStateMachine):
    """One store, one index, the lazy table and the eager oracle."""

    @initialize(clean_clean=st.booleans())
    def build(self, clean_clean):
        sources = ("kb1", "kb2") if clean_clean else ("stream",)
        self.store = StreamingEntityStore(sources=sources)
        self.index = IncrementalBlockIndex(self.store)
        self.lazy = DeltaPairTable(self.index)
        self.eager = EagerPairTable(self.index)
        self.sides = len(sources)
        #: uri → the sources it was last inserted into (kept across
        #: deletes, so a retracted URI can come back where it was)
        self.homes: dict[str, set[int]] = {}

    def _live(self) -> list[str]:
        return [uri for uri in self.homes if self.store.get(uri) is not None]

    @rule(uri=st.sampled_from(URIS), tokens=token_sets, side=st.integers(0, 1))
    def insert(self, uri, tokens, side):
        """A new URI, or an attribute merge granting keys late."""
        # These stay in the KB they first arrived in, as clean-clean promises.
        source = min(self.homes.get(uri, {side % self.sides}))
        self.store.insert(_description(uri, tokens), source)
        self.homes.setdefault(uri, set()).add(source)

    @rule(uri=st.sampled_from(SHARED), tokens=token_sets, side=st.integers(0, 1))
    def insert_shared_uri(self, uri, tokens, side):
        """A URI both KBs describe: lands on either side, repeatedly."""
        source = side % self.sides
        self.store.insert(_description(uri, tokens, prop="q"), source)
        self.homes.setdefault(uri, set()).add(source)

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def delete(self, data):
        self.store.delete(data.draw(st.sampled_from(sorted(self._live()))))

    @precondition(lambda self: len(self._live()) < len(self.homes))
    @rule(data=st.data(), tokens=token_sets)
    def reinsert_after_delete(self, data, tokens):
        gone = sorted(set(self.homes) - set(self._live()))
        uri = data.draw(st.sampled_from(gone))
        for source in sorted(self.homes[uri]):
            self.store.insert(_description(uri, tokens), source)

    @invariant()
    def tables_agree(self):
        lazy, eager = self.lazy, self.eager
        assert lazy.edge_count == eager.edge_count
        assert len(lazy) == len(eager)
        assert lazy.degrees == eager.degrees
        assert lazy.placements == eager.placements
        assert lazy.entities_placed == eager.entities_placed
        assert lazy.total_assignments == eager.total_assignments
        assert lazy.active_blocks == eager.active_blocks
        ids = range(len(self.store.interner))
        for center in ids:
            common, arcs = lazy.star(center)
            assert sorted(common) == eager.partners(center)
            for partner, count in common.items():
                pair = sorted((center, partner))
                assert (count, arcs[partner]) == eager.pair_stats(*pair)
        for scheme in SCHEME_NAMES:
            weighting = registry.create("weighting", scheme)
            for center in ids:
                others = [other for other in ids if other != center]
                ours = lazy.weigh(weighting, center, others)
                theirs = eager.weigh(weighting, center, others)
                assert ours == theirs, (scheme, center)
        assert lazy.as_reference_stats() == eager.as_reference_stats()

    @invariant()
    def state_round_trips_without_common(self):
        state = capture_state(self.store, self.index, self.lazy)
        assert "common" not in state["pairs"]
        store, index, pairs, _view, _view_pairs = restore_components(state)
        assert capture_state(store, index, pairs) == state
        assert pairs.as_reference_stats() == self.eager.as_reference_stats()


TestTwoPairTables = TwoPairTables.TestCase
TestTwoPairTables.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_shared_uri_yields_two_cells_in_one_block():
    """The 2-cell case: both entities sit on both sides of one block."""
    store = StreamingEntityStore(sources=("kb1", "kb2"))
    index = IncrementalBlockIndex(store)
    lazy, eager = DeltaPairTable(index), EagerPairTable(index)
    for uri in ("http://e/x", "http://e/y"):
        for source in (0, 1):
            store.insert(_description(uri, {"alpha"}), source)
    assert cells_between(index, "alpha", 0, 1) == 2
    assert lazy.star(0)[0] == {1: 2} and lazy.star(1)[0] == {0: 2}
    assert eager.pair_stats(0, 1)[0] == 2
    assert lazy.edge_count == eager.edge_count == 1
    assert lazy.degrees == eager.degrees == {0: 1, 1: 1}
    store.delete("http://e/x")
    assert lazy.edge_count == eager.edge_count == 0
    assert lazy.degrees == eager.degrees == {}


class _CountingConsumer(DeltaConsumer):
    def __init__(self) -> None:
        self.calls = 0

    def _count(self, *_args) -> None:
        self.calls += 1

    on_placement = on_block_activated = on_key_update = _count
    on_placement_removed = on_block_deactivated = _count
    on_event_begin = on_event_end = _count


def test_insert_hook_calls_do_not_grow_with_the_block():
    """Joining a 5 000-member block costs hooks per key, not per member."""
    assert not hasattr(DeltaConsumer, "on_cell")
    assert not hasattr(DeltaConsumer, "on_cell_removed")
    store = StreamingEntityStore()
    index = IncrementalBlockIndex(store)
    for i in range(5000):
        store.insert(_description(f"http://e/{i}", {"stop"}))
    counter = _CountingConsumer()
    index.attach(counter)
    newcomer = _description("http://e/new", {"stop", "rare", "rarer"})
    store.insert(newcomer)
    keys = len(index.keys_of(store.interner.id_of(newcomer.uri)))
    assert keys >= 3  # its tokens, plus whatever the URI contributes
    # Per key: at most one placement and one key update; per event: the
    # begin / end bracket.
    assert 0 < counter.calls <= 2 * keys + 2
    before = counter.calls
    store.delete(newcomer.uri)
    assert counter.calls - before <= 2 * keys + 2
