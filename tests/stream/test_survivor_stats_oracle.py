"""Survivor statistics against the batch graph, step by step.

``DeltaPairTable(view)`` keeps no pair: ``common`` / ``arcs`` are read
from the view's exposed blocks, one query star at a time, and the
global factors are folded from placement hooks and one neighbour-set
difference per batch of transitions.  The oracle is independent of all
of it: a batch :class:`~repro.metablocking.graph.BlockingGraph` built
over ``view.materialize()`` — whatever the view exposes right now, exact
or approximate — must yield the same degrees, edge count, placements,
``(common, arcs)`` per pair and, float for float, the same weight under
all six schemes, after every step of a state machine that inserts,
merges late keys in, deletes, re-inserts, queries and forces partial and
full reconciliations, with a URI on both sides of a clean-clean store
and blocks crossing the purging threshold in both directions.
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
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.scheme_defs import SCHEME_NAMES
from repro.model.description import EntityDescription
from repro.stream.index import IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.processed_view import IncrementalProcessedView
from repro.stream.store import StreamingEntityStore

from .star_weights import assert_stars_match

TOKENS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega"]
#: these live in both KBs of the clean-clean store — between them one
#: bipartite block holds a pair twice (two cells in one block)
SHARED = ["http://e/both", "http://e/either"]
URIS = [f"http://e/{name}" for name in "bcdefghij"]

token_sets = st.sets(st.sampled_from(TOKENS), min_size=1, max_size=4)


def _description(uri: str, tokens: set[str], prop: str = "p") -> EntityDescription:
    return EntityDescription(uri, {prop: [" ".join(sorted(tokens))]})


def assert_matches_batch_graph(view, table) -> None:
    """Every statistic of *table* against a batch graph over the view."""
    blocks = view.materialize()
    interner = view.index.store.interner
    graphs = {name: BlockingGraph(blocks, registry.create("weighting", name)) for name in SCHEME_NAMES}
    graph = graphs["CBS"]

    assert table.edge_count == len(table) == len(graph)
    assert table.active_blocks == len(blocks)
    assert table.total_assignments == blocks.total_assignments()
    assert table.entities_placed == blocks.entity_count()
    assert {
        interner.uri_of(entity): count for entity, count in table.placements.items()
    } == {uri: len(keys) for uri, keys in blocks.entity_index().items()}
    assert {
        interner.uri_of(entity): count for entity, count in table.degrees.items()
    } == {uri: len(partners) for uri, partners in graph.adjacency().items()}

    pair_table = graph.pair_table()
    assert table.as_reference_stats() == dict(
        zip(
            pair_table.pairs,
            zip(pair_table.common.tolist(), pair_table.arcs.tolist()),
        )
    )
    for name, weighted in graphs.items():
        assert_stars_match(table, name, dict(weighted.materialize().items()))


class SurvivorsAgainstBatchGraph(RuleBasedStateMachine):
    """One store, one index, the processed view and its lazy table."""

    @initialize(
        clean_clean=st.booleans(),
        max_cardinality=st.sampled_from([None, 2, 6]),
        ratio=st.sampled_from([0.5, 0.8, 1.0]),
    )
    def build(self, clean_clean, max_cardinality, ratio):
        sources = ("kb1", "kb2") if clean_clean else ("stream",)
        self.store = StreamingEntityStore(sources=sources)
        self.index = IncrementalBlockIndex(self.store)
        self.view = IncrementalProcessedView(
            self.index,
            BlockPurging(max_cardinality=max_cardinality),
            BlockFiltering(ratio=ratio),
        )
        self.table = DeltaPairTable(self.view)
        self.sides = len(sources)
        #: uri → the sources it was last inserted into (kept across
        #: deletes, so a retracted URI can come back where it was)
        self.homes: dict[str, set[int]] = {}

    def _live(self) -> list[str]:
        return [uri for uri in self.homes if self.store.get(uri) is not None]

    @rule(uri=st.sampled_from(URIS), tokens=token_sets, side=st.integers(0, 1))
    def insert(self, uri, tokens, side):
        """A new URI, or an attribute merge granting keys late."""
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

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def query(self, data):
        """A read: drains whatever the events before it buffered."""
        uri = data.draw(st.sampled_from(sorted(self._live())))
        self.view.neighbours_of(self.store.interner.id_of(uri))

    @rule(full=st.booleans())
    def reconcile(self, full):
        self.view.reconcile(full=full)
        exact = self.index.snapshot_processed(self.view.purging, self.view.filtering)
        assert self.view._build_collection().id_blocks() == exact.id_blocks()

    @invariant()
    def table_matches_batch_graph_over_the_view(self):
        assert_matches_batch_graph(self.view, self.table)


TestSurvivorsAgainstBatchGraph = SurvivorsAgainstBatchGraph.TestCase
TestSurvivorsAgainstBatchGraph.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)


def test_block_crossing_the_purging_threshold_in_both_directions():
    """Exposed at 3 comparisons, purged at 6, exposed again after a delete,
    the table equal to the batch graph over the view at every stage."""
    store = StreamingEntityStore()
    index = IncrementalBlockIndex(store)
    view = IncrementalProcessedView(
        index, BlockPurging(max_cardinality=3), BlockFiltering(ratio=1.0)
    )
    table = DeltaPairTable(view)
    for name in "abc":
        store.insert(_description(f"http://e/{name}", {"crowd", f"own{name}"}))
    assert_matches_batch_graph(view, table)  # reads the view: drains
    assert view.cardinality_of("crowd") == 3
    assert table.edge_count == 3

    store.insert(_description("http://e/d", {"crowd"}))
    assert_matches_batch_graph(view, table)
    assert view.cardinality_of("crowd") == 0  # 6 comparisons > 3: purged
    assert table.edge_count == 0 and not table.degrees

    store.delete("http://e/a")
    assert_matches_batch_graph(view, table)
    # Back under the threshold — approximately: d arrived while the key
    # was purged and is not re-ranked until the reconcile.
    assert view.cardinality_of("crowd") == 1
    assert table.edge_count == 1
    assert view.reconcile().placements_added == 1
    assert_matches_batch_graph(view, table)
    assert view.cardinality_of("crowd") == 3  # b, c, d
    assert table.edge_count == 3


class _CountingTable:
    """Counts the hooks the view makes on an attached table."""

    def __init__(self) -> None:
        self.calls = 0

    def _count(self, *_args) -> None:
        self.calls += 1

    on_placement = on_placement_removed = fold_neighbours = _count
    on_block_activated = on_block_deactivated = _count


def test_view_hook_calls_do_not_grow_with_the_block():
    """Joining an exposed 5 000-member block costs hooks per key, not
    per member (and certainly not per comparison cell)."""
    assert not hasattr(DeltaPairTable, "on_view_cell")
    assert not hasattr(DeltaPairTable, "on_cell")
    assert not hasattr(DeltaPairTable, "common")
    store = StreamingEntityStore()
    index = IncrementalBlockIndex(store)
    view = IncrementalProcessedView(
        index, BlockPurging(max_cardinality=10**9), BlockFiltering(ratio=1.0)
    )
    table = DeltaPairTable(view)
    for i in range(5000):
        entity_id = store.insert(_description(f"http://e/{i}", {"stop"}))
        view.keys_of(entity_id)  # a read per insert: every drain is a join
    view.reconcile()  # the first arrival ranked its key before it was a block
    assert table.edge_count == 5000 * 4999 // 2
    counter = _CountingTable()
    view.attach(counter)
    newcomer = _description("http://e/new", {"stop", "rare", "rarer"})
    entity_id = store.insert(newcomer)
    keys = len(view.keys_of(entity_id))
    assert keys >= 1  # "stop"; its own tokens have no second member yet
    posted = len(index.keys_of(entity_id))
    # Per posted key at most one placement and one block flip; per
    # drain one neighbour hook.
    assert 0 < counter.calls <= 2 * posted + 1
    assert table.degrees[entity_id] == 5000
    before = counter.calls
    store.delete(newcomer.uri)
    view.keys_of(entity_id)
    assert counter.calls - before <= 2 * posted + 1
    assert table.edge_count == 5000 * 4999 // 2
