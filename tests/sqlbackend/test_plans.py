"""The plan gate: every join of the compiled pipeline runs on a key.

Wall clocks are noisy; plans and VM step counts are not.  This module
lints every captured plan (all stages, with and without purging and
filtering, all 6 schemes × 6 pruners), bounds the work of
``build_pairs()`` by a deterministic sqlite VM step count, and pins the
one-pass ``pair_seq`` to the self-join formulation it replaced.
"""

from __future__ import annotations

import os

import pytest

from repro.api import registry
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.blocking.block import Block, BlockCollection
from repro.cli import main
from repro.datasets import SyntheticConfig, synthesize_pair
from repro.metablocking.pruning import PRUNERS
from repro.metablocking.weighting import SCHEMES
from repro.sqlbackend import SqlMetaBlocker, planlint
from repro.sqlbackend.engine import PlanRow

#: automatic-index probes the gate tolerates: plan detail → the reason
#: no declared key can serve that probe.  Empty: every probe is keyed.
ALLOWED_AUTOMATIC: dict[str, str] = {}

#: the self-join formulation ``PAIR_SEQ_SQL`` replaced (sqlite planned it
#: as SCAN a / SCAN pc: pairs × cells rows), kept as the oracle
OLD_PAIR_SEQ_SQL = """
SELECT a.pk AS pk, a.common AS common,
       ROW_NUMBER() OVER (ORDER BY a.fbord, pc.mincell) AS seq
FROM (
    SELECT pk, MIN(bord) AS fbord, SUM(cells) AS common
    FROM pair_cells GROUP BY pk
) a
JOIN pair_cells pc ON pc.pk = a.pk AND pc.bord = a.fbord
"""


def synthetic_blocks(entities: int) -> BlockCollection:
    dataset = synthesize_pair(SyntheticConfig(entities=entities, overlap=0.7, seed=42))
    return TokenBlocking().build(dataset.kb1, dataset.kb2)


@pytest.fixture(scope="module")
def blocks_200() -> BlockCollection:
    return synthetic_blocks(200)


def build_pairs_steps(blocks: BlockCollection) -> tuple[int, int]:
    """(sqlite VM steps of ``build_pairs()``, rows of ``pair_cells``)."""
    ticks = 0

    def tick() -> int:
        nonlocal ticks
        ticks += 1
        return 0

    with SqlMetaBlocker(collect_plans=False) as mb:
        mb.load_blocks(blocks)
        mb.purge(BlockPurging())
        mb.filter(BlockFiltering())
        mb.session.conn.set_progress_handler(tick, 100)
        mb.build_pairs()
        mb.session.conn.set_progress_handler(None, 0)
        rows = mb.session.scalar("SELECT COUNT(*) FROM pair_cells")
    return ticks * 100, rows


class TestLinter:
    def test_inner_scan_is_flagged_inner_search_is_not(self):
        keyed = [
            PlanRow(3, 0, "SCAN s"),
            PlanRow(7, 0, "SEARCH pa USING INTEGER PRIMARY KEY (rowid=?)"),
            PlanRow(9, 0, "USE TEMP B-TREE FOR ORDER BY"),
        ]
        quadratic = [
            PlanRow(16, 0, "CO-ROUTINE (subquery-3)"),
            PlanRow(77, 16, "SCAN a"),
            PlanRow(79, 16, "SCAN pc"),
            PlanRow(111, 0, "SCAN (subquery-3)"),
        ]
        assert planlint.nested_scans(keyed) == []
        assert planlint.nested_scans(quadratic) == ["SCAN pc"]

    def test_scans_under_different_parents_are_not_a_join(self):
        union = [
            PlanRow(1, 0, "COMPOUND QUERY"),
            PlanRow(2, 1, "LEFT-MOST SUBQUERY"),
            PlanRow(5, 2, "SCAN pair_stats"),
            PlanRow(9, 1, "UNION ALL"),
            PlanRow(12, 9, "SCAN pair_stats"),
        ]
        assert planlint.nested_scans(union) == []
        assert planlint.render(union)[2] == "    SCAN pair_stats"

    def test_old_self_join_fails_the_gate(self, blocks_200):
        with SqlMetaBlocker() as mb:
            mb.prepare(blocks_200, BlockPurging(), BlockFiltering())
            mb.session.run("DROP INDEX idx_pair_cells_key")
            mb.session.fetchall(OLD_PAIR_SEQ_SQL, stage="old")
            violations = planlint.lint({"old": mb.plans["old"]})
        assert len(violations) == 1 and violations[0].endswith("SCAN pc")


@pytest.mark.parametrize("filtering", [None, BlockFiltering()], ids=["nofilter", "filter"])
@pytest.mark.parametrize("purging", [None, BlockPurging()], ids=["nopurge", "purge"])
def test_every_staged_join_runs_on_a_key(blocks_200, purging, filtering):
    with SqlMetaBlocker() as mb:
        mb.prepare(blocks_200, purging, filtering)
        mb.processed_collection()
        for scheme in sorted(SCHEMES):
            mb.weight(registry.create("weighting", scheme))
            for pruner in sorted(PRUNERS):
                mb.prune(registry.create("pruner", pruner))
        plans = mb.plans
    assert set(plans) == {
        "purging", "filtering", "collect", "pairs", "factors", "weighting", "pruning",
    }
    assert len(plans["weighting"]) == len(SCHEMES)
    assert len(plans["pruning"]) == len(SCHEMES) * len(PRUNERS)
    assert planlint.lint(plans) == []
    unexplained = [
        probe
        for probe in planlint.automatic(plans)
        if not any(allowed in probe for allowed in ALLOWED_AUTOMATIC)
    ]
    assert unexplained == []


def test_pair_seq_matches_the_self_join_oracle(blocks_200):
    with SqlMetaBlocker() as mb:
        mb.prepare(blocks_200, BlockPurging(), BlockFiltering())
        rows = mb.session.fetchall("SELECT pk, common, seq FROM pair_seq ORDER BY seq")
        oracle = mb.session.fetchall(OLD_PAIR_SEQ_SQL + " ORDER BY seq")
    assert len(rows) == 2475
    assert rows == oracle


class TestBuildPairsWork:
    """``build_pairs()`` costs O(rows · log rows) VM steps, not O(rows²)."""

    def test_steps_grow_with_the_rows_not_their_square(self, blocks_200):
        # 200 → 400 entities grows pair_cells 2.65× on this generator
        # (a fixed vocabulary makes bigger corpora denser); the steps
        # must follow the rows (the self-join took 7.6× the steps)
        steps_200, rows_200 = build_pairs_steps(blocks_200)
        steps_400, rows_400 = build_pairs_steps(synthetic_blocks(400))
        assert steps_400 / steps_200 <= 1.15 * rows_400 / rows_200

    def test_doubling_the_corpus_at_most_2_5x_the_steps(self, blocks_200):
        # two disjoint copies: every table exactly doubles
        twin = [
            Block(
                block.key + "#2",
                [uri + "#2" for uri in block.entities1],
                [uri + "#2" for uri in block.entities2],
            )
            for block in blocks_200
        ]
        doubled = BlockCollection(list(blocks_200) + twin, name="doubled")
        steps, rows = build_pairs_steps(blocks_200)
        steps_doubled, rows_doubled = build_pairs_steps(doubled)
        assert rows_doubled == 2 * rows
        assert steps_doubled <= 2.5 * steps


def test_sql_explain_shows_the_keys_and_the_verdict(capsys):
    spec = os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "spec_movies.json"
    )
    assert main(["sql", "explain", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "SEARCH b USING INTEGER PRIMARY KEY" in out  # purged.bord
    assert "USING COVERING INDEX idx_keep_key (entity=? AND bord=?)" in out
    assert "SCAN pair_cells USING INDEX idx_pair_cells_key" in out
    assert "AUTOMATIC" not in out
    assert "0 nested full scan(s), 0 automatic index(es)" in out
