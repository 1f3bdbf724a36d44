"""Compile the meta-blocking stages to SQL.

Each function emits the statement(s) for one pipeline stage over the
schema of :mod:`repro.sqlbackend.schema`.  The statements are written in
the sqlite dialect with ``:name`` parameters; engine-specific rewrites
(``REAL`` → ``DOUBLE``, truncation, integer division, ``$name``) happen
through the :class:`~repro.sqlbackend.engine.SqlEngine` hooks and
:meth:`~repro.sqlbackend.engine.SqlEngine.translate`.

Bit-identity notes (the contract gated in ``tests/api/``):

* every float expression mirrors the numpy kernels operator for
  operator — same association, same int→double promotion points;
* unordered SQL aggregation over doubles is **never** used where the
  reference accumulates floats in a defined order (ARCS sums, WEP's
  mean, WNP's per-node sums): those folds run in python over
  SQL-ordered row streams instead (see
  :mod:`repro.sqlbackend.metablocker`); SQL aggregates only integers,
  which are exact;
* ``ROW_NUMBER`` tie-breaks always include the lexicographic URI
  ``rank`` columns, reproducing the reference's string tie-breaks.
"""

from __future__ import annotations

from repro.metablocking.scheme_defs import SQL_WEIGHT_EXPRS
from repro.sqlbackend.engine import SqlEngine

# -- purging ----------------------------------------------------------------

#: the adaptive cardinality cutoff of ``threshold_from_histogram``:
#: cumulative (comparisons, assignments) over sorted levels; scanning
#: from the largest level down, the cut is the first level whose
#: inclusion keeps the CC/BC ratio within ``smoothing`` of the
#: collection without it — i.e. the MAX qualifying non-first level,
#: falling back to the smallest level, then to 1 for no blocks at all.
PURGE_THRESHOLD_SQL = """
WITH hist AS (
    SELECT card AS level, SUM(card) AS comps, SUM(size) AS assigns
    FROM blocks GROUP BY card
),
cum AS (
    SELECT level,
           SUM(comps) OVER (ORDER BY level) AS cum_comps,
           SUM(assigns) OVER (ORDER BY level) AS cum_assigns
    FROM hist
),
scan AS (
    SELECT level, cum_comps, cum_assigns,
           LAG(cum_comps) OVER (ORDER BY level) AS prev_comps,
           LAG(cum_assigns) OVER (ORDER BY level) AS prev_assigns
    FROM cum
)
SELECT COALESCE(
    (SELECT MAX(level) FROM scan
     WHERE prev_comps IS NOT NULL
       AND CAST(cum_comps AS REAL) /
           (CASE WHEN cum_assigns < 1 THEN 1 ELSE cum_assigns END)
           <= :smoothing * (CAST(prev_comps AS REAL) /
           (CASE WHEN prev_assigns < 1 THEN 1 ELSE prev_assigns END))),
    (SELECT MIN(level) FROM scan),
    1)
"""

#: ``purged`` and ``fblocks`` are ``blocks``-shaped tables keyed on
#: ``bord`` (``schema.block_table_ddl``), so every later join probes a
#: declared key instead of a per-run automatic index
PURGED_ALL_SQL = "INSERT INTO purged SELECT * FROM blocks"
PURGED_SQL = "INSERT INTO purged SELECT * FROM blocks WHERE card <= :threshold"


# -- filtering --------------------------------------------------------------


def keep_sql(engine: SqlEngine) -> str:
    """Per-entity retained blocks (the ``retained_keys`` decision).

    One row per placement (an entity on both sides of one block counts
    twice, matching ``entity_index``), ranked by ``(card, bkey)``.  Keys
    are unique per block, so rank ties happen only between duplicate
    rows of the same (entity, block) pair and ``MIN(rn)`` resolves them
    exactly as the reference's stable sort + set does.  The retention
    limit is ``max(1, int(ratio * count + 0.5))`` with python's
    truncating ``int()``.
    """
    limit = engine.trunc_int(":ratio * MIN(cnt) + 0.5")
    return f"""
CREATE TABLE keep AS
SELECT entity, bord
FROM (
    SELECT p.entity AS entity, p.bord AS bord,
           ROW_NUMBER() OVER (
               PARTITION BY p.entity ORDER BY b.card, b.bkey) AS rn,
           COUNT(*) OVER (PARTITION BY p.entity) AS cnt
    FROM placements p JOIN purged b ON b.bord = p.bord
) r
GROUP BY entity, bord
HAVING MIN(rn) <= (CASE WHEN {limit} < 1 THEN 1 ELSE {limit} END)
"""


#: the key ``FPLACEMENTS_SQL`` probes ``keep`` through
KEEP_INDEX_SQL = "CREATE UNIQUE INDEX idx_keep_key ON keep (entity, bord)"

FPLACEMENTS_SQL = """
CREATE TABLE fplacements AS
SELECT p.bord AS bord, p.entity AS entity, p.side AS side, p.pos AS pos
FROM placements p JOIN keep k ON k.entity = p.entity AND k.bord = p.bord
"""

#: without filtering, the filtered placements are the purged blocks' own
FPLACEMENTS_ALL_SQL = """
CREATE TABLE fplacements AS
SELECT p.bord AS bord, p.entity AS entity, p.side AS side, p.pos AS pos
FROM placements p JOIN purged b ON b.bord = p.bord
"""


def fblocks_sql(engine: SqlEngine) -> str:
    """Surviving filtered blocks with recomputed cardinality.

    Survival mirrors ``BlockFiltering.process``: bipartite blocks need
    both sides non-empty, dirty blocks at least two members.  The new
    cardinality is ``n1*n2 - overlap`` (bipartite; overlap = entities
    retained on both sides) or ``n1*(n1-1)//2`` (dirty).  A side never
    repeats an entity, so the overlap is placements minus distinct
    members — one grouped pass over ``fplacements``, no self-join.
    """
    dirty_card = engine.intdiv("s.n1 * (s.n1 - 1)", "2")
    return f"""
INSERT INTO fblocks
SELECT b.bord AS bord, b.bkey AS bkey, b.bipartite AS bipartite,
       CASE WHEN b.bipartite = 1
            THEN s.n1 * s.n2 - (s.n1 + s.n2 - s.members)
            ELSE {dirty_card} END AS card,
       s.n1 + s.n2 AS size
FROM (
    SELECT bord,
           SUM(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS n1,
           SUM(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS n2,
           COUNT(DISTINCT entity) AS members
    FROM fplacements GROUP BY bord
) s
JOIN purged b ON b.bord = s.bord
WHERE (b.bipartite = 1 AND s.n1 > 0 AND s.n2 > 0)
   OR (b.bipartite = 0 AND s.n1 >= 2)
"""


#: without filtering, every purged block survives as it is
FBLOCKS_ALL_SQL = "INSERT INTO fblocks SELECT * FROM purged"

FPLACEMENTS_INDEX_SQL = (
    "CREATE INDEX idx_fplacements_block ON fplacements (bord, side, pos)"
)


# -- pair statistics --------------------------------------------------------

#: comparison cells grouped per (pair, block): within-block cell count
#: plus the first cell's position key.  The cell predicate reproduces
#: ``expand_comparison_cells`` — bipartite: side0 × side1 minus
#: self-pairs; dirty: upper-triangle of side0 — and ``fb.card > 0``
#: skips zero-comparison blocks exactly like the reference.
PAIR_CELLS_SQL = """
CREATE TABLE pair_cells AS
SELECT CASE WHEN p1.entity < p2.entity
            THEN p1.entity * :packmul + p2.entity
            ELSE p2.entity * :packmul + p1.entity END AS pk,
       p1.bord AS bord,
       fb.card AS card,
       COUNT(*) AS cells,
       MIN(p1.pos * :wmul + p2.pos) AS mincell
FROM fplacements p1
JOIN fplacements p2 ON p2.bord = p1.bord
JOIN fblocks fb ON fb.bord = p1.bord
WHERE fb.card > 0
  AND ((fb.bipartite = 1 AND p1.side = 0 AND p2.side = 1
        AND p1.entity <> p2.entity)
    OR (fb.bipartite = 0 AND p1.side = 0 AND p2.side = 0
        AND p1.pos < p2.pos))
GROUP BY pk, p1.bord, fb.card
"""

#: the key every later read of ``pair_cells`` goes through: the
#: sequencing pass partitions on ``pk`` and the ARCS stream reads in
#: ``(pk, bord)`` order
PAIR_CELLS_INDEX_SQL = "CREATE UNIQUE INDEX idx_pair_cells_key ON pair_cells (pk, bord)"

#: one row per distinct pair in first-seen enumeration order (first
#: containing block, then first cell within it) — the reference dict's
#: insertion order; ``common`` (cell count) aggregates exactly in SQL
#: because it is an integer.  One pass over ``pair_cells``: the window
#: carries each pair's total and first block to its rows, and the row
#: of the first block carries the first cell.
PAIR_SEQ_SQL = """
CREATE TABLE pair_seq AS
SELECT pk, common, ROW_NUMBER() OVER (ORDER BY bord, mincell) AS seq
FROM (
    SELECT pk, bord, mincell,
           SUM(cells) OVER (PARTITION BY pk) AS common,
           MIN(bord) OVER (PARTITION BY pk) AS fbord
    FROM pair_cells
) c
WHERE bord = fbord
"""

#: the per-pair ARCS folds run in python over this stream — pair by
#: pair, blocks in order within a pair; see ``SqlMetaBlocker._fold_arcs``
ARCS_STREAM_SQL = "SELECT pk, cells, card FROM pair_cells ORDER BY pk, bord"

PAIR_ARCS_DDL = "CREATE TABLE pair_arcs (pk INTEGER PRIMARY KEY, arcs REAL NOT NULL)"


def pair_stats_sql(engine: SqlEngine) -> str:
    """Final pair table: endpoints resolved and canonically ordered.

    ``id_a`` holds the endpoint whose URI sorts first (integer rank
    comparison standing in for the string compare), mirroring
    ``finish_pair_table``'s swap.
    """
    min_id = engine.intdiv("s.pk", ":packmul")
    return f"""
CREATE TABLE pair_stats AS
SELECT s.seq AS seq,
       CASE WHEN e1.rank <= e2.rank THEN e1.id ELSE e2.id END AS id_a,
       CASE WHEN e1.rank <= e2.rank THEN e2.id ELSE e1.id END AS id_b,
       CASE WHEN e1.rank <= e2.rank THEN e1.rank ELSE e2.rank END AS rank_a,
       CASE WHEN e1.rank <= e2.rank THEN e2.rank ELSE e1.rank END AS rank_b,
       CASE WHEN e1.rank <= e2.rank THEN e1.uri ELSE e2.uri END AS uri_a,
       CASE WHEN e1.rank <= e2.rank THEN e2.uri ELSE e1.uri END AS uri_b,
       s.common AS common, pa.arcs AS arcs
FROM pair_seq s
JOIN pair_arcs pa ON pa.pk = s.pk
JOIN entities e1 ON e1.id = {min_id}
JOIN entities e2 ON e2.id = s.pk % :packmul
"""


#: per-entity placement counts over the filtered collection — the
#: ``_placement_counts_array`` ECBS/JS/χ² input (integers, exact in
#: SQL).  The join drops placements whose block failed the survival
#: check: those blocks are absent from the rebuilt collection, so the
#: reference never counts them.
PLACEMENT_COUNTS_SQL = """
SELECT p.entity, COUNT(*)
FROM fplacements p JOIN fblocks fb ON fb.bord = p.bord
GROUP BY p.entity ORDER BY p.entity
"""

#: per-entity degrees over the distinct-pair endpoints — the EJS input
DEGREES_SQL = """
SELECT entity, COUNT(*) FROM (
    SELECT id_a AS entity FROM pair_stats
    UNION ALL
    SELECT id_b AS entity FROM pair_stats
) d GROUP BY entity ORDER BY entity
"""

FACTORS_DDL = (
    "CREATE TABLE factors (entity INTEGER PRIMARY KEY,"
    " placements INTEGER NOT NULL, ecbs REAL NOT NULL, ejs REAL NOT NULL)"
)


# -- weighting --------------------------------------------------------------


def edges_sql(scheme_name: str) -> str:
    """Materialize the weighted edge table for one scheme.

    The weight expression comes from
    :data:`repro.metablocking.scheme_defs.SQL_WEIGHT_EXPRS`, the same
    module the numpy path's kernels live in.
    """
    expr = SQL_WEIGHT_EXPRS[scheme_name]
    return f"""
CREATE TABLE edges AS
SELECT ps.seq AS seq, ps.id_a AS id_a, ps.id_b AS id_b,
       ps.rank_a AS rank_a, ps.rank_b AS rank_b,
       ps.uri_a AS uri_a, ps.uri_b AS uri_b,
       {expr} AS weight
FROM pair_stats ps
JOIN factors fa ON fa.entity = ps.id_a
JOIN factors fb ON fb.entity = ps.id_b
"""


EDGES_INDEX_SQL = "CREATE INDEX idx_edges_seq ON edges (seq)"

#: the insertion-order weight stream WEP's mean folds over in python
WEIGHT_STREAM_SQL = "SELECT weight FROM edges ORDER BY seq"

#: the insertion-order endpoint stream WNP's per-node sums fold over
NODE_STREAM_SQL = "SELECT id_a, id_b, weight FROM edges ORDER BY seq"


# -- pruning ----------------------------------------------------------------

#: the deterministic ``_ranked`` output order: weight desc, then the
#: canonical URI pair asc (integer ranks stand in for the strings)
SURVIVOR_ORDER = "ORDER BY weight DESC, rank_a, rank_b"

WEP_SQL = f"""
SELECT uri_a, uri_b, weight FROM edges
WHERE weight >= :threshold
{SURVIVOR_ORDER}
"""

CEP_SQL = f"""
SELECT uri_a, uri_b, weight FROM edges
{SURVIVOR_ORDER}
LIMIT :k
"""

NODE_THRESHOLDS_DDL = (
    "CREATE TABLE node_thr (entity INTEGER PRIMARY KEY, thr REAL NOT NULL)"
)

WNP_SQL = f"""
SELECT e.uri_a, e.uri_b, e.weight
FROM edges e
JOIN node_thr ta ON ta.entity = e.id_a
JOIN node_thr tb ON tb.entity = e.id_b
WHERE (CASE WHEN e.weight >= ta.thr THEN 1 ELSE 0 END)
    + (CASE WHEN e.weight >= tb.thr THEN 1 ELSE 0 END) >= :votes
{SURVIVOR_ORDER}
"""

#: CNP: each node ranks its neighbourhood by (weight desc, neighbour
#: URI rank asc) — the exact lexsort of the vectorized path — and an
#: edge survives on enough top-k votes from its endpoints.
CNP_SQL = f"""
WITH directed AS (
    SELECT seq, id_a AS node, rank_b AS nrank, weight FROM edges
    UNION ALL
    SELECT seq, id_b AS node, rank_a AS nrank, weight FROM edges
),
ranked AS (
    SELECT seq,
           ROW_NUMBER() OVER (
               PARTITION BY node ORDER BY weight DESC, nrank) AS pos
    FROM directed
),
votes AS (
    SELECT seq, SUM(CASE WHEN pos <= :k THEN 1 ELSE 0 END) AS votes
    FROM ranked GROUP BY seq
)
SELECT e.uri_a, e.uri_b, e.weight
FROM edges e JOIN votes v ON v.seq = e.seq
WHERE v.votes >= :votes
{SURVIVOR_ORDER}
"""
