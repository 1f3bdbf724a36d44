"""Orchestrate the compiled SQL pipeline over one loaded collection.

:class:`SqlMetaBlocker` is the backend's execution facade: load a raw
block collection once, then purge → filter → pair statistics → factors
are computed in SQL, after which any number of ``weight(scheme)`` /
``prune(pruner)`` calls reuse the loaded tables (the cross-backend gate
sweeps all 6 schemes × 6 pruners over one load).

Float folds the reference performs in a defined order (ARCS sums, WEP's
mean, WNP's per-node sums) run here in python over SQL-ordered row
streams — SQL's unordered SUM over doubles is not bit-stable, and the
accumulation order is part of the cross-backend contract.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.blocking.block import BlockCollection, csr_offsets
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.metablocking import pruning as _pruning
from repro.metablocking import weighting as _weighting
from repro.metablocking.graph import WeightedEdge
from repro.obs import DISABLED
from repro.sqlbackend import compile as _compile
from repro.sqlbackend import schema as _schema
from repro.sqlbackend.engine import Session, SqlBackendError, make_engine

#: builtin scheme classes the compiler knows, by exact type (a subclass
#: may override ``weight`` arbitrarily, so it must not match)
_SCHEME_NAMES = {
    _weighting.CBS: "CBS",
    _weighting.ECBS: "ECBS",
    _weighting.JS: "JS",
    _weighting.EJS: "EJS",
    _weighting.ARCS: "ARCS",
    _weighting.ChiSquare: "X2",
}


class SqlMetaBlocker:
    """One loaded collection, queryable for any scheme/pruner combo."""

    def __init__(
        self,
        engine: str = "sqlite",
        db_path: str | None = None,
        workers: int = 1,
        cache_kib: int | None = None,
        obs=None,
        collect_plans: bool = True,
    ) -> None:
        self.engine = make_engine(engine)
        self.session = Session(
            self.engine,
            db_path=db_path,
            workers=workers,
            cache_kib=cache_kib,
            collect_plans=collect_plans,
        )
        self.obs = obs if obs is not None else DISABLED
        #: loading + per-stage row counts (filled as stages run)
        self.stats: dict = {}
        self._blocks_name = "blocks"
        self._processed_name = "blocks"
        self._pairs_built = False
        self._weighted_scheme: str | None = None

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SqlMetaBlocker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.session.close()

    @property
    def plans(self) -> dict:
        """Stage → captured (sql, query plan) list."""
        return self.session.plans

    # -- stage: load --------------------------------------------------------

    def load_blocks(self, blocks: BlockCollection) -> dict:
        """Create the schema and bulk-load *blocks*; returns load stats."""
        with self.obs.span("sql.load") as span:
            _schema.create_schema(self.session)
            stats = _schema.load_collection(self.session, blocks)
            span.set(**stats)
        self.stats.update(stats)
        self._blocks_name = blocks.name
        self._processed_name = blocks.name
        return stats

    # -- stage: purging ------------------------------------------------------

    def purge(self, purging: BlockPurging | None) -> int | None:
        """Apply block purging in SQL; returns the threshold used.

        ``None`` keeps every block (the spec had no purging operator).
        Only the built-in :class:`BlockPurging` is compilable — callers
        must pre-apply custom operators in python.
        """
        if purging is not None and type(purging) is not BlockPurging:
            raise SqlBackendError(
                f"cannot compile custom purging operator "
                f"{type(purging).__qualname__!r} to SQL"
            )
        session = self.session
        session.run(_schema.block_table_ddl("purged"))
        if purging is None:
            session.run(_compile.PURGED_ALL_SQL, stage="purging")
            threshold = None
        else:
            if purging.max_cardinality is not None:
                threshold = purging.max_cardinality
            else:
                threshold = int(
                    session.scalar(
                        _compile.PURGE_THRESHOLD_SQL,
                        {"smoothing": float(purging.smoothing)},
                        stage="purging",
                    )
                )
            session.run(
                _compile.PURGED_SQL, {"threshold": threshold}, stage="purging"
            )
            self._processed_name = f"purged({self._processed_name})"
        self.stats["purge_threshold"] = threshold
        self.stats["purged_blocks"] = session.scalar("SELECT COUNT(*) FROM purged")
        return threshold

    # -- stage: filtering ----------------------------------------------------

    def filter(self, filtering: BlockFiltering | None) -> None:
        """Apply block filtering in SQL (``None`` = keep all placements)."""
        if filtering is not None and type(filtering) is not BlockFiltering:
            raise SqlBackendError(
                f"cannot compile custom filtering operator "
                f"{type(filtering).__qualname__!r} to SQL"
            )
        session = self.session
        session.run(_schema.block_table_ddl("fblocks"))
        if filtering is None:
            session.run(_compile.FPLACEMENTS_ALL_SQL, stage="filtering")
            session.run(_compile.FPLACEMENTS_INDEX_SQL)
            session.run(_compile.FBLOCKS_ALL_SQL, stage="filtering")
        else:
            session.run(
                _compile.keep_sql(self.engine),
                {"ratio": float(filtering.ratio)},
                stage="filtering",
            )
            session.run(_compile.KEEP_INDEX_SQL)
            session.run(_compile.FPLACEMENTS_SQL, stage="filtering")
            session.run(_compile.FPLACEMENTS_INDEX_SQL)
            session.run(_compile.fblocks_sql(self.engine), stage="filtering")
            self._processed_name = f"filtered({self._processed_name})"
        self.stats["filtered_blocks"] = session.scalar("SELECT COUNT(*) FROM fblocks")
        # the collection statistics the CEP/CNP budgets derive from
        self.stats["total_assignments"] = int(
            session.scalar("SELECT COALESCE(SUM(size), 0) FROM fblocks")
        )
        self.stats["entity_count"] = int(
            session.scalar("SELECT COUNT(DISTINCT entity) FROM fplacements")
        )

    def prepare(
        self,
        blocks: BlockCollection,
        purging: BlockPurging | None = None,
        filtering: BlockFiltering | None = None,
    ) -> dict:
        """Convenience: load + purge + filter + pair statistics."""
        self.load_blocks(blocks)
        self.purge(purging)
        self.filter(filtering)
        self.build_pairs()
        return self.stats

    # -- stage: pair statistics ----------------------------------------------

    def _fold_arcs(self) -> int:
        """Per-pair ARCS sums, folded in the reference enumeration order.

        Streams ``(pk, cells, card)`` grouped rows ordered by (pair,
        block): each cell adds ``1.0 / card`` exactly as the numpy
        bincount accumulates the expanded cells, because a pair's
        within-block contributions are equal and its across-block order
        is block order.  Results land in ``pair_arcs`` in batches.
        """
        session = self.session
        session.run(_compile.PAIR_ARCS_DDL)
        cursor = session.stream(_compile.ARCS_STREAM_SQL, stage="pairs")

        def folded():
            for pk, rows in groupby(cursor, key=itemgetter(0)):
                acc = 0.0
                for _, cells, card in rows:
                    contribution = 1.0 / card
                    for _ in range(cells):
                        acc += contribution
                yield pk, acc

        pairs = 0
        for batch in _schema.batched(folded()):
            session.executemany("INSERT INTO pair_arcs VALUES (?, ?)", batch)
            pairs += len(batch)
        return pairs

    def _load_factors(self) -> None:
        """Per-entity factor table: placement counts + log discounts.

        Counts and degrees are integer aggregates (exact in SQL); the
        ECBS/EJS log factors are computed in python with ``math.log`` —
        the same one-log-per-entity kernels the numpy path uses — and
        stored as REAL columns.
        """
        session = self.session
        session.run(_compile.FACTORS_DDL)
        total_blocks = max(int(self.stats["filtered_blocks"]), 1)
        edge_count = max(int(self.stats["pairs"]), 1)
        degrees = dict(session.fetchall(_compile.DEGREES_SQL, stage="factors"))
        from repro.metablocking import scheme_defs

        rows = []
        for entity, placements in session.fetchall(
            _compile.PLACEMENT_COUNTS_SQL, stage="factors"
        ):
            rows.append(
                (
                    entity,
                    placements,
                    scheme_defs.ecbs_log_factor(total_blocks, placements),
                    scheme_defs.ejs_log_factor(edge_count, degrees.get(entity, 0)),
                )
            )
            if len(rows) >= _schema.BATCH:
                session.executemany("INSERT INTO factors VALUES (?, ?, ?, ?)", rows)
                rows = []
        if rows:
            session.executemany("INSERT INTO factors VALUES (?, ?, ?, ?)", rows)
        self.stats["total_blocks"] = total_blocks
        self.stats["edge_count"] = edge_count

    def build_pairs(self) -> int:
        """Aggregate the scheme-independent pair statistics; idempotent."""
        if self._pairs_built:
            return self.stats["pairs"]
        session = self.session
        params = {
            "packmul": self.stats["packmul"],
            "wmul": self.stats["wmul"],
        }
        with self.obs.span("sql.pairs") as span:
            session.run(_compile.PAIR_CELLS_SQL, params, stage="pairs")
            session.run(_compile.PAIR_CELLS_INDEX_SQL)
            session.run(_compile.PAIR_SEQ_SQL, stage="pairs")
            self.stats["pairs"] = self._fold_arcs()
            session.run(
                _compile.pair_stats_sql(self.engine),
                {"packmul": self.stats["packmul"]},
                stage="pairs",
            )
            self._load_factors()
            span.set(pairs=self.stats["pairs"])
        self._pairs_built = True
        return self.stats["pairs"]

    # -- stage: weighting ----------------------------------------------------

    def weight(self, scheme) -> int:
        """(Re)build the weighted edge table for *scheme*; returns pairs."""
        name = _SCHEME_NAMES.get(type(scheme))
        if name is None:
            raise SqlBackendError(
                f"cannot compile weighting scheme "
                f"{type(scheme).__qualname__!r} to SQL"
            )
        self.build_pairs()
        if self._weighted_scheme == name:
            return self.stats["pairs"]
        session = self.session
        session.run("DROP TABLE IF EXISTS edges")
        session.run(
            _compile.edges_sql(name),
            {"total_blocks": self.stats["total_blocks"]},
            stage="weighting",
        )
        session.run(_compile.EDGES_INDEX_SQL)
        self._weighted_scheme = name
        return self.stats["pairs"]

    # -- stage: pruning ------------------------------------------------------

    def _survivors(self, sql: str, params: dict) -> list[WeightedEdge]:
        return [
            WeightedEdge(uri_a, uri_b, weight)
            for uri_a, uri_b, weight in self.session.stream(sql, params, stage="pruning")
        ]

    def _wep(self, pruner: _pruning.WEP) -> list[WeightedEdge]:
        # the mean folds over weights in insertion (first-seen) order,
        # matching ``sum(edges.values()) / len(edges)``
        total = 0.0
        count = 0
        for (weight,) in self.session.stream(_compile.WEIGHT_STREAM_SQL):
            total += weight
            count += 1
        if count == 0:
            return []
        threshold = (total / count) * pruner.threshold_factor
        return self._survivors(_compile.WEP_SQL, {"threshold": threshold})

    def _cep(self, pruner: _pruning.CEP) -> list[WeightedEdge]:
        k = (
            pruner.k
            if pruner.k is not None
            else max(1, self.stats["total_assignments"] // 2)
        )
        return self._survivors(_compile.CEP_SQL, {"k": k})

    def _wnp(self, pruner: _pruning.WNP) -> list[WeightedEdge]:
        # per-node sums fold in insertion order over both endpoints —
        # the bincount accumulation of the vectorized path
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for id_a, id_b, weight in self.session.stream(_compile.NODE_STREAM_SQL):
            sums[id_a] = sums.get(id_a, 0.0) + weight
            counts[id_a] = counts.get(id_a, 0) + 1
            sums[id_b] = sums.get(id_b, 0.0) + weight
            counts[id_b] = counts.get(id_b, 0) + 1
        session = self.session
        session.run("DROP TABLE IF EXISTS node_thr")
        session.run(_compile.NODE_THRESHOLDS_DDL)
        rows = [(node, sums[node] / counts[node]) for node in sums]
        for start in range(0, len(rows), _schema.BATCH):
            session.executemany(
                "INSERT INTO node_thr VALUES (?, ?)",
                rows[start : start + _schema.BATCH],
            )
        return self._survivors(
            _compile.WNP_SQL, {"votes": pruner.required_votes}
        )

    def _cnp(self, pruner: _pruning.CNP) -> list[WeightedEdge]:
        k = pruner.k
        if k is None:
            k = _pruning.node_budget(
                self.stats["total_assignments"], self.stats["entity_count"]
            )
        return self._survivors(
            _compile.CNP_SQL, {"k": k, "votes": pruner.required_votes}
        )

    def prune(self, pruner) -> list[WeightedEdge]:
        """Run *pruner* over the current edge table."""
        if self._weighted_scheme is None:
            raise SqlBackendError("prune() called before weight()")
        kind = type(pruner)
        if kind is _pruning.WEP:
            return self._wep(pruner)
        if kind is _pruning.CEP:
            return self._cep(pruner)
        if kind in (_pruning.WNP, _pruning.ReciprocalWNP):
            return self._wnp(pruner)
        if kind in (_pruning.CNP, _pruning.ReciprocalCNP):
            return self._cnp(pruner)
        raise SqlBackendError(
            f"cannot compile pruning scheme {kind.__qualname__!r} to SQL"
        )

    # -- materialization -----------------------------------------------------

    def processed_collection(self) -> BlockCollection:
        """The purged+filtered blocks as a python :class:`BlockCollection`.

        Blocks come back in insertion order with members in their
        original within-block order, laid out as columns straight from
        the placement rows, so the rebuilt collection is structurally
        identical to the python operators' output (gated in
        ``tests/sqlbackend/``).
        """
        session = self.session
        bords, sides, entities = np.array(
            session.fetchall(
                """
                SELECT p.bord, p.side, p.entity
                FROM fplacements p JOIN fblocks b ON b.bord = p.bord
                ORDER BY p.bord, p.side, p.pos
                """,
                stage="collect",
            ),
            dtype=np.int64,
        ).reshape(-1, 3).T
        blocks = session.fetchall("SELECT bord, bkey, bipartite FROM fblocks ORDER BY bord")
        ordinals = np.array([bord for bord, _, _ in blocks], dtype=np.int64)
        owners = np.searchsorted(ordinals, bords)
        on1 = sides == 0
        uris = [uri for (uri,) in session.fetchall("SELECT uri FROM entities ORDER BY id")]
        return BlockCollection.from_members(
            self._processed_name, [key for _, key, _ in blocks], uris,
            entities[on1], csr_offsets(np.bincount(owners[on1], minlength=len(blocks))),
            entities[~on1], csr_offsets(np.bincount(owners[~on1], minlength=len(blocks))),
            [bool(bipartite) for _, _, bipartite in blocks],
        )
