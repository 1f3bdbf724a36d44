"""Engine layer of the relational backend: connections and dialects.

The compiler (:mod:`repro.sqlbackend.compile`) emits one SQL text per
stage, written in the sqlite dialect with ``:name`` parameters.  An
:class:`SqlEngine` adapts that text to a concrete database — the stdlib
``sqlite3`` module (always available, the gating engine) or DuckDB
(optional, imported lazily and never required) — and owns the connection
lifecycle, pragmas and ``EXPLAIN`` capture.

Dialect differences that matter to the bit-identity contract are
isolated here:

* ``CAST(x AS REAL)`` — sqlite ``REAL`` is an IEEE double; DuckDB
  ``REAL`` is a *float32*, so every ``REAL`` becomes ``DOUBLE`` there
  (and every 64-bit sqlite ``INTEGER`` a ``BIGINT``);
* ``CAST(x AS INTEGER)`` truncates on sqlite but **rounds** on DuckDB,
  so the half-up rounding in block filtering goes through
  :meth:`SqlEngine.trunc_int`;
* integer division is ``/`` on sqlite and ``//`` on DuckDB
  (:meth:`SqlEngine.intdiv`);
* named parameters are ``:name`` on sqlite and ``$name`` on DuckDB.
"""

from __future__ import annotations

import re
import sqlite3
from contextlib import contextmanager
from typing import NamedTuple

#: engines selectable through ``backend.engine`` in a spec
SQL_ENGINES = ("sqlite", "duckdb")


class SqlBackendError(RuntimeError):
    """The relational backend cannot do what was asked of it.

    Raised for specs it cannot compile and for every error the database
    engine reports (unusable ``db_path``, failing statement), so callers
    catch one type.
    """


class PlanRow(NamedTuple):
    """One node of a captured query plan (sqlite: one EQP row)."""

    id: int
    #: ``id`` of the enclosing node, 0 at the top level
    parent: int
    detail: str


def statement_head(sql: str, limit: int = 60) -> str:
    """The first *limit* characters of *sql* on one line, for messages."""
    return " ".join(sql.split())[:limit]


def duckdb_available() -> bool:
    """True when the optional ``duckdb`` package is importable."""
    try:
        import duckdb  # noqa: F401
    except ImportError:
        return False
    return True


class SqlEngine:
    """Dialect + connection factory; see module docstring."""

    name = "abstract"
    #: the 8-byte IEEE float column type of this dialect
    double_type = "REAL"
    #: True when cursors stay valid while other statements execute on
    #: the same connection (sqlite); False forces streamed reads to
    #: materialize before interleaved writes (DuckDB keeps one active
    #: result per connection)
    lazy_cursor = False
    #: the exception base class of the engine's driver
    error = sqlite3.Error

    def connect(self, db_path: str | None, workers: int, cache_kib: int | None):
        raise NotImplementedError

    def translate(self, sql: str) -> str:
        """Rewrite sqlite-dialect SQL for this engine (identity here)."""
        return sql

    def trunc_int(self, expr: str) -> str:
        """Truncate-toward-zero integer conversion of a float expression."""
        raise NotImplementedError

    def intdiv(self, a: str, b: str) -> str:
        """Truncating integer division of two integer expressions."""
        raise NotImplementedError

    def explain(self, conn, sql: str, params) -> list[PlanRow]:
        """Best-effort query plan of *sql* (already translated)."""
        raise NotImplementedError


class SqliteEngine(SqlEngine):
    """The stdlib engine — always present, used for the gating tests."""

    name = "sqlite"
    lazy_cursor = True

    def connect(self, db_path=None, workers=1, cache_kib=None):
        conn = sqlite3.connect(db_path or ":memory:")
        try:
            # Scratch analytics database: no durability requirements, so
            # the journal and sync overhead buy nothing.  (The first
            # pragma is also where a file that is not a database fails.)
            conn.execute("PRAGMA journal_mode=OFF")
            conn.execute("PRAGMA synchronous=OFF")
            # Spill temporary B-trees to files rather than memory when a
            # db_path was given (the out-of-core configuration).
            if db_path is not None:
                conn.execute("PRAGMA temp_store=FILE")
            if cache_kib is not None:
                # negative cache_size = limit in KiB (positive = pages)
                conn.execute(f"PRAGMA cache_size=-{int(cache_kib)}")
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def trunc_int(self, expr: str) -> str:
        return f"CAST({expr} AS INTEGER)"

    def intdiv(self, a: str, b: str) -> str:
        return f"(({a}) / ({b}))"

    def explain(self, conn, sql, params) -> list[PlanRow]:
        try:
            rows = conn.execute("EXPLAIN QUERY PLAN " + sql, params or {}).fetchall()
        except sqlite3.Error:  # the statement itself reports the error
            return []
        return [PlanRow(row[0], row[1], str(row[-1])) for row in rows]


class DuckDbEngine(SqlEngine):
    """Optional columnar engine behind the same compiled plans."""

    name = "duckdb"
    double_type = "DOUBLE"

    #: ``:name`` → ``$name`` (lookbehind keeps ``::`` casts safe even
    #: though the compiler never emits them)
    _PARAM = re.compile(r"(?<![:\w]):([A-Za-z_][A-Za-z0-9_]*)")
    _REAL = re.compile(r"\bREAL\b")
    #: sqlite ``INTEGER`` is 64-bit, DuckDB's is 32-bit — too narrow
    #: for the packed pair keys (``pair_arcs.pk``)
    _INTEGER = re.compile(r"\bINTEGER\b")

    def connect(self, db_path=None, workers=1, cache_kib=None):
        try:
            import duckdb
        except ImportError as exc:  # pragma: no cover - depends on env
            raise SqlBackendError(
                "backend.engine 'duckdb' needs the duckdb package, which is "
                "not installed; use engine 'sqlite' (stdlib) instead"
            ) from exc
        self.error = duckdb.Error
        conn = duckdb.connect(db_path or ":memory:")
        conn.execute(f"SET threads TO {max(1, int(workers))}")
        return conn

    def translate(self, sql: str) -> str:
        sql = self._INTEGER.sub("BIGINT", self._REAL.sub(self.double_type, sql))
        return self._PARAM.sub(r"$\1", sql)

    def trunc_int(self, expr: str) -> str:
        # DuckDB CAST(float AS INTEGER) rounds half away from zero;
        # trunc() first reproduces python's int().
        return f"CAST(trunc({expr}) AS BIGINT)"

    def intdiv(self, a: str, b: str) -> str:
        return f"(({a}) // ({b}))"

    def explain(self, conn, sql, params) -> list[PlanRow]:
        try:
            rows = conn.execute("EXPLAIN " + sql, params or None).fetchall()
        except Exception:  # pragma: no cover - plan capture is best-effort
            return []
        # DuckDB renders the plan as text: flat rows, one per line
        lines = [line for row in rows for part in row for line in str(part).splitlines()]
        return [PlanRow(number, 0, line) for number, line in enumerate(lines, 1)]


def make_engine(name: str) -> SqlEngine:
    """Engine instance for a ``backend.engine`` value.

    Raises:
        SqlBackendError: for names outside :data:`SQL_ENGINES`.
    """
    if name == "sqlite":
        return SqliteEngine()
    if name == "duckdb":
        return DuckDbEngine()
    raise SqlBackendError(
        f"unknown sql engine {name!r}; choose from {', '.join(SQL_ENGINES)}"
    )


class Session:
    """One open database: translated execution plus plan capture.

    Every statement routed through :meth:`run` is translated for the
    engine's dialect; statements tagged with a *stage* additionally get
    their query plan captured into :attr:`plans` (surfaced through
    ``repro sql explain``, linted by :mod:`repro.sqlbackend.planlint`).
    Errors the engine reports when connecting or starting a statement
    surface as :class:`SqlBackendError` naming the stage and the head
    of the failing statement.
    """

    def __init__(
        self,
        engine: SqlEngine,
        db_path: str | None = None,
        workers: int = 1,
        cache_kib: int | None = None,
        collect_plans: bool = True,
    ) -> None:
        self.engine = engine
        self.db_path = db_path
        with self._engine_errors("connect"):
            self.conn = engine.connect(db_path, workers, cache_kib)
        self.collect_plans = collect_plans
        #: stage → list of (sql, plan rows), in execution order
        self.plans: dict[str, list[tuple[str, list[PlanRow]]]] = {}

    @contextmanager
    def _engine_errors(self, sql: str, stage: str | None = None):
        """Re-raise the driver's errors as :class:`SqlBackendError`."""
        try:
            yield
        except self.engine.error as exc:
            in_stage = f" in stage {stage!r}" if stage else ""
            where = f" on db_path {self.db_path!r}" if self.db_path else ""
            raise SqlBackendError(
                f"{self.engine.name} error{in_stage}{where} "
                f"at {statement_head(sql)!r}: {exc}"
            ) from exc

    def run(self, sql: str, params: dict | None = None, stage: str | None = None):
        """Translate and execute one statement; returns the cursor."""
        text = self.engine.translate(sql)
        if stage is not None and self.collect_plans:
            plan = self.engine.explain(self.conn, text, params)
            self.plans.setdefault(stage, []).append((sql, plan))
        with self._engine_errors(sql, stage):
            if params:
                return self.conn.execute(text, params)
            return self.conn.execute(text)

    def stream(self, sql: str, params: dict | None = None, stage: str | None = None):
        """Row iterator over a query's results.

        Lazy (constant-memory) on engines whose cursors survive
        interleaved statements; materialized otherwise.
        """
        cursor = self.run(sql, params, stage=stage)
        if self.engine.lazy_cursor:
            return cursor
        return iter(cursor.fetchall())

    def executemany(self, sql: str, rows) -> None:
        """Bulk-insert with ``?`` placeholders (shared by both engines)."""
        with self._engine_errors(sql):
            self.conn.executemany(self.engine.translate(sql), rows)

    def fetchall(self, sql: str, params: dict | None = None, stage: str | None = None):
        return self.run(sql, params, stage=stage).fetchall()

    def scalar(self, sql: str, params: dict | None = None, stage: str | None = None):
        row = self.run(sql, params, stage=stage).fetchone()
        return row[0] if row is not None else None

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass
