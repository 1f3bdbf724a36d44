"""Relational backend: the meta-blocking pipeline compiled to SQL.

The fourth ``PipelineSpec`` backend (``backend: sql``).  Purging,
filtering, the pair-statistics aggregation, all six weighting schemes
and all six pruners execute as SQL over an interned relational schema —
on stdlib sqlite by default, or DuckDB behind the same compiled plans —
bit-identical to the sequential/MapReduce/stream backends (gated in
``tests/api/``).  A ``db_path`` moves the whole computation out of core.

Layering:

* :mod:`~repro.sqlbackend.engine` — dialects, connections, plan capture;
* :mod:`~repro.sqlbackend.schema` — relational schema + bulk loaders;
* :mod:`~repro.sqlbackend.compile` — per-stage SQL statements;
* :mod:`~repro.sqlbackend.planlint` — the every-join-on-a-key plan gate;
* :mod:`~repro.sqlbackend.metablocker` — the execution facade.
"""

from repro.sqlbackend.engine import (
    SQL_ENGINES,
    SqlBackendError,
    duckdb_available,
    make_engine,
)
from repro.sqlbackend.metablocker import SqlMetaBlocker

__all__ = [
    "SQL_ENGINES",
    "SqlBackendError",
    "SqlMetaBlocker",
    "duckdb_available",
    "make_engine",
]
