"""Engine layer: dialect translation, connections, plan capture."""

from __future__ import annotations

import pytest

from repro.sqlbackend.engine import (
    SQL_ENGINES,
    DuckDbEngine,
    Session,
    SqlBackendError,
    SqliteEngine,
    duckdb_available,
    make_engine,
)


class TestMakeEngine:
    def test_known_names(self):
        assert isinstance(make_engine("sqlite"), SqliteEngine)
        assert isinstance(make_engine("duckdb"), DuckDbEngine)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(SqlBackendError) as err:
            make_engine("postgres")
        for name in SQL_ENGINES:
            assert name in str(err.value)

    def test_spec_layer_agrees_on_engine_names(self):
        # the spec validates engine names without importing this
        # package; the two tuples must not drift apart
        from repro.api.spec import SQL_ENGINES as SPEC_ENGINES

        assert SPEC_ENGINES == SQL_ENGINES


class TestSqliteDialect:
    def test_translate_is_identity(self):
        engine = SqliteEngine()
        sql = "SELECT CAST(x AS REAL) FROM t WHERE y = :y"
        assert engine.translate(sql) == sql

    def test_trunc_int_truncates(self):
        engine = SqliteEngine()
        session = Session(engine)
        expr = engine.trunc_int("3.7")
        assert session.scalar(f"SELECT {expr}") == 3
        session.close()

    def test_intdiv(self):
        engine = SqliteEngine()
        session = Session(engine)
        assert session.scalar(f"SELECT {engine.intdiv('7', '2')}") == 3
        session.close()


class TestDuckDbDialect:
    """Translation is pure string work — no duckdb import needed."""

    engine = DuckDbEngine()

    def test_named_params_become_dollar(self):
        assert (
            self.engine.translate("SELECT :a + b FROM t WHERE c = :a")
            == "SELECT $a + b FROM t WHERE c = $a"
        )

    def test_real_becomes_double(self):
        assert (
            self.engine.translate("CREATE TABLE t (x REAL NOT NULL)")
            == "CREATE TABLE t (x DOUBLE NOT NULL)"
        )

    def test_word_boundary_preserved(self):
        # identifiers merely containing REAL must survive
        assert self.engine.translate("SELECT REALITY FROM surreal") == (
            "SELECT REALITY FROM surreal"
        )

    def test_integer_becomes_bigint(self):
        # packed pair keys outgrow DuckDB's 32-bit INTEGER
        assert (
            self.engine.translate("CREATE TABLE t (pk INTEGER PRIMARY KEY)")
            == "CREATE TABLE t (pk BIGINT PRIMARY KEY)"
        )

    def test_trunc_int_goes_through_trunc(self):
        assert "trunc" in self.engine.trunc_int("x * 0.5")

    @pytest.mark.skipif(duckdb_available(), reason="duckdb is installed")
    def test_missing_package_raises_backend_error(self):
        with pytest.raises(SqlBackendError, match="duckdb"):
            self.engine.connect()


class TestSession:
    def test_stage_tagged_statements_capture_plans(self):
        session = Session(SqliteEngine())
        session.run("CREATE TABLE t (x INTEGER)")
        session.run("SELECT * FROM t WHERE x = :x", {"x": 1}, stage="probe")
        assert "probe" in session.plans
        sql, plan = session.plans["probe"][0]
        assert "SELECT" in sql
        assert [row.detail for row in plan] == ["SCAN t"]
        assert plan[0].parent == 0
        session.close()

    def test_collect_plans_off(self):
        session = Session(SqliteEngine(), collect_plans=False)
        session.run("SELECT 1", stage="probe")
        assert session.plans == {}
        session.close()

    def test_executemany_and_stream(self):
        session = Session(SqliteEngine())
        session.run("CREATE TABLE t (x INTEGER)")
        session.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), (3,)])
        assert [row[0] for row in session.stream("SELECT x FROM t ORDER BY x")] == [
            1,
            2,
            3,
        ]
        assert session.scalar("SELECT SUM(x) FROM t") == 6
        session.close()


class TestEngineErrors:
    """Driver errors surface as SqlBackendError, never raw sqlite3."""

    def test_failing_statement_names_stage_and_statement(self):
        session = Session(SqliteEngine())
        with pytest.raises(SqlBackendError) as err:
            session.run("SELECT x FROM missing_table", stage="probe")
        message = str(err.value)
        assert "'probe'" in message
        assert "SELECT x FROM missing_table" in message
        assert "no such table" in message
        session.close()

    def test_executemany_is_wrapped(self):
        session = Session(SqliteEngine())
        with pytest.raises(SqlBackendError, match="no such table"):
            session.executemany("INSERT INTO missing_table VALUES (?)", [(1,)])
        session.close()

    def test_non_empty_db_path(self, tmp_path):
        from repro.sqlbackend import schema

        db_path = str(tmp_path / "twice.db")
        first = Session(SqliteEngine(), db_path=db_path)
        schema.create_schema(first)
        first.close()
        second = Session(SqliteEngine(), db_path=db_path)
        with pytest.raises(SqlBackendError) as err:
            schema.create_schema(second)
        assert "already exists" in str(err.value)
        assert db_path in str(err.value)
        second.close()

    def test_corrupt_db_path(self, tmp_path):
        db_path = tmp_path / "garbage.db"
        db_path.write_bytes(b"\x00not a database\xff" * 200)
        with pytest.raises(SqlBackendError, match="not a database"):
            Session(SqliteEngine(), db_path=str(db_path))
