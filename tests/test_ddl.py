"""Tests for the DDL/DML layer (CREATE TABLE / CREATE INDEX / INSERT)."""

import pytest

from repro import Database
from repro.errors import SqlSyntaxError
from repro.sql.ddl import (
    CreateIndexStmt,
    CreateTableStmt,
    InsertStmt,
    maybe_parse_ddl,
)


class TestParsing:
    def test_create_table_inline_pk(self):
        statement = maybe_parse_ddl(
            "create table emp (eno int primary key, sal float)"
        )
        assert isinstance(statement, CreateTableStmt)
        assert statement.columns == (("eno", "int"), ("sal", "float"))
        assert statement.primary_key == ("eno",)

    def test_create_table_trailing_pk_clause(self):
        statement = maybe_parse_ddl(
            "create table li (ok int, ln int, q float, "
            "primary key (ok, ln))"
        )
        assert statement.primary_key == ("ok", "ln")

    def test_create_table_without_pk(self):
        statement = maybe_parse_ddl("create table t (a int, b text)")
        assert statement.primary_key == ()

    def test_create_index(self):
        statement = maybe_parse_ddl("create index i on emp (dno, sal)")
        assert isinstance(statement, CreateIndexStmt)
        assert statement.table == "emp"
        assert statement.columns == ("dno", "sal")

    def test_insert_multiple_rows(self):
        statement = maybe_parse_ddl(
            "insert into t values (1, 2.5, 'x'), (-3, 4.0, 'y')"
        )
        assert isinstance(statement, InsertStmt)
        assert statement.rows == ((1, 2.5, "x"), (-3, 4.0, "y"))

    def test_insert_booleans(self):
        statement = maybe_parse_ddl("insert into t values (true, false)")
        assert statement.rows == ((True, False),)

    def test_select_is_not_ddl(self):
        assert maybe_parse_ddl("select x from t") is None

    def test_bad_type_rejected(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("create table t (a decimal)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("create table t (a int) extra")

    def test_insert_requires_literals(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("insert into t values (a + 1)")

    def test_empty_table_rejected(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("create table t ()")


class TestExecute:
    def test_full_lifecycle_via_sql(self):
        db = Database()
        assert db.execute(
            "create table emp (eno int primary key, dno int, sal float)"
        ) is None
        db.execute("create index emp_dno on emp (dno)")
        db.execute(
            "insert into emp values (1, 0, 100.0), (2, 0, 200.0), "
            "(3, 1, 300.0)"
        )
        result = db.execute(
            "select e.dno, avg(e.sal) as a from emp e group by e.dno"
        )
        assert sorted(result.rows) == [(0, 150.0), (1, 300.0)]

    def test_index_usable_after_sql_creation(self):
        db = Database()
        db.execute("create table t (k int primary key, g int)")
        db.execute("create index t_g on t (g)")
        db.execute(
            "insert into t values "
            + ", ".join(f"({i}, {i % 5})" for i in range(100))
        )
        info = db.catalog.info("t")
        keys, _ = info.indexes["t_g"].snapshot_data()
        assert len(keys) == 100

    def test_execute_routes_queries(self, emp_dept_db):
        result = emp_dept_db.execute("select e.sal from emp e limit 1")
        assert result is not None and len(result.rows) == 1

    def test_cli_accepts_ddl(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(Database(), out=out)
        shell.handle("create table t (a int);")
        shell.handle("insert into t values (1), (2);")
        shell.handle("select t.a from t;")
        text = out.getvalue()
        assert text.count("ok") >= 2
        assert "(2 rows)" in text


class TestDrop:
    def test_drop_table_parse(self):
        from repro.sql.ddl import DropIndexStmt, DropTableStmt

        assert maybe_parse_ddl("DROP TABLE emp") == DropTableStmt(name="emp")
        assert maybe_parse_ddl("drop index i1") == DropIndexStmt(name="i1")

    def test_drop_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("drop table emp cascade")
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("drop")

    def test_drop_table_lifecycle(self):
        db = Database()
        db.execute("create table t (a int)")
        db.execute("insert into t values (1)")
        db.execute("drop table t")
        assert not db.catalog.has_table("t")
        # The name is reusable afterwards.
        db.execute("create table t (b float)")
        assert db.catalog.has_table("t")

    def test_drop_unknown_table(self):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            Database().execute("drop table ghost")

    def test_drop_index_lifecycle(self):
        db = Database()
        db.execute("create table t (k int primary key, g int)")
        db.execute("create index t_g on t (g)")
        db.execute("drop index t_g")
        assert "t_g" not in db.catalog.info("t").indexes

    def test_drop_unknown_index(self):
        from repro.errors import CatalogError

        db = Database()
        db.execute("create table t (a int)")
        with pytest.raises(CatalogError):
            db.execute("drop index ghost")
