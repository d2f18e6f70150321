"""Materialized views: DDL, catalog wiring, matching, and rewrite
adoption.

Maintenance (staleness, incremental refresh) lives in
``test_views_maintenance.py``; the rewrite-on/off corpus lives in
``test_views_differential.py``.
"""

import io
import random

import pytest

from repro import Database
from repro.algebra.query import QueryBlock
from repro.errors import CatalogError, SqlSyntaxError, UnsupportedFeatureError
from repro.optimizer.options import OptimizerOptions
from repro.sql.ddl import (
    CreateMaterializedViewStmt,
    DropIndexStmt,
    DropMaterializedViewStmt,
    DropTableStmt,
    RefreshMaterializedViewStmt,
    maybe_parse_ddl,
)
from repro.views.matcher import match_view
from repro.views.registry import backing_table_name


def make_emp_db(rows=200, dnos=8, seed=5):
    db = Database()
    db.create_table(
        "emp",
        [("eno", "int"), ("dno", "int"), ("sal", "float"), ("age", "int")],
        primary_key=["eno"],
    )
    rng = random.Random(seed)
    db.insert(
        "emp",
        [
            (e, e % dnos, float(rng.randint(100, 999)), 20 + e % 40)
            for e in range(rows)
        ],
    )
    db.analyze()
    return db


def make_big_emp_db(rows=20_000, dnos=50, seed=7):
    """Large enough that scanning the backing table is strictly cheaper
    than re-aggregating the base table, so the rewrite is adopted."""
    return make_emp_db(rows=rows, dnos=dnos, seed=seed)


NO_REWRITE = OptimizerOptions(enable_view_rewrite=False)


class TestDdlParsing:
    def test_create_materialized_view(self):
        statement = maybe_parse_ddl(
            "create materialized view mv as "
            "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        assert isinstance(statement, CreateMaterializedViewStmt)
        assert statement.name == "mv"
        assert statement.body_sql.startswith("select e.dno")

    def test_create_materialized_view_case_and_newlines(self):
        statement = maybe_parse_ddl(
            "CREATE MATERIALIZED VIEW MV AS\n"
            "SELECT e.dno, COUNT(e.eno) AS n\nFROM emp e GROUP BY e.dno"
        )
        assert isinstance(statement, CreateMaterializedViewStmt)
        assert statement.name == "MV"
        assert "\n" in statement.body_sql

    def test_refresh(self):
        statement = maybe_parse_ddl("refresh materialized view mv")
        assert statement == RefreshMaterializedViewStmt(name="mv")

    def test_drop_materialized_view(self):
        statement = maybe_parse_ddl("drop materialized view mv")
        assert statement == DropMaterializedViewStmt(name="mv")

    def test_drop_table(self):
        assert maybe_parse_ddl("drop table emp") == DropTableStmt(name="emp")

    def test_drop_index(self):
        assert maybe_parse_ddl("drop index i") == DropIndexStmt(name="i")

    def test_malformed_create_materialized_rejected(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("create materialized view mv")

    def test_malformed_drop_rejected(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("drop view mv")

    def test_refresh_requires_materialized(self):
        with pytest.raises(SqlSyntaxError):
            maybe_parse_ddl("refresh view mv")


class TestCreation:
    def test_backing_table_registered(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e group by e.dno",
        )
        view = db.catalog.materialized_view("mv")
        backing = db.catalog.table(backing_table_name("mv"))
        assert view.deps == frozenset({"emp"})
        assert not view.stale
        assert backing.num_rows == 8
        assert [c.name for c in backing.columns][0] == "dno"

    def test_view_answers_by_name(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, avg(e.sal) as a from emp e group by e.dno",
        )
        rows = db.query("select m.dno, m.a from mv m").rows
        expected = db.query(
            "select e.dno, avg(e.sal) as a from emp e group by e.dno",
            options=NO_REWRITE,
        ).rows
        assert sorted(rows) == sorted(expected)

    def test_sql_statement_roundtrip(self):
        db = make_emp_db()
        assert db.execute(
            "create materialized view mv as "
            "select e.dno as dno, count(e.eno) as n from emp e "
            "group by e.dno"
        ) is None
        assert db.catalog.has_materialized_view("mv")
        assert db.execute("drop materialized view mv") is None
        assert not db.catalog.has_materialized_view("mv")
        assert not db.catalog.has_table(backing_table_name("mv"))

    def test_duplicate_name_rejected(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv", "select e.dno, sum(e.sal) from emp e group by e.dno"
        )
        with pytest.raises(CatalogError):
            db.create_materialized_view(
                "mv", "select e.dno, sum(e.sal) from emp e group by e.dno"
            )
        with pytest.raises(CatalogError):
            db.create_materialized_view(
                "emp", "select e.dno, sum(e.sal) from emp e group by e.dno"
            )

    def test_ungrouped_body_rejected(self):
        db = make_emp_db()
        with pytest.raises(UnsupportedFeatureError):
            db.create_materialized_view(
                "mv", "select e.eno, e.sal from emp e"
            )

    def test_holistic_view_stores_finished_values(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, median(e.sal) as m from emp e "
            "group by e.dno",
        )
        view = db.catalog.materialized_view("mv")
        assert not view.is_decomposable
        rows = db.query("select m.dno, m.m from mv m").rows
        expected = db.query(
            "select e.dno, median(e.sal) as m from emp e group by e.dno",
            options=NO_REWRITE,
        ).rows
        assert sorted(rows) == sorted(expected)


class TestDropStatements:
    def test_drop_table_via_sql(self):
        db = Database()
        db.execute("create table t (a int)")
        db.execute("drop table t")
        assert not db.catalog.has_table("t")

    def test_drop_index_via_sql(self):
        db = Database()
        db.execute("create table t (a int)")
        db.execute("create index t_a on t (a)")
        db.execute("drop index t_a")
        assert "t_a" not in db.catalog.info("t").indexes

    def test_drop_unknown_index(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.drop_index("nope")

    def test_drop_table_with_dependent_view_refused(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv", "select e.dno, sum(e.sal) from emp e group by e.dno"
        )
        with pytest.raises(CatalogError, match="mv"):
            db.drop_table("emp")
        db.drop_materialized_view("mv")
        db.drop_table("emp")
        assert not db.catalog.has_table("emp")


def _block_of(db, sql):
    """The bound query's single outer block, as the matcher sees it."""
    query = db.bind(sql)
    return QueryBlock(
        relations=query.base_tables,
        predicates=query.predicates,
        group_by=query.group_by,
        aggregates=query.aggregates,
        having=query.having,
        select=query.select,
    )


class TestMatching:
    def _view(self, db, body):
        db.create_materialized_view("mv", body)
        return db.catalog.materialized_view("mv")

    def test_same_shape_matches(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db, "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        match = match_view(block, view)
        assert match is not None
        assert match.exact_grouping

    def test_alias_change_matches(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select x.dno, sum(x.sal) as s from emp x group by x.dno",
        )
        assert match_view(block, view) is not None

    def test_residual_over_group_column_matches(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select e.dno, sum(e.sal) as s from emp e "
            "where e.dno < 4 group by e.dno",
        )
        match = match_view(block, view)
        assert match is not None
        assert len(match.residuals) == 1

    def test_predicate_over_aggregated_column_rejected(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select e.dno, sum(e.sal) as s from emp e "
            "where e.age > 30 group by e.dno",
        )
        assert match_view(block, view) is None

    def test_view_predicate_must_be_subsumed(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "where e.age > 30 group by e.dno",
        )
        block = _block_of(
            db, "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        assert match_view(block, view) is None
        subsumed = _block_of(
            db,
            "select e.dno, sum(e.sal) as s from emp e "
            "where 30 < e.age group by e.dno",
        )
        assert match_view(subsumed, view) is not None

    def test_missing_partial_rejected(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, min(e.sal) as lo from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db, "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        assert match_view(block, view) is None

    def test_count_partials_interchangeable(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, count(e.eno) as n from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select e.dno, count(e.age) as n from emp e group by e.dno",
        )
        assert match_view(block, view) is not None

    def test_coarser_grouping_rejected(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select e.dno, e.age, sum(e.sal) as s from emp e "
            "group by e.dno, e.age",
        )
        assert match_view(block, view) is None

    def test_finer_view_grouping_coalesces(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, e.age as age, sum(e.sal) as s "
            "from emp e group by e.dno, e.age",
        )
        block = _block_of(
            db, "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        match = match_view(block, view)
        assert match is not None
        assert not match.exact_grouping

    def test_holistic_view_never_matches(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, median(e.sal) as m from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select e.dno, median(e.sal) as m from emp e group by e.dno",
        )
        assert match_view(block, view) is None

    def test_holistic_query_never_matches(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select e.dno, median(e.sal) as m from emp e group by e.dno",
        )
        assert match_view(block, view) is None

    def test_stale_view_skipped(self):
        db = make_emp_db()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db, "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        assert match_view(block, view) is not None
        view.notify_insert("emp", [(999, 0, 100.0, 30)])
        assert view.stale
        assert match_view(block, view) is None

    def test_different_table_rejected(self):
        db = make_emp_db()
        db.create_table("dept", [("dno", "int"), ("budget", "float")])
        db.insert("dept", [(d, 100.0 * d) for d in range(8)])
        db.analyze()
        view = self._view(
            db,
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        block = _block_of(
            db,
            "select d.dno, sum(d.budget) as b from dept d group by d.dno",
        )
        assert match_view(block, view) is None


class TestAdoption:
    def test_counters_and_io(self):
        db = make_big_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, avg(e.sal) as a, count(e.eno) as n "
            "from emp e group by e.dno",
        )
        sql = "select e.dno, avg(e.sal) as a from emp e group by e.dno"
        rewritten = db.query(sql)
        stats = rewritten.optimization.stats
        assert stats.view_rewrites_considered >= 1
        assert stats.view_rewrites_adopted >= 1
        assert backing_table_name("mv") in rewritten.explain()
        baseline = db.query(sql, options=NO_REWRITE)
        assert baseline.optimization.stats.view_rewrites_adopted == 0
        assert backing_table_name("mv") not in baseline.explain()
        assert sorted(rewritten.rows) == sorted(baseline.rows)
        assert rewritten.executed_io.total < baseline.executed_io.total
        # the backing table (50 groups) is read instead of the base
        # table (20 000 rows): page reads fall by far more than 5x
        assert (
            5 * rewritten.executed_io.page_reads
            <= baseline.executed_io.page_reads
        )

    def test_greedy_optimizer_also_rewrites(self):
        db = make_big_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        sql = "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        for optimizer in ("traditional", "greedy", "full"):
            result = db.query(sql, optimizer=optimizer)
            assert backing_table_name("mv") in result.explain(), optimizer

    def test_rewrite_not_adopted_when_not_cheaper(self):
        # On a one-page base table the backing scan ties; strict
        # comparison keeps the base plan.
        db = make_emp_db(rows=30)
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        result = db.query(
            "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        stats = result.optimization.stats
        assert stats.view_rewrites_considered >= 1
        assert stats.view_rewrites_adopted == 0

    def test_stats_cli_surfacing(self):
        db = make_big_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(db, out=out, show_stats=True)
        shell.handle(
            "select e.dno, sum(e.sal) as s from emp e group by e.dno;"
        )
        text = out.getvalue()
        assert "view_rewrites_considered=" in text
        assert "view_rewrites_adopted=" in text


class TestShell:
    def test_dv_lists_views(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(db, out=out)
        shell.handle("\\dv")
        text = out.getvalue()
        assert "mv" in text and "fresh" in text

    def test_dv_empty(self):
        from repro.cli import Shell

        out = io.StringIO()
        Shell(Database(), out=out).handle("\\dv")
        assert "no materialized views" in out.getvalue()

    def test_d_marks_materialized(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        from repro.cli import Shell

        out = io.StringIO()
        Shell(db, out=out).handle("\\d")
        assert "materialized view mv" in out.getvalue()

    def test_no_view_rewrite_flag(self):
        db = make_big_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(db, out=out, view_rewrite=False)
        shell.handle(
            "\\explain select e.dno, sum(e.sal) as s from emp e "
            "group by e.dno"
        )
        assert backing_table_name("mv") not in out.getvalue()
