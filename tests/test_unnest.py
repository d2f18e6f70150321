"""Tests for Kim-style unnesting of correlated subqueries (Section 1)."""

import sqlite3

import pytest

from repro import Database
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.sql import bind_sql
from repro.transforms import unnest_sql


class TestUnnestSql:
    def test_reports_generated_views(self, emp_dept_db):
        report = unnest_sql(
            "select e1.sal from emp e1 where e1.sal > "
            "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
            emp_dept_db.catalog,
        )
        assert report.unnested_count == 1
        assert len(report.query.views) == 1

    def test_no_subquery_no_views(self, emp_dept_db):
        report = unnest_sql(
            "select e.sal from emp e where e.age < 30",
            emp_dept_db.catalog,
        )
        assert report.unnested_count == 0

    def test_two_subqueries(self, emp_dept_db):
        report = unnest_sql(
            "select e1.sal from emp e1 where e1.sal > "
            "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno) "
            "and e1.sal < "
            "(select max(e3.sal) from emp e3 where e3.dno = e1.dno)",
            emp_dept_db.catalog,
        )
        assert report.unnested_count == 2

    def test_semantics_match_view_form(self, emp_dept_db):
        """The unnested subquery must equal the hand-written
        aggregate-view query — Kim's equivalence."""
        nested = bind_sql(
            "select e1.sal from emp e1 where e1.age < 30 and e1.sal > "
            "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
            emp_dept_db.catalog,
        )
        view_form = bind_sql(
            "with a1(dno, asal) as "
            "(select e2.dno, avg(e2.sal) from emp e2 group by e2.dno) "
            "select e1.sal from emp e1, a1 b "
            "where e1.dno = b.dno and e1.age < 30 and e1.sal > b.asal",
            emp_dept_db.catalog,
        )
        nested_rows = evaluate_canonical(nested, emp_dept_db.catalog).rows
        view_rows = evaluate_canonical(view_form, emp_dept_db.catalog).rows
        assert rows_equal_bag(nested_rows, view_rows)

    def test_min_max_subqueries(self, emp_dept_db):
        for func in ("min", "max", "sum"):
            report = unnest_sql(
                f"select e1.sal from emp e1 where e1.sal >= "
                f"(select {func}(e2.sal) from emp e2 where e2.dno = e1.dno)",
                emp_dept_db.catalog,
            )
            result = evaluate_canonical(report.query, emp_dept_db.catalog)
            # every department's top earner qualifies under max
            assert result.rows or func != "max"

    def test_empty_inner_groups_drop_outer_rows(self, emp_dept_db):
        """SQL semantics: a scalar subquery over an empty set yields
        NULL and the comparison fails; the join form drops the row the
        same way (the soundness argument for non-COUNT aggregates)."""
        report = unnest_sql(
            "select e1.sal from emp e1 where e1.sal > "
            "(select avg(e2.sal) from emp e2 "
            "where e2.dno = e1.dno and e2.age < 0)",
            emp_dept_db.catalog,
        )
        result = evaluate_canonical(report.query, emp_dept_db.catalog)
        assert result.rows == []


class TestDecorrelationAdopted:
    """Every WHERE-clause subquery shape flattens: each must be *adopted*
    (a semi/anti join or a grouped view joined back) and agree with the
    reference evaluator, which runs the subquery unflattened."""

    SHAPES = {
        "in-semi": (
            "select e.eno, e.sal from emp e where e.dno in "
            "(select d.dno from dept d where d.loc >= 1)"
        ),
        "not-in-anti": (
            "select e.eno, e.sal from emp e where e.dno not in "
            "(select d.dno from dept d where d.loc >= 1)"
        ),
        "corr-scalar-avg": (
            "select e.eno from emp e where e.sal * 20 > "
            "(select avg(d.budget) from dept d where d.dno = e.dno)"
        ),
        "corr-exists": (
            "select e.eno, e.dno from emp e where exists "
            "(select d.dno from dept d "
            "where d.dno = e.dno and d.loc >= 2)"
        ),
        "corr-not-in": (
            "select e.eno from emp e where e.dno not in "
            "(select d.dno from dept d where d.loc = e.dno)"
        ),
        "computed-not-in": (
            "select e.eno from emp e where e.dno + 1 not in "
            "(select d.dno from dept d where d.loc >= 1)"
        ),
        "two-relation-exists": (
            "select e.eno from emp e where exists "
            "(select d.dno from dept d, emp e2 "
            "where d.dno = e2.dno and d.dno = e.dno and e2.age > 50)"
        ),
        "uncorrelated-scalar": (
            "select e.eno from emp e where e.sal > "
            "(select avg(e2.sal) from emp e2)"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_flattened_by_default_and_only_by_default(
        self, emp_dept_db, shape
    ):
        sql = self.SHAPES[shape]
        flattened = emp_dept_db.query(sql)
        stats = flattened.optimization.stats
        assert stats.decorrelation_adopted == stats.decorrelation_considered
        assert stats.decorrelation_adopted == 1
        assert sorted(flattened.rows) == sorted(
            emp_dept_db.reference(sql).rows
        )
        assert flattened.rows  # the shape keeps some outer rows

    @pytest.mark.parametrize(
        "func, survivors", [("count", 140), ("sum", 0)]
    )
    def test_uncorrelated_scalar_over_an_empty_inner_side(
        self, emp_dept_db, func, survivors
    ):
        """COUNT over no rows is 0 (the LEFT unit's IFNULL), SUM is NULL
        (the view grouped on nothing has no row, and the inner join
        drops every outer row, as the UNKNOWN comparison would)."""
        sql = (
            f"select e.eno from emp e where e.sal >= "
            f"(select {func}(e2.sal) from emp e2 where e2.age < 0)"
        )
        result = emp_dept_db.query(sql)
        assert len(result.rows) == survivors
        assert sorted(result.rows) == sorted(emp_dept_db.reference(sql).rows)


NOT_IN_SQL = (
    "select o.id from o where o.x not in (select s.v from s where s.g = o.g)"
)


class TestCorrelatedNotInNullRule:
    """Correlated NOT IN is a null-aware anti join whose NULL rule holds
    per correlation group. Each case: the inner rows ``s(g, v)``, the
    outer rows ``o(id, g, x)``, and the ids that survive."""

    CASES = {
        "null-in-group-rejects-only-that-group": (
            [(1, None), (1, 5), (2, 7)],
            [(1, 1, 5), (2, 1, 6), (3, 2, 8), (4, 2, 7)],
            [3],
        ),
        "empty-group-accepts": (
            [(1, None)],
            [(1, 2, 5), (2, 1, 5)],
            [1],
        ),
        "null-outer-correlation-matches-no-group": (
            [(1, 5), (None, 6)],
            [(1, None, 5), (2, None, None), (3, 1, 6)],
            [1, 2, 3],
        ),
        "null-membership-against-non-empty-group": (
            [(1, 5)],
            [(1, 1, None), (2, 2, None), (3, 1, 4)],
            [2, 3],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_reference_and_sqlite(self, case):
        inner, outer, survivors = self.CASES[case]
        db = Database()
        db.create_table(
            "s", [("g", "int"), ("v", "int")], nullable=["g", "v"]
        )
        db.create_table(
            "o",
            [("id", "int"), ("g", "int"), ("x", "int")],
            nullable=["g", "x"],
        )
        db.insert("s", inner)
        db.insert("o", outer)
        connection = sqlite3.connect(":memory:")
        connection.execute("create table s (g integer, v integer)")
        connection.execute("create table o (id integer, g integer, x integer)")
        connection.executemany("insert into s values (?, ?)", inner)
        connection.executemany("insert into o values (?, ?, ?)", outer)
        result = db.query(NOT_IN_SQL)
        assert "null-aware" in result.explain()
        expected = [(survivor,) for survivor in survivors]
        assert sorted(result.rows) == expected
        assert sorted(db.reference(NOT_IN_SQL).rows) == expected
        assert sorted(connection.execute(NOT_IN_SQL)) == expected
