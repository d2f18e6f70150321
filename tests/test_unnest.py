"""Tests for Kim-style unnesting of correlated subqueries (Section 1)."""

import pytest

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
    """The four WHERE-clause subquery shapes the optimizer flattens: each
    must be *adopted* (a semi/anti join or a grouped view joined back,
    not a mark-join rescan) and agree with the reference evaluator. The
    shapes decorrelation leaves behind run as mark joins and must agree
    too."""

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
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_flattened_by_default_and_only_by_default(
        self, emp_dept_db, shape
    ):
        sql = self.SHAPES[shape]
        flattened = emp_dept_db.query(sql)
        assert flattened.optimization.stats.decorrelation_adopted >= 1
        assert "SubqueryMark" not in flattened.explain()
        assert sorted(flattened.rows) == sorted(
            emp_dept_db.reference(sql).rows
        )
        assert flattened.rows  # the shape keeps some outer rows

    MARK_SHAPES = {
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

    @pytest.mark.parametrize("shape", sorted(MARK_SHAPES))
    def test_unflattenable_shapes_run_as_mark_joins(self, emp_dept_db, shape):
        sql = self.MARK_SHAPES[shape]
        result = emp_dept_db.query(sql)
        stats = result.optimization.stats
        assert stats.decorrelation_considered == 1
        assert stats.decorrelation_adopted == 0
        assert "SubqueryMark" in result.explain()
        assert sorted(result.rows) == sorted(emp_dept_db.reference(sql).rows)
        assert result.rows
