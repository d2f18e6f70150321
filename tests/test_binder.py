"""Unit tests for the binder: resolution, views, unnesting, validation."""

import pytest

from repro.algebra.expressions import ColumnRef
from repro.errors import BindError, UnsupportedFeatureError
from repro.sql import bind_sql
from repro.transforms.decorrelate import decorrelate_query


class TestResolution:
    def test_basic_bind(self, emp_dept_db):
        query = bind_sql(
            "select e.sal from emp e where e.age < 30", emp_dept_db.catalog
        )
        assert [ref.alias for ref in query.base_tables] == ["e"]
        assert len(query.predicates) == 1
        assert query.select[0][0] == "sal"

    def test_default_alias_is_table_name(self, emp_dept_db):
        query = bind_sql("select emp.sal from emp", emp_dept_db.catalog)
        assert query.base_tables[0].alias == "emp"

    def test_unqualified_column_resolved(self, emp_dept_db):
        query = bind_sql(
            "select budget from emp e, dept d where e.dno = d.dno",
            emp_dept_db.catalog,
        )
        assert query.select[0][1] == ColumnRef("d", "budget")

    def test_ambiguous_column_rejected(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql(
                "select dno from emp e, dept d", emp_dept_db.catalog
            )

    def test_unknown_column_rejected(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql("select zzz from emp e", emp_dept_db.catalog)

    def test_unknown_table_rejected(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql("select x from nothere", emp_dept_db.catalog)

    def test_duplicate_alias_rejected(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql("select e.sal from emp e, dept e", emp_dept_db.catalog)

    def test_self_join_distinct_aliases(self, emp_dept_db):
        query = bind_sql(
            "select e1.sal from emp e1, emp e2 where e1.dno = e2.dno",
            emp_dept_db.catalog,
        )
        assert {ref.alias for ref in query.base_tables} == {"e1", "e2"}


class TestGroupingValidation:
    def test_grouped_select_must_use_group_cols(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql(
                "select e.sal from emp e group by e.dno",
                emp_dept_db.catalog,
            )

    def test_having_must_use_group_cols_or_aggs(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql(
                "select e.dno from emp e group by e.dno having e.sal > 5",
                emp_dept_db.catalog,
            )

    def test_aggregate_without_group_by_rejected(self, emp_dept_db):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql("select avg(e.sal) from emp e", emp_dept_db.catalog)

    def test_aggregate_naming_explicit(self, emp_dept_db):
        query = bind_sql(
            "select e.dno, avg(e.sal) as mean from emp e group by e.dno",
            emp_dept_db.catalog,
        )
        assert query.aggregates[0][0] == "mean"

    def test_aggregate_naming_generated(self, emp_dept_db):
        query = bind_sql(
            "select e.dno, avg(e.sal) from emp e group by e.dno",
            emp_dept_db.catalog,
        )
        assert query.aggregates[0][0] == "avg_sal"

    def test_duplicate_aggregates_shared(self, emp_dept_db):
        query = bind_sql(
            "select e.dno, avg(e.sal) as a from emp e group by e.dno "
            "having avg(e.sal) > 10",
            emp_dept_db.catalog,
        )
        assert len(query.aggregates) == 1

    def test_having_introduces_new_aggregate(self, emp_dept_db):
        query = bind_sql(
            "select e.dno, avg(e.sal) as a from emp e group by e.dno "
            "having max(e.sal) > 10",
            emp_dept_db.catalog,
        )
        assert len(query.aggregates) == 2


class TestViews:
    VIEW_SQL = (
        "with v(dno, asal) as "
        "(select e2.dno, avg(e2.sal) from emp e2 group by e2.dno) "
    )

    def test_aggregate_view_bound(self, emp_dept_db):
        query = bind_sql(
            self.VIEW_SQL + "select b.asal from v b where b.asal > 0",
            emp_dept_db.catalog,
        )
        assert len(query.views) == 1
        assert query.views[0].alias == "b"

    def test_view_internal_aliases_uniquified(self, emp_dept_db):
        query = bind_sql(
            self.VIEW_SQL + "select b.asal from v b, emp e2 "
            "where e2.dno = b.dno",
            emp_dept_db.catalog,
        )
        inner_aliases = query.views[0].block.aliases
        assert inner_aliases == {"b__e2"}  # no clash with outer e2

    def test_same_view_twice(self, emp_dept_db):
        query = bind_sql(
            self.VIEW_SQL + "select x.asal from v x, v y "
            "where x.dno = y.dno",
            emp_dept_db.catalog,
        )
        assert {view.alias for view in query.views} == {"x", "y"}
        all_inner = set()
        for view in query.views:
            assert not (all_inner & view.block.aliases)
            all_inner |= view.block.aliases

    def test_spj_view_flattened(self, emp_dept_db):
        query = bind_sql(
            "with rich(eno, sal) as "
            "(select e.eno, e.sal from emp e where e.sal > 50000) "
            "select r.sal from rich r where r.sal < 90000",
            emp_dept_db.catalog,
        )
        # flattened: no views left, emp joined directly
        assert query.views == ()
        assert query.base_tables[0].table == "emp"
        assert len(query.predicates) == 2

    def test_view_column_count_mismatch(self, emp_dept_db):
        with pytest.raises(BindError):
            bind_sql(
                "with v(a) as (select e.dno, avg(e.sal) from emp e "
                "group by e.dno) select v.a from v",
                emp_dept_db.catalog,
            )

    @pytest.mark.parametrize(
        "body",
        [
            "select count(*) from emp e where e.age < 0",
            "select e.dno from emp e having sum(e.sal) > 0",
        ],
        ids=["aggregate-select", "aggregate-having"],
    )
    def test_view_without_group_by_rejected(self, emp_dept_db, body):
        # A scalar aggregate has one row over an empty input; a view
        # grouped on nothing has none, so the form is refused, not
        # answered with the wrong row count.
        with pytest.raises(UnsupportedFeatureError, match="GROUP BY"):
            bind_sql(
                f"with v(c) as ({body}) select e.eno from emp e, v",
                emp_dept_db.catalog,
            )

    def test_view_with_having(self, emp_dept_db):
        query = bind_sql(
            "with v(dno, asal) as (select e.dno, avg(e.sal) from emp e "
            "group by e.dno having avg(e.sal) > 100) "
            "select v.asal from v",
            emp_dept_db.catalog,
        )
        assert len(query.views[0].block.having) == 1

    def test_catalog_registered_view(self, emp_dept_db):
        emp_dept_db.create_view(
            "dsal",
            ["dno", "total"],
            "select e.dno, sum(e.sal) from emp e group by e.dno",
        )
        query = bind_sql(
            "select t.total from dsal t where t.total > 0",
            emp_dept_db.catalog,
        )
        assert query.views[0].alias == "t"


class TestUnnesting:
    """The binder lowers subqueries to neutral specs; flattening is
    ``decorrelate_query``'s job (``transforms/decorrelate.py``)."""

    def test_correlated_avg_subquery(self, emp_dept_db):
        bound = bind_sql(
            "select e1.sal from emp e1 where e1.sal > "
            "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
            emp_dept_db.catalog,
        )
        assert len(bound.subqueries) == 1
        assert bound.subqueries[0].kind == "scalar"
        query = decorrelate_query(bound)
        assert not query.subqueries
        assert len(query.views) == 1
        view = query.views[0]
        assert view.block.aggregates[0][1].func_name == "avg"
        assert len(view.block.group_by) == 1
        # correlation becomes a join predicate + the comparison
        assert len(query.predicates) == 2

    def test_subquery_on_left_side(self, emp_dept_db):
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where "
                "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)"
                " < e1.sal",
                emp_dept_db.catalog,
            )
        )
        assert len(query.views) == 1

    def test_multiple_correlations(self, emp_dept_db):
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where e1.sal > "
                "(select min(e2.sal) from emp e2 "
                "where e2.dno = e1.dno and e2.age = e1.age)",
                emp_dept_db.catalog,
            )
        )
        view = query.views[0]
        assert len(view.block.group_by) == 2

    def test_subquery_local_predicate_stays_inside(self, emp_dept_db):
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where e1.sal > "
                "(select avg(e2.sal) from emp e2 "
                "where e2.dno = e1.dno and e2.age > 30)",
                emp_dept_db.catalog,
            )
        )
        assert len(query.views[0].block.predicates) == 1

    def test_count_subquery_left_unit(self, emp_dept_db):
        # Kim's COUNT bug: flattening must go through a LEFT unit so
        # empty groups read as COUNT = 0, not "no row".
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where e1.eno > "
                "(select count(*) from emp e2 where e2.dno = e1.dno)",
                emp_dept_db.catalog,
            )
        )
        assert len(query.views) == 1
        assert len(query.joins) == 1
        assert query.joins[0].kind == "left"

    def test_uncorrelated_scalar_flattens_to_a_keyless_view(
        self, emp_dept_db
    ):
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where e1.sal > "
                "(select avg(e2.sal) from emp e2)",
                emp_dept_db.catalog,
            )
        )
        # No correlation columns: the view groups on nothing.
        assert len(query.views) == 1
        assert query.views[0].block.group_by == ()
        assert query.subqueries == ()

    def test_in_subquery_semi_unit(self, emp_dept_db):
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where e1.dno in "
                "(select d.dno from dept d where d.budget > 500000)",
                emp_dept_db.catalog,
            )
        )
        assert len(query.joins) == 1
        unit = query.joins[0]
        assert unit.kind == "semi"
        assert len(unit.filters) == 1  # budget predicate stays inside

    def test_not_in_null_aware_anti_unit(self, emp_dept_db):
        query = decorrelate_query(
            bind_sql(
                "select e1.sal from emp e1 where e1.dno not in "
                "(select d.dno from dept d)",
                emp_dept_db.catalog,
            )
        )
        assert len(query.joins) == 1
        unit = query.joins[0]
        assert unit.kind == "anti"
        assert unit.null_aware

    def test_exists_units(self, emp_dept_db):
        for prefix, kind in (("", "semi"), ("not ", "anti")):
            query = decorrelate_query(
                bind_sql(
                    "select e1.sal from emp e1 where "
                    f"{prefix}exists (select d.dno from dept d "
                    "where d.dno = e1.dno)",
                    emp_dept_db.catalog,
                )
            )
            assert query.joins[0].kind == kind
            assert not query.joins[0].null_aware

    @pytest.mark.parametrize(
        "predicate",
        [
            "e1.dno not in (select d.dno from dept d where d.loc = e1.age)",
            "e1.dno + 1 not in (select d.dno from dept d)",
            "e1.dno in (select d.dno from dept d, emp e2 "
            "where d.dno = e2.dno)",
        ],
        ids=["correlated-not-in", "computed-not-in", "two-relation-in"],
    )
    def test_every_spec_flattens_to_a_unit(self, emp_dept_db, predicate):
        query = decorrelate_query(
            bind_sql(
                f"select e1.sal from emp e1 where {predicate}",
                emp_dept_db.catalog,
            )
        )
        assert len(query.joins) == 1
        assert query.subqueries == ()

    def test_left_join_unit_bound(self, emp_dept_db):
        query = bind_sql(
            "select e1.sal from emp e1 left join dept d on e1.dno = d.dno",
            emp_dept_db.catalog,
        )
        assert len(query.joins) == 1
        assert query.joins[0].kind == "left"
        assert query.joins[0].alias == "d"

    def test_non_aggregate_subquery_rejected(self, emp_dept_db):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                "select e1.sal from emp e1 where e1.sal > "
                "(select e2.sal from emp e2 where e2.dno = e1.dno)",
                emp_dept_db.catalog,
            )

    def test_subquery_inside_or_rejected_at_bind_time(self, emp_dept_db):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                "select e1.sal from emp e1 where e1.dno = 0 or e1.sal > "
                "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
                emp_dept_db.catalog,
            )

    @pytest.mark.parametrize(
        "aggregate, negate",
        [("count(*)", ""), ("max(d.budget)", ""), ("count(*)", " not")],
    )
    def test_scalar_subquery_under_is_null_rejected_at_bind_time(
        self, emp_dept_db, aggregate, negate
    ):
        """Once planned with no filter at all (every row returned); now
        a typed error naming the conjunct, on every path into the
        binder, before anything is planned or evaluated."""
        db = emp_dept_db
        sql = (
            f"select e.eno from emp e where (select {aggregate} from dept d "
            f"where d.dno = e.dno) is{negate} null"
        )
        message = rf"\(\(subquery\) IS{negate.upper()} NULL\)"
        with db.session() as session:
            for attempt in (
                lambda: bind_sql(sql, db.catalog),
                lambda: db.query(sql),
                lambda: db.reference(sql),
                lambda: session.execute(sql),
            ):
                with pytest.raises(UnsupportedFeatureError, match=message):
                    attempt()

    def test_aggregate_outside_select_and_having_rejected(
        self, emp_dept_db
    ):
        for sql in (
            "select e.eno from emp e where sum(e.sal) > 3",
            "select e.dno, sum(max(e.sal)) from emp e group by e.dno",
        ):
            with pytest.raises(BindError, match="aggregate"):
                emp_dept_db.query(sql)

    def test_grouped_subquery_rejected(self, emp_dept_db):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                "select e1.sal from emp e1 where e1.sal > "
                "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno "
                "group by e2.age)",
                emp_dept_db.catalog,
            )
