"""Tests for the pull-up transformation (Section 3, Definition 1).

Every test checks *semantic equivalence*: the transformed query/plan
must produce the same bag of rows as the original, evaluated by the
brute-force reference evaluator."""

import pytest

from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.legality import check_plan
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode
from repro.catalog.schema import RID_COLUMN, table_row_schema
from repro.cost import CostModel
from repro.engine import ExecutionContext, execute_plan
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.errors import TransformError
from repro.sql import bind_sql
from repro.transforms import key_columns, pull_up, pull_up_plan
from repro.algebra.query import TableRef

EXAMPLE1 = """
with a1(dno, asal) as (select e2.dno, avg(e2.sal) from emp e2 group by e2.dno)
select e1.sal from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal
"""


def check_equivalent(db, sql, view_alias, pulled):
    query = bind_sql(sql, db.catalog)
    reference = evaluate_canonical(query, db.catalog)
    transformed = pull_up(query, view_alias, pulled, db.catalog)
    result = evaluate_canonical(transformed, db.catalog)
    assert rows_equal_bag(reference.rows, result.rows)
    return transformed


class TestKeyColumns:
    def test_declared_primary_key(self, emp_dept_db):
        keys = key_columns(TableRef("emp", "e"), emp_dept_db.catalog)
        assert [k.key for k in keys] == [("e", "eno")]

    def test_rid_fallback(self, nopk_db):
        keys = key_columns(TableRef("events", "x"), nopk_db.catalog)
        assert [k.key for k in keys] == [("x", RID_COLUMN)]


class TestQueryLevelPullUp:
    def test_example1_equivalence(self, emp_dept_db):
        transformed = check_equivalent(emp_dept_db, EXAMPLE1, "b", ["e1"])
        # the query collapsed to a single block
        assert transformed.base_tables == ()
        view = transformed.view("b")
        # grouping extended by e1's key and the having column e1.sal
        group_keys = {g.key for g in view.block.group_by}
        assert ("e1", "eno") in group_keys
        assert ("e1", "sal") in group_keys
        # the aggregate-referencing predicate was deferred to HAVING
        assert any(
            (None, "asal") in p.columns() for p in view.block.having
        )

    def test_aggregate_predicate_deferred_not_in_where(self, emp_dept_db):
        transformed = check_equivalent(emp_dept_db, EXAMPLE1, "b", ["e1"])
        view = transformed.view("b")
        for predicate in view.block.predicates:
            assert (None, "asal") not in predicate.columns()

    def test_nonaggregate_predicates_join_where(self, emp_dept_db):
        transformed = check_equivalent(emp_dept_db, EXAMPLE1, "b", ["e1"])
        view = transformed.view("b")
        # e1.dno = dno join predicate and the age filter moved inside
        texts = [p.display() for p in view.block.predicates]
        assert any("age" in t for t in texts)
        assert any("dno" in t for t in texts)

    def test_pull_through_nopk_uses_rid(self, nopk_db):
        sql = """
        with v(dno, total) as (
            select e.dno, sum(e.sal) from emp e group by e.dno
        )
        select x.amount, v.total from events x, v
        where x.dno = v.dno and x.kind = 1
        """
        transformed = check_equivalent(nopk_db, sql, "v", ["x"])
        group_keys = {g.key for g in transformed.view("v").block.group_by}
        assert ("x", RID_COLUMN) in group_keys

    def test_fk_join_skips_key(self, emp_dept_db):
        sql = """
        with v(dno, asal) as (
            select e.dno, avg(e.sal) from emp e group by e.dno
        )
        select d.budget, v.asal from dept d, v
        where d.dno = v.dno
        """
        transformed = check_equivalent(emp_dept_db, sql, "v", ["d"])
        group_keys = {g.key for g in transformed.view("v").block.group_by}
        # d.dno is equated to the grouping column, so dept's key is
        # omitted (Section 3's foreign-key-join case)
        assert ("d", "dno") not in group_keys

    def test_needed_columns_exposed(self, emp_dept_db):
        sql = """
        with v(dno, asal) as (
            select e.dno, avg(e.sal) from emp e group by e.dno
        )
        select d.budget, v.asal from dept d, emp x, v
        where d.dno = v.dno and x.eno = d.loc
        """
        query = bind_sql(sql, emp_dept_db.catalog)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        transformed = pull_up(query, "v", ["d"], emp_dept_db.catalog)
        # d.loc is referenced by a kept predicate (x.eno = d.loc): it
        # must be exposed as a view output and the predicate rewritten
        view = transformed.view("v")
        assert any(name == "d_loc" for name, _ in view.block.select)
        result = evaluate_canonical(transformed, emp_dept_db.catalog)
        assert rows_equal_bag(reference.rows, result.rows)

    def test_pull_multiple_relations(self, emp_dept_db):
        sql = """
        with v(dno, asal) as (
            select e.dno, avg(e.sal) from emp e group by e.dno
        )
        select e1.sal from emp e1, dept d, v
        where e1.dno = v.dno and d.dno = v.dno and e1.sal > v.asal
        """
        transformed = check_equivalent(emp_dept_db, sql, "v", ["e1", "d"])
        assert transformed.base_tables == ()
        assert len(transformed.view("v").block.relations) == 3

    def test_empty_pull_set_is_identity(self, emp_dept_db):
        query = bind_sql(EXAMPLE1, emp_dept_db.catalog)
        assert pull_up(query, "b", [], emp_dept_db.catalog) is query

    def test_pulling_view_alias_rejected(self, emp_dept_db):
        sql = """
        with v1(dno, a) as (select e.dno, avg(e.sal) from emp e group by e.dno),
             v2(dno, b) as (select e.dno, max(e.sal) from emp e group by e.dno)
        select v1.a from v1, v2 where v1.dno = v2.dno
        """
        query = bind_sql(sql, emp_dept_db.catalog)
        with pytest.raises(TransformError):
            pull_up(query, "v1", ["v2"], emp_dept_db.catalog)

    def test_outer_group_by_preserved(self, emp_dept_db):
        sql = """
        with v(dno, asal) as (
            select e.dno, avg(e.sal) from emp e group by e.dno
        )
        select d.loc, max(v.asal) as m from dept d, v
        where d.dno = v.dno
        group by d.loc
        """
        check_equivalent(emp_dept_db, sql, "v", ["d"])


class TestPlanLevelPullUp:
    """Definition 1 applied to operator trees (Figure 1)."""

    def build_join(self, db, grouped_left=True):
        emp_columns = db.catalog.table("emp").columns
        inner = ScanNode(
            "emp", "e2", table_row_schema("e2", emp_columns).fields
        )
        group = GroupByNode(
            inner,
            group_keys=[("e2", "dno")],
            aggregates=[("asal", AggregateCall("avg", col("e2.sal")))],
        )
        outer = ScanNode(
            "emp",
            "e1",
            table_row_schema("e1", emp_columns).fields,
            filters=(Comparison("<", col("e1.age"), lit(25)),),
        )
        if grouped_left:
            return JoinNode(
                group,
                outer,
                method="hj",
                equi_keys=[(("e2", "dno"), ("e1", "dno"))],
                residuals=(Comparison(">", col("e1.sal"), col("asal")),),
                projection=[("e1", "sal"), (None, "asal")],
            )
        return JoinNode(
            outer,
            group,
            method="hj",
            equi_keys=[(("e1", "dno"), ("e2", "dno"))],
            residuals=(Comparison(">", col("e1.sal"), col("asal")),),
            projection=[("e1", "sal"), (None, "asal")],
        )

    def run_plan(self, db, plan):
        CostModel(db.catalog, db.params).annotate_tree(plan)
        context = ExecutionContext(db.catalog, db.io, db.params)
        return execute_plan(plan, context)

    @pytest.mark.parametrize("grouped_left", [True, False])
    def test_plan_equivalence(self, emp_dept_db, grouped_left):
        join = self.build_join(emp_dept_db, grouped_left)
        baseline = self.run_plan(emp_dept_db, join)
        pulled = pull_up_plan(
            self.build_join(emp_dept_db, grouped_left), emp_dept_db.catalog
        )
        check_plan(pulled, emp_dept_db.catalog)
        result = self.run_plan(emp_dept_db, pulled)
        assert rows_equal_bag(baseline.rows, result.rows)

    def test_output_schema_preserved(self, emp_dept_db):
        join = self.build_join(emp_dept_db)
        pulled = pull_up_plan(
            self.build_join(emp_dept_db), emp_dept_db.catalog
        )
        assert pulled.schema == join.schema  # Definition 1, item 1

    def test_group_by_is_root_and_join_below(self, emp_dept_db):
        pulled = pull_up_plan(
            self.build_join(emp_dept_db), emp_dept_db.catalog
        )
        assert isinstance(pulled, GroupByNode)
        assert isinstance(pulled.child, JoinNode)

    def test_aggregate_predicate_moved_to_having(self, emp_dept_db):
        pulled = pull_up_plan(
            self.build_join(emp_dept_db), emp_dept_db.catalog
        )
        assert any(
            (None, "asal") in p.columns() for p in pulled.having
        )
        join_below = pulled.child
        for predicate in join_below.residuals:
            assert (None, "asal") not in predicate.columns()

    def test_partner_key_in_grouping(self, emp_dept_db):
        pulled = pull_up_plan(
            self.build_join(emp_dept_db), emp_dept_db.catalog
        )
        assert ("e1", "eno") in pulled.group_keys

    def test_requires_group_by_child(self, emp_dept_db):
        emp_columns = emp_dept_db.catalog.table("emp").columns
        join = JoinNode(
            ScanNode("emp", "a", table_row_schema("a", emp_columns).fields),
            ScanNode("emp", "b", table_row_schema("b", emp_columns).fields),
            method="hj",
            equi_keys=[(("a", "dno"), ("b", "dno"))],
        )
        with pytest.raises(TransformError):
            pull_up_plan(join, emp_dept_db.catalog)


class TestAggregateOnlyLink:
    """A relation connected to the view solely through a predicate on an
    aggregated output: pull-up must turn the join into a cross join
    under the group-by with the predicate deferred to HAVING."""

    SQL = """
    with v(dno, asal) as (
        select e2.dno, avg(e2.sal) from emp e2 group by e2.dno
    )
    select e1.eno, v.dno from emp e1, v
    where e1.sal > v.asal and e1.age < 30
    """

    def test_equivalence(self, emp_dept_db):
        query = bind_sql(self.SQL, emp_dept_db.catalog)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        pulled = pull_up(query, "v", ["e1"], emp_dept_db.catalog)
        result = evaluate_canonical(pulled, emp_dept_db.catalog)
        assert rows_equal_bag(reference.rows, result.rows)

    def test_no_join_predicates_inside(self, emp_dept_db):
        query = bind_sql(self.SQL, emp_dept_db.catalog)
        pulled = pull_up(query, "v", ["e1"], emp_dept_db.catalog)
        view = pulled.view("v")
        # the aggregate comparison is in HAVING, not WHERE
        assert any(
            (None, "asal") in p.columns() for p in view.block.having
        )
        for predicate in view.block.predicates:
            assert (None, "asal") not in predicate.columns()

    def test_candidate_enumerated_by_optimizer(self, emp_dept_db):
        from repro.optimizer import optimize_query

        query = bind_sql(self.SQL, emp_dept_db.catalog)
        result = optimize_query(query, emp_dept_db.catalog, emp_dept_db.params)
        pulled_sets = {combo.get("v", ()) for combo, _ in result.alternatives}
        assert ("e1",) in pulled_sets  # connected via the agg predicate


class TestKeylessView:
    """An uncorrelated scalar subquery decorrelates into a view grouped
    on nothing; pulling the outer table through it groups on that
    table's key and keeps every answer, the empty inner side included
    (no group, so no row, either way)."""

    @pytest.mark.parametrize("inner_filter", ["e2.age > 30", "e2.age < 0"])
    def test_equivalence(self, emp_dept_db, inner_filter):
        from repro.transforms.decorrelate import decorrelate_query

        query = decorrelate_query(
            bind_sql(
                "select e1.eno from emp e1 where e1.age < 40 and e1.sal > "
                f"(select avg(e2.sal) from emp e2 where {inner_filter})",
                emp_dept_db.catalog,
            )
        )
        (view,) = query.views
        assert view.block.group_by == ()
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        pulled = pull_up(query, view.alias, ["e1"], emp_dept_db.catalog)
        assert pulled.base_tables == ()
        assert ("e1", "eno") in {
            g.key for g in pulled.view(view.alias).block.group_by
        }
        result = evaluate_canonical(pulled, emp_dept_db.catalog)
        assert rows_equal_bag(reference.rows, result.rows)
        assert bool(reference.rows) == (inner_filter == "e2.age > 30")
