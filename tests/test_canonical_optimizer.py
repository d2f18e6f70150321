"""Tests for the full aggregate-view optimizer (Sections 5.3/5.4)."""

from unittest import mock

import pytest

from repro.algebra.legality import check_plan
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.optimizer import canonical
from repro.optimizer import (
    OptimizerOptions,
    optimize_query,
    optimize_traditional,
)
from repro.sql import bind_sql

EXAMPLE1 = """
with a1(dno, asal) as (select e2.dno, avg(e2.sal) from emp e2 group by e2.dno)
select e1.sal from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal
"""

TWO_VIEWS = """
with v1(dno, asal) as (select e.dno, avg(e.sal) from emp e group by e.dno),
     v2(dno, msal) as (select e.dno, max(e.sal) from emp e group by e.dno)
select d.budget, v1.asal, v2.msal from dept d, v1, v2
where d.dno = v1.dno and v1.dno = v2.dno and d.budget < 2000000
"""

OUTER_GROUP = """
with v(dno, total) as (select e.dno, sum(e.sal) from emp e group by e.dno)
select d.loc, max(v.total) as m from dept d, v
where d.dno = v.dno
group by d.loc
having max(v.total) > 0
"""


def both_plans(db, sql, options=None):
    query = bind_sql(sql, db.catalog)
    full = optimize_query(query, db.catalog, db.params, options)
    traditional = optimize_traditional(query, db.catalog, db.params)
    return query, full, traditional


class TestCorrectness:
    @pytest.mark.parametrize("sql", [EXAMPLE1, TWO_VIEWS, OUTER_GROUP])
    def test_plans_match_reference(self, emp_dept_db, sql):
        query, full, traditional = both_plans(emp_dept_db, sql)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        for result in (full, traditional):
            check_plan(result.plan, emp_dept_db.catalog)
            rows, _ = emp_dept_db.execute_plan(result.plan)
            assert rows_equal_bag(reference.rows, rows.rows)

    def test_single_block_query(self, emp_dept_db):
        sql = "select e.dno, avg(e.sal) as a from emp e group by e.dno"
        query, full, traditional = both_plans(emp_dept_db, sql)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        rows, _ = emp_dept_db.execute_plan(full.plan)
        assert rows_equal_bag(reference.rows, rows.rows)

    def test_unnested_subquery_roundtrip(self, emp_dept_db):
        sql = (
            "select e1.sal from emp e1 where e1.age < 30 and e1.sal > "
            "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)"
        )
        query, full, traditional = both_plans(emp_dept_db, sql)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        rows, _ = emp_dept_db.execute_plan(full.plan)
        assert rows_equal_bag(reference.rows, rows.rows)


class TestGuarantee:
    """'Our cost-based optimization algorithm is guaranteed to pick a
    plan that is no worse than the traditional optimization algorithm.'"""

    @pytest.mark.parametrize("sql", [EXAMPLE1, TWO_VIEWS, OUTER_GROUP])
    def test_no_worse_than_traditional(self, emp_dept_db, sql):
        _, full, traditional = both_plans(emp_dept_db, sql)
        assert full.cost <= traditional.cost + 1e-9

    def test_traditional_cost_recorded(self, emp_dept_db):
        _, full, traditional = both_plans(emp_dept_db, EXAMPLE1)
        assert full.traditional_cost == pytest.approx(traditional.cost)

    def test_improvement_factor(self, emp_dept_db):
        _, full, _ = both_plans(emp_dept_db, EXAMPLE1)
        factor = full.improvement_over_traditional
        assert factor is not None and factor >= 1.0


class TestSearchSpace:
    def test_alternatives_enumerated(self, emp_dept_db):
        _, full, _ = both_plans(emp_dept_db, EXAMPLE1)
        # at least the empty pull set and the {e1} pull set
        pulls = {tuple(alt[0].get("b", ())) for alt in full.alternatives}
        assert () in pulls
        assert ("e1",) in pulls

    def test_k_level_zero_disables_pullup(self, emp_dept_db):
        _, full, _ = both_plans(
            emp_dept_db,
            EXAMPLE1,
            OptimizerOptions(k_level=0),
        )
        pulls = {tuple(alt[0].get("b", ())) for alt in full.alternatives}
        assert pulls == {()}

    def test_multi_view_combos_disjoint(self, emp_dept_db):
        query = bind_sql(TWO_VIEWS, emp_dept_db.catalog)
        full = optimize_query(query, emp_dept_db.catalog, emp_dept_db.params)
        for combo, _cost in full.alternatives:
            used = []
            for pulled in combo.values():
                used.extend(pulled)
            assert len(used) == len(set(used))

    def test_predicate_sharing_restriction(self, emp_dept_db):
        sql = """
        with v(dno, asal) as (
            select e.dno, avg(e.sal) from emp e group by e.dno
        )
        select v.asal, d2.budget from v, dept d1, dept d2
        where v.dno = d1.dno and d2.loc = 0
        """
        query = bind_sql(sql, emp_dept_db.catalog)
        restricted = optimize_query(
            query,
            emp_dept_db.catalog,
            emp_dept_db.params,
            OptimizerOptions(require_shared_predicate=True),
        )
        # d2 shares no predicate with the view: never pulled
        for combo, _ in restricted.alternatives:
            assert "d2" not in combo.get("v", ())
        unrestricted = optimize_query(
            query,
            emp_dept_db.catalog,
            emp_dept_db.params,
            OptimizerOptions(require_shared_predicate=False),
        )
        pulled_sets = {combo.get("v", ()) for combo, _ in
                       unrestricted.alternatives}
        assert any("d2" in pulled for pulled in pulled_sets)

    def test_stats_track_combinations(self, emp_dept_db):
        query = bind_sql(TWO_VIEWS, emp_dept_db.catalog)
        full = optimize_query(query, emp_dept_db.catalog, emp_dept_db.params)
        assert full.stats.combinations_enumerated == len(full.alternatives)

    def test_max_combinations_cap_recorded(self, emp_dept_db):
        query = bind_sql(TWO_VIEWS, emp_dept_db.catalog)
        with mock.patch.object(canonical, "MAX_COMBINATIONS", 1):
            capped = optimize_query(
                query, emp_dept_db.catalog, emp_dept_db.params
            )
        assert capped.stats.combinations_truncated > 0  # never silent


class TestInvariantSplitIntegration:
    SPLIT_VIEW = """
    with c(dno, asal) as (
        select e.dno, avg(e.sal) from emp e, dept d
        where e.dno = d.dno and d.budget < 1500000
        group by e.dno
    )
    select v.asal from c v where v.asal > 0
    """

    def test_split_query_correct(self, emp_dept_db):
        query = bind_sql(self.SPLIT_VIEW, emp_dept_db.catalog)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        full = optimize_query(query, emp_dept_db.catalog, emp_dept_db.params)
        rows, _ = emp_dept_db.execute_plan(full.plan)
        assert rows_equal_bag(reference.rows, rows.rows)

    def test_restore_set_always_candidate(self, emp_dept_db):
        query = bind_sql(self.SPLIT_VIEW, emp_dept_db.catalog)
        full = optimize_query(
            query,
            emp_dept_db.catalog,
            emp_dept_db.params,
            OptimizerOptions(k_level=0),  # even with pull-up disabled
        )
        pulled_sets = {combo.get("v", ()) for combo, _ in full.alternatives}
        assert ("v__d",) in pulled_sets  # the restore set survives k=0

    def test_split_disabled_keeps_view_whole(self, emp_dept_db):
        query = bind_sql(self.SPLIT_VIEW, emp_dept_db.catalog)
        reference = evaluate_canonical(query, emp_dept_db.catalog)
        result = optimize_query(
            query,
            emp_dept_db.catalog,
            emp_dept_db.params,
            OptimizerOptions(enable_invariant_split=False),
        )
        rows, _ = emp_dept_db.execute_plan(result.plan)
        assert rows_equal_bag(reference.rows, rows.rows)
