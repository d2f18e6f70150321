"""Tests for the DP block optimizer and the greedy conservative
heuristic (Section 5.2)."""

import pytest

from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.legality import check_plan
from repro.algebra.plan import GroupByNode, plan_nodes
from repro.algebra.query import TableRef
from repro.cost import CostParams
from repro.engine import ExecutionContext, execute_plan
from repro.engine.reference import (
    evaluate_block,
    rows_equal_bag,
)
from repro.algebra.query import QueryBlock
from repro.errors import PlanError
from repro.optimizer import BaseLeaf, BlockOptimizer, GroupingSpec
from repro.optimizer.options import TRADITIONAL, OptimizerOptions


def optimize(db, leaves, predicates, spec, select, options=None):
    optimizer = BlockOptimizer(db.catalog, db.params, options)
    plan = optimizer.optimize_block(leaves, predicates, spec, select)
    return plan, optimizer


def run_plan(db, plan):
    context = ExecutionContext(db.catalog, db.io, db.params)
    return execute_plan(plan, context)


class TestSpjOptimization:
    def leaves(self):
        return [
            BaseLeaf(TableRef("emp", "e")),
            BaseLeaf(TableRef("dept", "d")),
        ]

    def predicates(self):
        return (
            Comparison("=", col("e.dno"), col("d.dno")),
            Comparison("<", col("e.age"), lit(30)),
        )

    def test_produces_legal_plan(self, emp_dept_db):
        plan, _ = optimize(
            emp_dept_db,
            self.leaves(),
            self.predicates(),
            None,
            [("sal", col("e.sal")), ("budget", col("d.budget"))],
        )
        check_plan(plan, emp_dept_db.catalog)
        assert plan.props is not None

    def test_matches_reference(self, emp_dept_db):
        select = [("sal", col("e.sal")), ("budget", col("d.budget"))]
        plan, _ = optimize(
            emp_dept_db, self.leaves(), self.predicates(), None, select
        )
        block = QueryBlock(
            relations=tuple(leaf.ref for leaf in self.leaves()),
            predicates=self.predicates(),
            select=tuple(select),
        )
        reference = evaluate_block(block, emp_dept_db.catalog)
        result = run_plan(emp_dept_db, plan)
        assert rows_equal_bag(reference.rows, result.rows)

    def test_filters_pushed_to_scans(self, emp_dept_db):
        plan, _ = optimize(
            emp_dept_db,
            self.leaves(),
            self.predicates(),
            None,
            [("sal", col("e.sal"))],
        )
        scans = [
            node
            for node in plan_nodes(plan)
            if type(node).__name__ == "ScanNode"
        ]
        emp_scan = next(s for s in scans if s.alias == "e")
        assert emp_scan.filters  # the age filter lives at the scan

    def test_three_way_join_linear(self, emp_dept_db):
        leaves = [
            BaseLeaf(TableRef("emp", "e1")),
            BaseLeaf(TableRef("emp", "e2")),
            BaseLeaf(TableRef("dept", "d")),
        ]
        predicates = (
            Comparison("=", col("e1.dno"), col("d.dno")),
            Comparison("=", col("e2.dno"), col("d.dno")),
        )
        select = [("a", col("e1.sal")), ("b", col("e2.sal"))]
        plan, _ = optimize(emp_dept_db, leaves, predicates, None, select)
        check_plan(plan, emp_dept_db.catalog)
        block = QueryBlock(
            relations=tuple(leaf.ref for leaf in leaves),
            predicates=predicates,
            select=tuple(select),
        )
        reference = evaluate_block(block, emp_dept_db.catalog)
        result = run_plan(emp_dept_db, plan)
        assert rows_equal_bag(reference.rows, result.rows)

    def test_single_relation_block(self, emp_dept_db):
        plan, _ = optimize(
            emp_dept_db,
            [BaseLeaf(TableRef("emp", "e"))],
            (Comparison("=", col("e.dno"), lit(2)),),
            None,
            [("sal", col("e.sal"))],
        )
        result = run_plan(emp_dept_db, plan)
        assert len(result.rows) == 20  # fixture: dno = eno % 7, 140 rows

    def test_cross_join_fallback(self, emp_dept_db):
        plan, _ = optimize(
            emp_dept_db,
            self.leaves(),
            (),  # no predicates at all
            None,
            [("sal", col("e.sal")), ("budget", col("d.budget"))],
        )
        result = run_plan(emp_dept_db, plan)
        assert len(result.rows) == 140 * 7

    def test_duplicate_alias_rejected(self, emp_dept_db):
        with pytest.raises(PlanError):
            optimize(
                emp_dept_db,
                [BaseLeaf(TableRef("emp", "e")), BaseLeaf(TableRef("dept", "e"))],
                (),
                None,
                [("x", col("e.sal"))],
            )

    def test_stats_populated(self, emp_dept_db):
        _, optimizer = optimize(
            emp_dept_db,
            self.leaves(),
            self.predicates(),
            None,
            [("sal", col("e.sal"))],
        )
        assert optimizer.stats.joinplan_calls > 0
        assert optimizer.stats.subsets_expanded >= 1
        assert optimizer.stats.plans_retained > 0


class TestGroupedBlocks:
    def grouped_args(self):
        leaves = [
            BaseLeaf(TableRef("emp", "e")),
            BaseLeaf(TableRef("dept", "d")),
        ]
        predicates = (Comparison("=", col("e.dno"), col("d.dno")),)
        spec = GroupingSpec(
            group_keys=(("d", "loc"),),
            aggregates=(
                ("total", AggregateCall("sum", col("e.sal"))),
                ("n", AggregateCall("count", None)),
            ),
        )
        select = [
            ("loc", col("d.loc")),
            ("total", col("total")),
            ("n", col("n")),
        ]
        return leaves, predicates, spec, select

    def reference(self, db):
        leaves, predicates, spec, select = self.grouped_args()
        block = QueryBlock(
            relations=tuple(leaf.ref for leaf in leaves),
            predicates=predicates,
            group_by=(col("d.loc"),),
            aggregates=spec.aggregates,
            select=tuple(select),
        )
        return evaluate_block(block, db.catalog)

    def test_traditional_matches_reference(self, emp_dept_db):
        leaves, predicates, spec, select = self.grouped_args()
        plan, _ = optimize(
            emp_dept_db, leaves, predicates, spec, select,
            options=TRADITIONAL,
        )
        result = run_plan(emp_dept_db, plan)
        assert rows_equal_bag(self.reference(emp_dept_db).rows, result.rows)

    def test_greedy_matches_reference(self, emp_dept_db):
        leaves, predicates, spec, select = self.grouped_args()
        plan, _ = optimize(emp_dept_db, leaves, predicates, spec, select)
        result = run_plan(emp_dept_db, plan)
        assert rows_equal_bag(self.reference(emp_dept_db).rows, result.rows)

    def test_greedy_never_worse_than_traditional(self, emp_dept_db):
        leaves, predicates, spec, select = self.grouped_args()
        greedy_plan, _ = optimize(
            emp_dept_db, leaves, predicates, spec, select
        )
        traditional_plan, _ = optimize(
            emp_dept_db, leaves, predicates, spec, select,
            options=TRADITIONAL,
        )
        assert greedy_plan.props.cost <= traditional_plan.props.cost

    def test_traditional_groups_after_all_joins(self, emp_dept_db):
        leaves, predicates, spec, select = self.grouped_args()
        plan, _ = optimize(
            emp_dept_db, leaves, predicates, spec, select,
            options=TRADITIONAL,
        )
        groups = [
            node for node in plan_nodes(plan)
            if isinstance(node, GroupByNode)
        ]
        assert len(groups) == 1  # never an early group-by

    def test_having_applied(self, emp_dept_db):
        leaves, predicates, spec, select = self.grouped_args()
        spec = GroupingSpec(
            group_keys=spec.group_keys,
            aggregates=spec.aggregates,
            having=(Comparison(">", col("n"), lit(30)),),
        )
        plan, _ = optimize(emp_dept_db, leaves, predicates, spec, select)
        result = run_plan(emp_dept_db, plan)
        position = plan.schema.index_of(None, "n")
        assert all(row[position] > 30 for row in result.rows)

    def test_median_disables_early_grouping(self, emp_dept_db):
        leaves, predicates, _, _ = self.grouped_args()
        spec = GroupingSpec(
            group_keys=(("d", "loc"),),
            aggregates=(("m", AggregateCall("median", col("e.sal"))),),
        )
        select = [("loc", col("d.loc")), ("m", col("m"))]
        plan, optimizer = optimize(
            emp_dept_db, leaves, predicates, spec, select
        )
        assert optimizer.stats.early_groupby_accepted == 0
        result = run_plan(emp_dept_db, plan)
        assert result.rows  # still executes correctly

    def test_count_star_early_grouping_correct(self, nopk_db):
        """COUNT(*) partials multiply through joins; the coalescing sum
        must still equal the pair count."""
        leaves = [
            BaseLeaf(TableRef("emp", "e")),
            BaseLeaf(TableRef("events", "x")),
        ]
        predicates = (Comparison("=", col("e.dno"), col("x.dno")),)
        spec = GroupingSpec(
            group_keys=(("x", "kind"),),
            aggregates=(("n", AggregateCall("count", None)),),
        )
        select = [("kind", col("x.kind")), ("n", col("n"))]
        block = QueryBlock(
            relations=tuple(leaf.ref for leaf in leaves),
            predicates=predicates,
            group_by=(col("x.kind"),),
            aggregates=spec.aggregates,
            select=tuple(select),
        )
        reference = evaluate_block(block, nopk_db.catalog)
        # force early grouping to be considered by shrinking memory
        plan, _ = optimize(nopk_db, leaves, predicates, spec, select)
        result = run_plan(nopk_db, plan)
        assert rows_equal_bag(reference.rows, result.rows)


class TestEarlyGroupingDecision:
    def build_big_db(self):
        """Two relations big enough that eager aggregation saves IO."""
        import random

        from repro import Database

        db = Database(CostParams(memory_pages=4))
        db.create_table(
            "sales",
            [("sid", "int"), ("dno", "int"), ("amt", "float")],
            primary_key=["sid"],
        )
        db.create_table(
            "details",
            [("rid", "int"), ("dno", "int"), ("x", "float"), ("y", "float")],
            primary_key=["rid"],
        )
        rng = random.Random(8)
        db.insert(
            "sales",
            [(i, i % 10, float(rng.randint(1, 99))) for i in range(3000)],
        )
        db.insert(
            "details",
            [(i, i % 10, float(i), float(i)) for i in range(3000)],
        )
        db.analyze()
        return db

    def args(self):
        leaves = [
            BaseLeaf(TableRef("sales", "s")),
            BaseLeaf(TableRef("details", "d")),
        ]
        predicates = (Comparison("=", col("s.dno"), col("d.dno")),)
        spec = GroupingSpec(
            group_keys=(("s", "dno"),),
            aggregates=(("t", AggregateCall("sum", col("s.amt"))),),
        )
        select = [("dno", col("s.dno")), ("t", col("t"))]
        return leaves, predicates, spec, select

    def test_greedy_applies_early_group_when_cheaper(self):
        db = self.build_big_db()
        leaves, predicates, spec, select = self.args()
        plan, optimizer = optimize(db, leaves, predicates, spec, select)
        traditional, _ = optimize(
            db, leaves, predicates, spec, select, options=TRADITIONAL
        )
        assert optimizer.stats.early_groupby_accepted > 0
        assert plan.props.cost < traditional.props.cost

    def test_early_group_plan_correct(self):
        db = self.build_big_db()
        leaves, predicates, spec, select = self.args()
        plan, _ = optimize(db, leaves, predicates, spec, select)
        block = QueryBlock(
            relations=tuple(leaf.ref for leaf in leaves),
            predicates=predicates,
            group_by=(col("s.dno"),),
            aggregates=spec.aggregates,
            select=tuple(select),
        )
        reference = evaluate_block(block, db.catalog)
        result = run_plan(db, plan)
        assert rows_equal_bag(reference.rows, result.rows)

    def test_width_guard_blocks_wider_plans(self):
        """With the width guard off, the greedy rule may accept plans
        the paper's safety condition would reject; with it on, accepted
        early groupings are never wider."""
        db = self.build_big_db()
        leaves, predicates, spec, select = self.args()
        guarded, opt_guarded = optimize(
            db, leaves, predicates, spec, select,
            options=OptimizerOptions(width_guard=True),
        )
        unguarded, opt_unguarded = optimize(
            db, leaves, predicates, spec, select,
            options=OptimizerOptions(width_guard=False),
        )
        # both remain correct; the guard can only reduce acceptances
        assert (
            opt_guarded.stats.early_groupby_accepted
            <= opt_unguarded.stats.early_groupby_accepted
        )
