"""Execution-path tests for the out-of-memory disciplines.

Forces each spill path to actually trigger at runtime (tiny buffer
pool) and checks that results stay correct and that executed IO equals
the cost model's estimate — the strongest form of the E12 property.
"""

import random

import pytest

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import col
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, SortNode
from repro.catalog.schema import table_row_schema
from repro.cost import CostModel
from repro.engine import ExecutionContext, execute_plan
from repro.engine.reference import rows_equal_bag


@pytest.fixture
def big_db():
    """Tables far larger than the 3-page buffer pool."""
    db = Database(CostParams(memory_pages=3))
    db.create_table(
        "a", [("k", "int"), ("v", "float")], primary_key=["k"]
    )
    db.create_table(
        "b", [("k", "int"), ("g", "int"), ("w", "float")],
        primary_key=["k"],
    )
    rng = random.Random(77)
    db.insert("a", [(i, float(rng.randint(0, 999))) for i in range(4000)])
    db.insert(
        "b",
        [
            (i, i % 1500, float(rng.randint(0, 999)))
            for i in range(4000)
        ],
    )
    db.analyze()
    return db


def scan(db, table, alias):
    return ScanNode(
        table,
        alias,
        table_row_schema(alias, db.catalog.table(table).columns).fields,
    )


def run_checked(db, plan):
    """Annotate, execute, and assert estimated == executed IO."""
    CostModel(db.catalog, db.params).annotate_tree(plan)
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        result = execute_plan(plan, context)
    assert span.delta.total == pytest.approx(plan.props.cost), plan.describe()
    return result


class TestSpillPaths:
    def test_grace_hash_join_spills(self, big_db):
        plan = JoinNode(
            scan(big_db, "a", "x"),
            scan(big_db, "b", "y"),
            method="hj",
            equi_keys=[(("x", "k"), ("y", "k"))],
        )
        result = run_checked(big_db, plan)
        assert len(result.rows) == 4000
        # the build side exceeded 3 pages: the spill really happened
        assert plan.props.cost > (
            plan.left.props.cost + plan.right.props.cost
        )

    def test_external_sort_merge_join(self, big_db):
        plan = JoinNode(
            scan(big_db, "a", "x"),
            scan(big_db, "b", "y"),
            method="smj",
            equi_keys=[(("x", "k"), ("y", "k"))],
        )
        result = run_checked(big_db, plan)
        assert len(result.rows) == 4000

    def test_block_nlj_rescans_inner(self, big_db):
        plan = JoinNode(
            scan(big_db, "a", "x"),
            scan(big_db, "b", "y"),
            method="nlj",
            equi_keys=[(("x", "k"), ("y", "k"))],
        )
        result = run_checked(big_db, plan)
        assert len(result.rows) == 4000
        table_pages = big_db.catalog.table("b").num_pages
        # more than one full inner pass was charged
        assert plan.props.cost > plan.left.props.cost + table_pages

    def test_hash_group_by_spills(self, big_db):
        plan = GroupByNode(
            scan(big_db, "b", "y"),
            group_keys=[("y", "g")],  # 1500 groups: exceeds 3 pages
            aggregates=[("s", AggregateCall("sum", col("y.w")))],
        )
        result = run_checked(big_db, plan)
        assert len(result.rows) == 1500
        assert plan.props.cost > plan.child.props.cost

    def test_external_sort_node(self, big_db):
        plan = SortNode(scan(big_db, "b", "y"), [("y", "w")])
        result = run_checked(big_db, plan)
        values = [row[2] for row in result.rows]
        assert values == sorted(values)
        assert plan.props.cost > plan.child.props.cost

    def test_nlj_with_materialized_derived_inner(self, big_db):
        # inner is a group-by (not a base scan): it must be materialized
        # and re-read per outer block
        inner = GroupByNode(
            scan(big_db, "b", "y"),
            group_keys=[("y", "g")],
            aggregates=[("s", AggregateCall("sum", col("y.w")))],
        )
        plan = JoinNode(
            scan(big_db, "a", "x"),
            inner,
            method="nlj",
            residuals=(),
            equi_keys=[(("x", "k"), ("y", "g"))],
        )
        result = run_checked(big_db, plan)
        assert len(result.rows) == 1500  # one a-row per group key < 1500

    def test_spilled_results_match_in_memory_results(self, big_db):
        """The same join under a huge buffer pool gives the same rows."""
        roomy = Database(CostParams(memory_pages=512))
        roomy.catalog = big_db.catalog  # same data, bigger memory
        spilled_plan = JoinNode(
            scan(big_db, "a", "x"),
            scan(big_db, "b", "y"),
            method="hj",
            equi_keys=[(("x", "k"), ("y", "k"))],
        )
        roomy_plan = JoinNode(
            scan(roomy, "a", "x"),
            scan(roomy, "b", "y"),
            method="hj",
            equi_keys=[(("x", "k"), ("y", "k"))],
        )
        spilled = run_checked(big_db, spilled_plan)
        in_memory = run_checked(roomy, roomy_plan)
        assert rows_equal_bag(spilled.rows, in_memory.rows)
        assert spilled_plan.props.cost > roomy_plan.props.cost
