"""Column-lifetime projection pruning: live-set analysis, the
post-DP :func:`prune_plan` pass, and the differential guarantees
(bag-identical rows, identical page IO) against the reference
evaluator, the IO oracle and the unpruned plan shapes."""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import CostParams, Database
from repro.algebra.plan import (
    GroupByNode,
    JoinNode,
    ScanNode,
    explain,
    plan_nodes,
)
from repro.catalog.schema import RID_COLUMN, Field
from repro.cost.model import CostModel
from repro.optimizer import canonical
from repro.optimizer.pruning import prune_plan
from repro.testing.exactio import exact_io



def build_wide_db(memory_pages: int = 64, scale: int = 1) -> Database:
    """Three tables with columns that are filter-only, join-only, or
    output — the shapes lifetime analysis must tell apart."""
    db = Database(CostParams(memory_pages=memory_pages))
    db.create_table(
        "emp",
        [
            ("eno", "int"),
            ("dno", "int"),
            ("sal", "float"),
            ("age", "int"),
            ("bonus", "float"),
            ("grade", "int"),
        ],
        primary_key=["eno"],
    )
    db.create_table(
        "dept",
        [("dno", "int"), ("budget", "float"), ("loc", "int")],
        primary_key=["dno"],
    )
    db.create_table(
        "proj",
        [("pno", "int"), ("dno", "int"), ("funds", "float")],
        primary_key=["pno"],
    )
    rng = random.Random(7)
    db.insert(
        "emp",
        [
            (
                e,
                e % 11,
                float(rng.randint(100, 999)),
                rng.randint(20, 60),
                float(rng.randint(0, 99)),
                rng.randrange(5),
            )
            for e in range(220 * scale)
        ],
    )
    db.insert(
        "dept",
        [
            (d, float(rng.randint(1_000, 9_000)), d % 3)
            for d in range(11 * scale)
        ],
    )
    db.insert(
        "proj",
        [
            (p, p % 11, float(rng.randint(10, 500)))
            for p in range(40)
        ],
    )
    db.analyze()
    return db


# ----------------------------------------------------------------------
# Live-set analysis on optimizer-built shapes
# ----------------------------------------------------------------------


def scans_of(plan):
    return [node for node in plan_nodes(plan) if isinstance(node, ScanNode)]


def joins_of(plan):
    return [node for node in plan_nodes(plan) if isinstance(node, JoinNode)]


def test_filter_only_column_never_leaves_the_scan():
    db = build_wide_db()
    plan = db.optimize(
        "select e.sal from emp e, dept d "
        "where e.dno = d.dno and e.age < 40 and d.loc = 1"
    ).plan
    for join in joins_of(plan):
        assert ("e", "age") not in join.projection
        assert ("d", "loc") not in join.projection
    # age/loc are filter-only: evaluated during the scan (over the full
    # row-stored page), so the scan need not decode them either.
    for scan in scans_of(plan):
        names = {field.name for field in scan.schema}
        assert "age" not in names
        assert "loc" not in names


def test_join_key_dropped_above_its_last_join():
    db = build_wide_db()
    plan = db.optimize(
        "select e.sal from emp e, dept d where e.dno = d.dno"
    ).plan
    (join,) = joins_of(plan)
    # The equi key is consumed by the join itself; no ancestor needs it.
    assert ("e", "dno") not in join.projection
    assert ("d", "dno") not in join.projection


def test_reused_join_key_stays_live_until_its_last_use():
    db = build_wide_db()
    plan = db.optimize(
        "select e.sal from emp e, dept d, proj p "
        "where e.dno = d.dno and d.dno = p.dno"
    ).plan
    joins = joins_of(plan)
    assert len(joins) == 2
    top, bottom = joins[0], joins[1]
    assert bottom in list(plan_nodes(top))
    # The shared key survives the bottom join (the top one still probes
    # on it) but not the top join.
    assert any(key[1] == "dno" for key in bottom.projection)
    assert not any(key[1] == "dno" for key in top.projection)


def test_residual_predicate_columns_live_up_to_the_residual_join():
    db = build_wide_db()
    plan = db.optimize(
        "select e.eno from emp e, dept d "
        "where e.dno = d.dno and e.sal > d.budget"
    ).plan
    (join,) = joins_of(plan)
    assert join.residuals
    # Residual inputs must reach the join, and die there.
    for scan in scans_of(plan):
        names = {field.name for field in scan.schema}
        if scan.alias == "e":
            assert "sal" in names
        else:
            assert "budget" in names
    assert ("e", "sal") not in join.projection
    assert ("d", "budget") not in join.projection


def test_search_stats_count_pruned_columns():
    db = build_wide_db()
    result = db.optimize(
        "select e.sal from emp e, dept d "
        "where e.dno = d.dno and e.age < 40 and d.loc = 1"
    )
    assert result.stats.projection_columns_pruned > 0


# ----------------------------------------------------------------------
# The standalone prune_plan pass
# ----------------------------------------------------------------------


def widened(db: Database, plan):
    """*plan* rebuilt the way a benchmark (or an optimizer without
    lifetime analysis) would build it: every scan also decodes its
    filter columns and every join projects all of its inputs' columns,
    so every predicate column rides to the top."""

    def widen(node):
        if isinstance(node, ScanNode):
            wanted = {field.name for field in node.schema} | {
                name for predicate in node.filters
                for _, name in predicate.columns()
            }
            fields = [
                Field(node.alias, column.name, column.dtype)
                for column in db.catalog.table(node.table_name).columns
                if column.name in wanted and column.name != RID_COLUMN
            ]
            return node.replace(fields=fields)
        if isinstance(node, JoinNode):
            return node.replace(
                left=widen(node.left), right=widen(node.right), projection=None
            )
        return node.replace(child=widen(node.child))

    wide = widen(plan)
    CostModel(db.catalog, db.params).annotate_tree(wide)
    return wide


def hand_built_plan(db: Database):
    """An unpruned two-join plan: every predicate column rides to the
    top."""
    return widened(
        db,
        db.optimize(
            "select e.sal, p.funds from emp e, dept d, proj p "
            "where e.dno = d.dno and d.dno = p.dno and e.age < 50"
        ).plan,
    )


def test_prune_plan_preserves_root_schema_and_rows():
    db = build_wide_db()
    plan = hand_built_plan(db)
    model = CostModel(db.catalog, db.params)
    pruned = prune_plan(plan, model=model)
    assert [f.key for f in pruned.schema] == [f.key for f in plan.schema]
    base_rows, base_io = db.execute_plan(plan)
    pruned_rows, pruned_io = db.execute_plan(pruned)
    assert sorted(base_rows.rows) == sorted(pruned_rows.rows)
    assert base_io.total == pruned_io.total


def test_prune_plan_narrows_interior_nodes():
    db = build_wide_db()
    plan = hand_built_plan(db)
    pruned = prune_plan(plan, model=CostModel(db.catalog, db.params))
    wide_joins = {id(j): len(j.projection) for j in joins_of(plan)}
    assert any(
        len(j.projection) < max(wide_joins.values())
        for j in joins_of(pruned)
    )
    top = joins_of(pruned)[0]
    assert not any(key[1] == "age" for key in top.projection)


def test_prune_plan_is_idempotent():
    db = build_wide_db()
    pruned = prune_plan(hand_built_plan(db))
    again = prune_plan(pruned)
    assert again is pruned  # second pass finds nothing to narrow


def test_prune_plan_counts_in_stats():
    from repro.optimizer.stats import SearchStats

    db = build_wide_db()
    stats = SearchStats()
    prune_plan(hand_built_plan(db), stats=stats)
    assert stats.plans_repruned == 1


def test_live_sets_track_requirements_top_down():
    """Each scan of the pruned plan decodes only what some ancestor
    still reads: a filter-only column is applied at the scan and dead
    above it."""
    db = build_wide_db()
    plan = hand_built_plan(db)
    pruned = prune_plan(plan)
    assert pruned.schema == plan.schema
    for scan in scans_of(pruned):
        if scan.alias == "e":
            assert ("e", "age") in {
                key for f in scan.filters for key in f.columns()
            }
            assert not scan.schema.has("e", "age")
    unpruned = {scan.alias: len(scan.schema) for scan in scans_of(plan)}
    assert any(
        len(scan.schema) < unpruned[scan.alias] for scan in scans_of(pruned)
    )


def test_view_boundary_is_narrowed():
    """The outer query touches one of the view's three outputs; the
    post-DP pass must narrow the view-side plan below the rename."""
    db = build_wide_db()
    sql = (
        "with v(dno, asal, n) as "
        "(select e.dno, avg(e.sal), count(e.eno) from emp e "
        "group by e.dno) "
        "select e.eno from emp e, v x "
        "where e.dno = x.dno and e.sal > x.asal"
    )
    # the search's best plan as the block DP built it: the pass's input
    passes = []

    def spy(plan, model=None, stats=None):
        passes.append((plan, prune_plan(plan, model=model, stats=stats)))
        return passes[-1][1]

    with mock.patch.object(canonical, "prune_plan", spy):
        result = db.optimize(sql)
    wide, plan = passes[0]
    assert result.plan is plan

    def widest_groupby_output(root):
        return max(
            len(node.projection)
            for node in plan_nodes(root)
            if isinstance(node, GroupByNode)
        )

    # dno and asal are consumed by the outer join; n never is — the
    # view-side group-by must not carry it across the view boundary.
    assert widest_groupby_output(plan) < widest_groupby_output(wide)
    on = db.query(sql)
    assert explain(on.plan) == explain(plan)
    assert sorted(on.rows) == sorted(db.reference(sql).rows)
    assert on.executed_io.total == exact(db, on.plan, on.exec_metrics)


def test_matview_backing_scan_is_narrowed():
    db = build_wide_db()
    db.create_materialized_view(
        "mv_stats",
        "select e.dno as dno, avg(e.sal) as a, min(e.sal) as lo, "
        "max(e.sal) as hi, count(e.eno) as n from emp e group by e.dno",
    )
    result = db.query("select m.a from mv_stats m where m.dno < 5")
    scans = scans_of(result.plan)
    backing = [s for s in scans if s.table_name.startswith("__mv_")]
    assert backing, explain(result.plan)
    names = {field.name for field in backing[0].schema}
    # Only the filter column (applied at the scan) and the output column
    # are decoded; lo/hi/n never leave the pages.
    assert "lo" not in names and "hi" not in names and "n" not in names
    reference = db.reference("select m.a from mv_stats m where m.dno < 5")
    assert sorted(result.rows) == sorted(reference.rows)


# ----------------------------------------------------------------------
# Differential: against the oracles, and pruned vs unpruned
# ----------------------------------------------------------------------

DIFF_QUERIES = [
    "select e.sal from emp e, dept d "
    "where e.dno = d.dno and e.age < 40 and d.loc = 1",
    "select e.sal, p.funds from emp e, dept d, proj p "
    "where e.dno = d.dno and d.dno = p.dno and e.grade >= 1",
    "select d.budget, sum(e.sal) as s from emp e, dept d "
    "where e.dno = d.dno and e.bonus < 90 group by d.budget",
    "select e.eno from emp e, dept d "
    "where e.dno = d.dno and e.sal > d.budget / 100",
    "select e.dno, count(e.eno) as n from emp e "
    "where e.age < 55 group by e.dno having count(e.eno) > 2",
]

def exact(db, plan, exec_metrics):
    return exact_io(plan, exec_metrics, db.catalog, db.params)


@pytest.mark.parametrize("sql", DIFF_QUERIES)
def test_pruned_plans_row_and_io_identical(sql):
    db = build_wide_db()
    on = db.query(sql)
    assert sorted(on.rows) == sorted(db.reference(sql).rows)
    assert on.executed_io.total == exact(db, on.plan, on.exec_metrics)


def _total_spill(exec_metrics):
    return (
        sum(op.spill_reads for op in exec_metrics.operators),
        sum(op.spill_writes for op in exec_metrics.operators),
    )


SPILL_SQL = (
    "select e.sal, d.budget from emp e, dept d where e.dno = d.dno"
)


@pytest.fixture(scope="module")
def spill_db():
    return build_wide_db(memory_pages=3, scale=100)


def spill_answer(db):
    """SPILL_SQL over the stored rows, as a Python hash join."""
    budget = {dno: budget for dno, budget, _ in db.catalog.table("dept").rows}
    return [
        (row[2], budget[row[1]])
        for row in db.catalog.table("emp").rows
        if row[1] in budget
    ]


@pytest.mark.parametrize("against", ["batch", "closed-form"])
def test_pruned_plans_identical_under_spill(spill_db, against):
    """Grace/spill paths: the spilling operators sit directly on the
    scans, whose widths pruning leaves unchanged here (every scanned
    column is live at scan level), so even spill IO must match — each
    other's (``batch``), and the Python join's rows and the cost
    model's IO under the run's actual counts (``closed-form``)."""
    db = spill_db
    base = widened(db, db.optimize(SPILL_SQL).plan)
    pruned = prune_plan(base, model=CostModel(db.catalog, db.params))
    assert pruned is not base
    rows_a, io_a, ran_a = db._execute_with_metrics(base)
    rows_b, io_b, ran_b = db._execute_with_metrics(pruned)
    if against == "batch":
        assert sorted(rows_a.rows) == sorted(rows_b.rows)
        assert io_a.total == io_b.total
        assert _total_spill(ran_a) == _total_spill(ran_b)
        return
    expected = sorted(spill_answer(db))
    assert sorted(rows_a.rows) == expected == sorted(rows_b.rows)
    assert io_a.total == exact(db, base, ran_a)
    assert io_b.total == exact(db, pruned, ran_b)


def test_spill_shape_actually_spills(spill_db):
    plan = spill_db.optimize(SPILL_SQL).plan
    _, _, ran = spill_db._execute_with_metrics(plan)
    reads, writes = _total_spill(ran)
    assert reads or writes


def test_pruning_never_costs_more():
    db = build_wide_db()
    for sql in DIFF_QUERIES:
        on = db.optimize(sql)
        assert on.cost <= widened(db, on.plan).props.cost + 1e-9


# ----------------------------------------------------------------------
# Executor observability
# ----------------------------------------------------------------------


def test_explain_analyze_reports_width_and_cells():
    db = build_wide_db()
    result = db.query(
        "select e.sal from emp e, dept d where e.dno = d.dno"
    )
    text = result.explain(analyze=True)
    assert "width=" in text
    assert "cells=" in text


def test_pruning_reduces_materialized_cells():
    db = build_wide_db()
    sql = (
        "select e.sal from emp e, dept d "
        "where e.dno = d.dno and e.age < 40 and e.bonus < 95"
    )
    on = db.query(sql)
    assert sorted(on.rows) == sorted(db.reference(sql).rows)
    _, _, wide = db._execute_with_metrics(widened(db, on.plan))
    assert on.exec_metrics.total_cells < wide.total_cells
