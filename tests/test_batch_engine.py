"""The columnar engine against its two oracles, plan by plan.

These were the differential tests against the row-at-a-time interpreter
the columnar engine replaced ("legacy" below). That interpreter is gone;
each plan is now held to what it checked, through the oracles that
stay:

- **page IO**, reads and writes: the cost model under the run's actual
  counts (:func:`repro.testing.exactio.exact_io`) for every plan without
  an index access, and for the index-NLJ plans the reads and writes the
  interpreter charged, pinned below (:data:`LEGACY_INLJ_IO`);
- **answers**: an optimizer-free computation of the same rows — plain
  Python over the stored rows for hand-built plans, sqlite3 for the
  multi-join workload blocks, the brute-force reference evaluator for
  random queries — compared as bags, except under a sort node.

This file drives well over 100 seeded plans across every join method,
both group-by methods, optimized multi-join workload plans, and random
canonical queries checked against the brute-force reference. It also
holds the index-NLJ inner ``actual_rows`` regression and per-operator
metrics surfacing.
"""

import io as io_module
import random
from collections import defaultdict

import pytest

from . import dp_support
from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import ColumnRef, Comparison, col, lit
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, SortNode
from repro.catalog.schema import table_row_schema
from repro.engine import ExecutionContext, execute_plan
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.optimizer.block import BaseLeaf, BlockOptimizer, GroupingSpec
from repro.optimizer.options import TRADITIONAL
from repro.testing.exactio import exact_io, has_index_access
from repro.workloads import (
    JoinWorkloadConfig,
    RandomQueryConfig,
    build_join_workload,
    random_queries,
)

JOIN_SEEDS = range(6)
GROUP_SEEDS = range(6)
WORKLOAD_SEEDS = range(5)
RANDOM_QUERY_COUNT = 20

LEGACY_INLJ_IO = {
    0: (193, 0),
    1: (145, 0),
    2: (130, 0),
    3: (166, 0),
    4: (166, 0),
    5: (238, 0),
}
"""Join seed -> (page reads, page writes) the row interpreter charged
for the index NLJ of :func:`join_plan`, residual or not (the residual
runs after the probe)."""


def scan(db, table, alias):
    return ScanNode(
        table,
        alias,
        table_row_schema(alias, db.catalog.table(table).columns).fields,
    )


def run_checked(db, plan, legacy_io=None):
    """Run *plan* on the engine: its page IO must equal the IO oracle's
    (*legacy_io*, reads and writes, for an index-bearing plan), and its
    metrics must cover the root."""
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        result = execute_plan(plan, context)
    io = span.delta
    if has_index_access(plan):
        assert (io.page_reads, io.page_writes) == legacy_io
    else:
        assert legacy_io is None
        assert io.total == exact_io(plan, context.metrics, db.catalog, db.params)
    metrics = context.metrics
    assert metrics.of(plan).rows_out == len(result.rows)
    assert metrics.actual_rows(plan) == len(result.rows)
    return result


def stored_rows(db, table):
    return list(db.catalog.table(table).rows)


def expected_join(db, variant):
    """``l ⋈ r`` on k computed over the stored rows, in :func:`join_plan`'s
    output shape."""
    by_key = defaultdict(list)
    for r in stored_rows(db, "r"):
        by_key[r[0]].append(r)
    rows = []
    for l in stored_rows(db, "l"):
        for r in by_key[l[0]]:
            if variant == "plain":
                rows.append(l + r)
            elif l[1] < r[1]:
                rows.append((l[0], r[1]))
    return rows


# ----------------------------------------------------------------------
# Join methods: 6 seeds x (3 methods x 2 variants + inlj x 2) = 48 plans
# ----------------------------------------------------------------------


def join_db(seed):
    rng = random.Random(seed)
    db = Database(CostParams(memory_pages=4))
    db.create_table("l", [("k", "int"), ("v", "int")])
    db.create_table("r", [("k", "int"), ("w", "int")])
    db.insert(
        "l",
        [
            (rng.randrange(12), rng.randrange(100))
            for _ in range(40 + rng.randrange(40))
        ],
    )
    db.insert(
        "r",
        [
            (rng.randrange(12), rng.randrange(100))
            for _ in range(40 + rng.randrange(40))
        ],
    )
    db.create_index("r_k_idx", "r", ["k"])
    db.analyze()
    return db


def join_plan(db, method, variant):
    residuals = ()
    projection = None
    if variant == "residual":
        residuals = (Comparison("<", col("l.v"), col("r.w")),)
        projection = (("l", "k"), ("r", "w"))
    return JoinNode(
        scan(db, "l", "l"),
        scan(db, "r", "r"),
        method,
        equi_keys=((("l", "k"), ("r", "k")),),
        residuals=residuals,
        projection=projection,
        index_name="r_k_idx" if method == "inlj" else None,
    )


class TestJoinMethodsDifferential:
    @pytest.mark.parametrize("seed", JOIN_SEEDS)
    @pytest.mark.parametrize("method", ["nlj", "hj", "smj", "inlj"])
    @pytest.mark.parametrize("variant", ["plain", "residual"])
    def test_join_method_matches_legacy(self, seed, method, variant):
        db = join_db(seed)
        plan = join_plan(db, method, variant)
        legacy_io = LEGACY_INLJ_IO[seed] if method == "inlj" else None
        result = run_checked(db, plan, legacy_io)
        assert result.rows  # seeded key domains guarantee matches
        assert rows_equal_bag(result.rows, expected_join(db, variant))

    def test_cross_join_matches_legacy(self):
        db = join_db(0)
        plan = JoinNode(scan(db, "l", "l"), scan(db, "r", "r"), "nlj")
        result = run_checked(db, plan)
        assert rows_equal_bag(
            result.rows,
            [l + r for l in stored_rows(db, "l") for r in stored_rows(db, "r")],
        )


# ----------------------------------------------------------------------
# Group-by methods: 6 seeds x 2 methods x 2 shapes = 24 plans
# ----------------------------------------------------------------------


def group_db(seed):
    rng = random.Random(1000 + seed)
    db = Database(CostParams(memory_pages=4))
    db.create_table("g", [("a", "int"), ("b", "int"), ("v", "float")])
    db.insert(
        "g",
        [
            (
                rng.randrange(8),
                rng.randrange(5),
                float(rng.randint(0, 100)),
            )
            for _ in range(150 + rng.randrange(100))
        ],
    )
    db.analyze()
    return db


def group_plan(db, method, shape):
    child = scan(db, "g", "g")
    if method == "sort":  # the input order a sort group-by requires
        keys = (("g", "a"),) if shape == "single" else (("g", "a"), ("g", "b"))
        child = SortNode(child, keys)
    if shape == "single":
        return GroupByNode(
            child,
            group_keys=(("g", "a"),),
            aggregates=(
                ("total", AggregateCall("sum", col("g.v"))),
                ("cnt", AggregateCall("count", None)),
            ),
            method=method,
        )
    return GroupByNode(
        child,
        group_keys=(("g", "a"), ("g", "b")),
        aggregates=(
            ("avg_v", AggregateCall("avg", col("g.v"))),
            ("min_v", AggregateCall("min", col("g.v"))),
            ("max_v", AggregateCall("max", col("g.v"))),
        ),
        having=(Comparison(">", ColumnRef(None, "avg_v"), lit(10.0)),),
        method=method,
    )


def expected_groups(db, shape):
    """:func:`group_plan`'s answer computed over the stored rows."""
    groups = defaultdict(list)
    for a, b, v in stored_rows(db, "g"):
        groups[(a,) if shape == "single" else (a, b)].append(v)
    if shape == "single":
        return [key + (sum(vs), len(vs)) for key, vs in groups.items()]
    return [
        key + (sum(vs) / len(vs), min(vs), max(vs))
        for key, vs in groups.items()
        if sum(vs) / len(vs) > 10.0
    ]


class TestGroupByDifferential:
    @pytest.mark.parametrize("seed", GROUP_SEEDS)
    @pytest.mark.parametrize("method", ["hash", "sort"])
    @pytest.mark.parametrize("shape", ["single", "multi"])
    def test_group_by_matches_legacy(self, seed, method, shape):
        db = group_db(seed)
        plan = group_plan(db, method, shape)
        result = run_checked(db, plan)
        assert result.rows
        assert rows_equal_bag(result.rows, expected_groups(db, shape))

    @pytest.mark.parametrize("method", ["hash", "sort"])
    def test_sorted_output_matches_legacy(self, method):
        db = group_db(0)
        plan = SortNode(group_plan(db, method, "single"), (("g", "a"),))
        result = run_checked(db, plan)
        # ORDER BY defines the order: ascending group key
        assert result.rows == sorted(expected_groups(db, "single"))


# ----------------------------------------------------------------------
# Optimized multi-join workload plans: 2 topologies x 5 seeds = 10 plans
# ----------------------------------------------------------------------


class TestWorkloadPlansDifferential:
    @pytest.mark.parametrize("topology", ["chain", "star"])
    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_optimized_plan_matches_legacy(self, topology, seed):
        workload = build_join_workload(
            JoinWorkloadConfig(
                topology=topology, leaves=4, seed=seed, rows_base=120
            )
        )
        optimizer = BlockOptimizer(
            workload.db.catalog, workload.db.params, TRADITIONAL
        )
        plan = optimizer.optimize_block(
            [BaseLeaf(ref) for ref in workload.relations],
            workload.predicates,
            GroupingSpec(
                group_keys=workload.group_keys,
                aggregates=workload.aggregates,
            ),
            workload.select,
        )
        result = run_checked(workload.db, plan)
        assert rows_equal_bag(result.rows, sqlite_answer(workload))


def sqlite_answer(workload):
    """The workload's block as SQL, answered by sqlite3 over the same
    stored rows (the brute-force evaluator's cross product of four
    tables would not finish)."""
    ((group_alias, group_column),) = workload.group_keys
    ((_, total),) = workload.aggregates
    sql = (
        f"select {group_alias}.{group_column}, {total.display()} from "
        + ", ".join(f"{ref.table} {ref.alias}" for ref in workload.relations)
        + " where "
        + " and ".join(p.display() for p in workload.predicates)
        + f" group by {group_alias}.{group_column}"
    )
    connection = dp_support.sqlite_copy(workload.db)
    try:
        return connection.execute(sql).fetchall()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Random canonical queries through the full stack vs brute force: 20
# ----------------------------------------------------------------------


class TestRandomQueriesVsReference:
    def test_random_queries_match_reference(self):
        db, queries = random_queries(
            RandomQueryConfig(seed=7, queries=RANDOM_QUERY_COUNT)
        )
        for query in queries:
            optimization = db.optimize_bound(query)
            result, _ = db.execute_plan(optimization.plan)
            expected = evaluate_canonical(query, db.catalog)
            assert rows_equal_bag(result.rows, expected.rows)


def test_differential_query_count_is_at_least_100():
    joins = len(JOIN_SEEDS) * 4 * 2 + 1
    groups = len(GROUP_SEEDS) * 2 * 2 + 2
    workloads = 2 * len(WORKLOAD_SEEDS)
    total = joins + groups + workloads + RANDOM_QUERY_COUNT
    assert total >= 100


# ----------------------------------------------------------------------
# Regression: index NLJ records the inner scan's actual rows
# ----------------------------------------------------------------------


class TestIndexNljActuals:
    def test_inner_scan_actual_rows_recorded(self):
        db = join_db(1)
        plan = join_plan(db, "inlj", "plain")
        context = ExecutionContext(db.catalog, db.io, db.params)
        result = execute_plan(plan, context)
        inner = context.metrics.of(plan.right)
        assert context.metrics.actual_rows(plan.right) == len(result.rows)
        assert inner.rows_out == len(result.rows)
        assert "index probe" in inner.label
        # no inner filter: every entry the probes matched was emitted
        assert inner.matches == inner.rows_out
        assert f"matches={inner.matches}" in inner.summary()


# ----------------------------------------------------------------------
# Metrics surfacing: explain(analyze=True) and the CLI --stats flag
# ----------------------------------------------------------------------


class TestMetricsSurfacing:
    def test_metrics_cover_every_operator(self):
        db = join_db(2)
        plan = join_plan(db, "hj", "residual")
        context = ExecutionContext(db.catalog, db.io, db.params)
        execute_plan(plan, context)
        assert context.metrics is not None
        labels = [op.label for op in context.metrics.operators]
        assert len(labels) == 3  # join + both scans
        for op in context.metrics.operators:
            assert op.rows_out >= 0
            assert op.seconds >= 0.0
            assert op.self_seconds >= 0.0

    def test_explain_analyze_shows_batch_metrics(self):
        from repro.algebra.plan import explain

        db = group_db(1)
        plan = group_plan(db, "hash", "single")
        context = ExecutionContext(db.catalog, db.io, db.params)
        execute_plan(plan, context)
        text = explain(plan, metrics=context.metrics)
        assert "actual rows=" in text
        assert "batches=" in text

    def test_shell_stats_prints_exec_section(self):
        from repro.cli import Shell, make_demo_database

        out = io_module.StringIO()
        shell = Shell(make_demo_database(), out=out, show_stats=True)
        shell.handle("select e.sal from emp e where e.age < 30;")
        text = out.getvalue()
        assert "stats: " in text
        assert "time_dp_s" not in text
        assert "trace: server.session=" in text
        assert "exec:" in text
        assert "rows=" in text
        assert "batches=" in text

    def test_query_result_carries_exec_metrics(self):
        db = group_db(2)
        result = db.query("select g.a, sum(g.v) from g group by g.a")
        assert result.exec_metrics is not None
        assert result.exec_metrics.operators
        assert result.exec_metrics.operators[0].rows_out == len(
            result.rows
        )

