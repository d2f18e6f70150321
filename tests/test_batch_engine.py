"""Differential tests: streaming batch executor vs the legacy row engine.

The batching rewrite (PR 2) must be invisible except for speed: for
every plan the batch executor has to produce the *exact same row list*
(same order, same values) as the row-at-a-time interpreter it replaced
(kept as ``engine.rowexec``), and charge the *exact same page IO* —
reads and writes separately, not just totals. This file drives well
over 100 seeded plans through both engines across every join method,
both group-by methods, optimized multi-join workload plans, and random
canonical queries checked against the brute-force reference.

It also holds the PR's regression tests: the sort-merge-join
input-mutation fix, index-NLJ inner ``actual_rows``, the
``Result.pages`` cache, and per-operator metrics surfacing.
"""

import io as io_module
import random

import pytest

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import ColumnRef, Comparison, col, lit
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, SortNode
from repro.catalog.schema import table_row_schema
from repro.engine import ExecutionContext, execute_plan, execute_plan_rows
from repro.engine import rowexec
from repro.engine.context import Result
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.optimizer.block import BaseLeaf, BlockOptimizer, GroupingSpec
from repro.optimizer.options import TRADITIONAL
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


def scan(db, table, alias):
    return ScanNode(
        table,
        alias,
        table_row_schema(alias, db.catalog.table(table).columns).fields,
    )


def assert_engines_agree(db, plan):
    """Run *plan* through both executors — the legacy interpreter and
    the columnar engine; exact rows, exact IO split."""
    legacy_context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        legacy = execute_plan_rows(plan, legacy_context)
    legacy_io = span.delta

    batched_context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        batched = execute_plan(plan, batched_context)
    batched_io = span.delta

    assert batched.rows == legacy.rows
    assert batched_io.page_reads == legacy_io.page_reads
    assert batched_io.page_writes == legacy_io.page_writes
    # the batch path additionally meters every operator
    metrics = batched_context.metrics
    assert metrics.of(plan).rows_out == len(batched.rows)
    assert metrics.actual_rows(plan) == len(batched.rows)
    assert legacy_context.metrics.actual_rows(plan) == len(legacy.rows)
    return batched


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
        result = assert_engines_agree(db, plan)
        assert result.rows  # seeded key domains guarantee matches

    def test_cross_join_matches_legacy(self):
        db = join_db(0)
        plan = JoinNode(scan(db, "l", "l"), scan(db, "r", "r"), "nlj")
        assert_engines_agree(db, plan)


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


class TestGroupByDifferential:
    @pytest.mark.parametrize("seed", GROUP_SEEDS)
    @pytest.mark.parametrize("method", ["hash", "sort"])
    @pytest.mark.parametrize("shape", ["single", "multi"])
    def test_group_by_matches_legacy(self, seed, method, shape):
        db = group_db(seed)
        plan = group_plan(db, method, shape)
        result = assert_engines_agree(db, plan)
        assert result.rows

    @pytest.mark.parametrize("method", ["hash", "sort"])
    def test_sorted_output_matches_legacy(self, method):
        db = group_db(0)
        plan = SortNode(group_plan(db, method, "single"), (("g", "a"),))
        assert_engines_agree(db, plan)


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
        assert_engines_agree(workload.db, plan)


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
# Regression: sort-merge join must not mutate its inputs
# ----------------------------------------------------------------------


class TestSortMergeJoinMutation:
    def test_smj_leaves_input_results_untouched(self):
        db = join_db(3)
        plan = join_plan(db, "smj", "plain")
        context = ExecutionContext(db.catalog, db.io, db.params)
        left = execute_plan_rows(plan.left, context)
        right = execute_plan_rows(plan.right, context)
        left_before = list(left.rows)
        right_before = list(right.rows)
        assert left_before != sorted(left_before)  # sort would reorder

        joined = rowexec._sort_merge_join(plan, context, left, right)

        assert left.rows == left_before
        assert right.rows == right_before
        hashed = execute_plan(join_plan(db, "hj", "plain"),
                              ExecutionContext(db.catalog, db.io, db.params))
        assert rows_equal_bag(joined, hashed.rows)


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


# ----------------------------------------------------------------------
# Regression: Result.pages is cached, and invalidates on growth
# ----------------------------------------------------------------------


class TestResultPagesCache:
    def test_pages_cached_until_row_count_changes(self, monkeypatch):
        db = join_db(0)
        context = ExecutionContext(db.catalog, db.io, db.params)
        result = execute_plan(scan(db, "l", "l"), context)
        first = result.pages

        calls = []
        from repro.engine import context as context_module

        real_pages_for = context_module.pages_for

        def counting_pages_for(rows, width):
            calls.append((rows, width))
            return real_pages_for(rows, width)

        monkeypatch.setattr(
            context_module, "pages_for", counting_pages_for
        )
        assert result.pages == first
        assert result.pages == first
        assert calls == []  # served from the cache

        result.rows.append(result.rows[0])
        grown = result.pages
        assert calls  # recomputed exactly because the row count moved
        assert grown == real_pages_for(
            len(result.rows), result.schema.width
        )


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

