"""Property-based end-to-end optimizer tests over random canonical
queries: every optimizer level returns the reference result, and the
full optimizer is never costlier than the traditional one (the paper's
guarantee, randomized)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.plan import explain
from repro.cost import CostParams
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.optimizer import optimize_query, optimize_traditional
from repro.optimizer.block import BaseLeaf, BlockOptimizer, GroupingSpec
from repro.optimizer.options import level_options
from repro.workloads import (
    JoinWorkloadConfig,
    RandomQueryConfig,
    build_join_workload,
    random_queries,
)

from .dp_support import BuildEverythingOptimizer


@st.composite
def workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    db, queries = random_queries(
        RandomQueryConfig(seed=seed, queries=3, fact_rows=120, dim_rows=15)
    )
    index = draw(st.integers(min_value=0, max_value=len(queries) - 1))
    return db, queries[index]


class TestRandomizedOptimizer:
    @given(case=workload())
    @settings(max_examples=25, deadline=None)
    def test_full_optimizer_correct(self, case):
        db, query = case
        reference = evaluate_canonical(query, db.catalog)
        result = optimize_query(query, db.catalog, db.params)
        rows, _ = db.execute_plan(result.plan)
        assert rows_equal_bag(reference.rows, rows.rows)

    @given(case=workload())
    @settings(max_examples=25, deadline=None)
    def test_traditional_optimizer_correct(self, case):
        db, query = case
        reference = evaluate_canonical(query, db.catalog)
        result = optimize_traditional(query, db.catalog, db.params)
        rows, _ = db.execute_plan(result.plan)
        assert rows_equal_bag(reference.rows, rows.rows)

    @given(case=workload())
    @settings(max_examples=25, deadline=None)
    def test_guarantee_never_worse(self, case):
        db, query = case
        full = optimize_query(query, db.catalog, db.params)
        traditional = optimize_traditional(query, db.catalog, db.params)
        assert full.cost <= traditional.cost + 1e-9

    @given(case=workload())
    @settings(max_examples=15, deadline=None)
    def test_estimated_cost_positive_and_finite(self, case):
        db, query = case
        result = optimize_query(query, db.catalog, db.params)
        assert 0 < result.cost < float("inf")


@st.composite
def join_workload(draw):
    workload = build_join_workload(
        JoinWorkloadConfig(
            topology=draw(st.sampled_from(["chain", "star"])),
            leaves=draw(st.integers(min_value=2, max_value=7)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
            rows_base=draw(st.sampled_from([40, 150])),
            jk_domain=draw(st.sampled_from([8, 1000])),
        )
    )
    params = CostParams(
        memory_pages=workload.db.params.memory_pages,
        cpu_tuple_weight=draw(st.sampled_from([0.0, 0.01])),
    )
    return workload, params, draw(st.sampled_from(["greedy", "traditional"]))


class TestCostFirstDpAgainstBuildEverything:
    """The DP costs join candidates as scalars and builds nodes only for
    the ones pruning retains; the oracle builds and annotates every
    candidate first. Same plan, same cost, same search counters."""

    @given(case=join_workload())
    @settings(max_examples=25, deadline=None)
    def test_same_plan_cost_and_counters(self, case):
        workload, params, level = case
        spec = GroupingSpec(
            group_keys=workload.group_keys, aggregates=workload.aggregates
        )
        leaves = [BaseLeaf(ref) for ref in workload.relations]
        outcome, built = {}, {}
        for name, optimizer_class in (
            ("light", BlockOptimizer),
            ("oracle", BuildEverythingOptimizer),
        ):
            optimizer = optimizer_class(
                workload.db.catalog, params, level_options(level)
            )
            plan = optimizer.optimize_block(
                leaves, workload.predicates, spec, workload.select
            )
            stats = optimizer.stats
            outcome[name] = (
                explain(plan),
                plan.props.cost,
                stats.joinplan_calls,
                stats.plans_retained,
                stats.plans_pruned,
                stats.subsets_expanded,
                stats.eager_alternatives_considered,
            )
            built[name] = (stats.joins_materialized, stats.joinplan_calls)
        assert outcome["light"] == outcome["oracle"]
        assert built["oracle"][0] == built["oracle"][1]
        assert built["light"][0] < built["light"][1]
