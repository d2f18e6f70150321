"""One search, not two: ``optimize_query`` reads the traditional
baseline out of the DP table its own search built — the lazy slice
(``grouped=False, carry=False``) of the all-W = ∅ combination's outer
block — and searches a second time only where that read-out cannot be
established. Every case here compares with :func:`second_search`, the
independent traditional search the baseline used to come from."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostParams, Database
from repro.algebra.expressions import ColumnRef, Literal
from repro.algebra.plan import FilterNode, explain
from repro.algebra.query import CanonicalQuery
from repro.optimizer import OptimizerOptions, block, canonical, optimize_query
from repro.optimizer.options import EARLY_GROUPING, level_options
from repro.optimizer.block import (
    LAZY,
    BaseLeaf,
    BlockOptimizer,
    DerivedLeaf,
    GroupingSpec,
    _BlockContext,
)
from repro.workloads import JoinWorkloadConfig, build_join_workload

from .dp_support import (
    COLD_LITERAL_OFFSET,
    e2e_statements,
    every_optimize_query,
    pruned_plans,
    run_examples,
    second_search,
)
from .test_experiments import experiments
from .test_property_optimizer import join_workload


# ----------------------------------------------------------------------
# (a) exactness on the pinned corpus and the paper's experiments
# ----------------------------------------------------------------------


class TestPinnedCorpus:
    def test_e2e_texts_read_the_baseline_out(self):
        for label, db, sql in e2e_statements():
            with pruned_plans() as pruned:
                full = db.optimize(sql)
            traditional = db.optimize(sql, "traditional")
            assert full.stats.baseline_searches == 0, label
            assert repr(full.traditional_cost) == repr(traditional.cost), label
            # optimize_query prunes its best plan, then its baseline
            assert len(pruned) == 2, label
            assert explain(pruned[1]) == explain(traditional.plan), label
            if full.plan is pruned[1]:  # the traditional plan won
                assert explain(full.plan) == explain(traditional.plan), label

    def test_examples_and_experiments_match_the_second_search(self):
        """Every ``optimize_query`` call the example scripts and the
        E1–E15 tables make (every database ``experiments.py`` builds),
        whichever way its baseline was obtained."""
        taken = {"read": 0, "searched": 0}

        def check(query, catalog, params, options, result):
            baseline = pruned[-1] if pruned else None
            oracle = second_search(query, catalog, params, options)
            assert repr(result.traditional_cost) == repr(oracle.cost)
            assert explain(baseline) == explain(oracle.plan)
            searched = result.stats.baseline_searches
            assert searched in (0, 1)
            taken["searched" if searched else "read"] += 1
            pruned.clear()  # the oracle's own prune_plan call included

        with pruned_plans() as pruned, every_optimize_query(check):
            run_examples(lambda *reported: None)
            experiments.render_all()
        assert taken["read"] > taken["searched"] > 0


# ----------------------------------------------------------------------
# (b) + what _prune assumes: the lazy slice, entry for entry
# ----------------------------------------------------------------------


@st.composite
def block_case(draw):
    workload, params, _ = draw(join_workload())
    cap = draw(st.sampled_from([1, 2, 6]))  # block.MAX_PLANS_PER_SET
    options = OptimizerOptions(
        early_grouping=draw(st.sampled_from(EARLY_GROUPING))
    )
    if draw(st.booleans()):
        spec = GroupingSpec(
            group_keys=workload.group_keys, aggregates=workload.aggregates
        )
        select = workload.select
    else:
        spec, select = None, workload.select[:1]
    leaves = [BaseLeaf(ref) for ref in workload.relations]
    return workload, params, options, cap, leaves, spec, select


def plan_cap(cap):
    """The DP's per-subset plan cap set to *cap* for a ``with`` block."""
    return mock.patch.object(block, "MAX_PLANS_PER_SET", cap)


def lazy_slice(entries):
    return [
        (entry.cost, entry.order, entry.width)
        for entry in entries
        if entry.state == LAZY
    ]


class TestLazySlice:
    @given(case=block_case())
    @settings(max_examples=40, deadline=None)
    def test_read_out_is_the_traditional_block_plan(self, case):
        workload, params, options, cap, leaves, spec, select = case
        catalog = workload.db.catalog
        with plan_cap(cap):
            plan, baseline = BlockOptimizer(
                catalog, params, options
            ).search_block(leaves, workload.predicates, spec, select)
            oracle = BlockOptimizer(
                catalog, params, level_options("traditional", options)
            ).optimize_block(leaves, workload.predicates, spec, select)
        assert plan.props.cost <= oracle.props.cost or baseline is None
        if baseline is not None:
            assert repr(baseline.props.cost) == repr(oracle.props.cost)
            assert explain(baseline) == explain(oracle)
        if spec is None:
            assert baseline is not None  # nothing eager to crowd it out

    @given(case=block_case())
    @settings(max_examples=40, deadline=None)
    def test_exact_slice_equals_traditional_table(self, case):
        """Whenever a block reports its lazy slice exact, every subset's
        slice is the table a traditional DP retains — and no retained
        entry is cheaper than its left input, the monotonicity
        ``_prune``'s per-class cut relies on."""
        workload, params, options, cap, leaves, spec, select = case
        searching = BlockOptimizer(workload.db.catalog, params, options)
        tables = {}
        for level, optimizer in (
            ("greedy", searching),
            ("traditional", searching.traditional_twin()),
        ):
            context = _BlockContext(
                optimizer, leaves, workload.predicates, spec, select
            )
            with plan_cap(cap):
                table = optimizer._dp_table(context)
            tables[level] = table, context.lazy_exact
        table, exact = tables["greedy"]
        for entries in table.values():
            for entry in entries:
                if entry.plan.children:
                    assert entry.cost >= entry.plan.children[0].props.cost
        traditional, traditional_exact = tables["traditional"]
        assert traditional_exact
        if exact:
            assert table.keys() == traditional.keys()
            for subset, entries in traditional.items():
                assert lazy_slice(table[subset]) == lazy_slice(entries)
                assert len(lazy_slice(entries)) == len(entries)


# ----------------------------------------------------------------------
# (c) each reason to search a second time, by name
# ----------------------------------------------------------------------


def grouped_query(workload) -> CanonicalQuery:
    return CanonicalQuery(
        base_tables=workload.relations,
        predicates=workload.predicates,
        group_by=tuple(ColumnRef(*key) for key in workload.group_keys),
        aggregates=workload.aggregates,
        select=workload.select,
    )


def searched(db, query, options=None):
    """Optimize *query*, check the baseline against the second search,
    and return how many second searches the optimizer itself ran."""
    result = optimize_query(query, db.catalog, db.params, options)
    oracle = second_search(query, db.catalog, db.params, options)
    assert repr(result.traditional_cost) == repr(oracle.cost)
    assert result.cost <= oracle.cost
    return result.stats.baseline_searches, result


SPLIT_SQL = """
with c(dno, asal) as (
    select e.dno, avg(e.sal) from emp e, dept d
    where e.dno = d.dno and d.budget > 200000 group by e.dno
)
select e1.sal from emp e1, c v
where e1.dno = v.dno and e1.sal > v.asal and e1.age < 30
"""

LITERAL_SQL = """
with v(dno, asal) as (
    select e.dno, avg(e.sal) from emp e group by e.dno
)
select d.budget, v.asal from dept d, v where d.dno = v.dno and v.dno = 3
"""


class TestSecondSearchTriggers:
    def test_invariant_split_moved_a_table(self, emp_dept_db):
        """The paper's Example 1 shape: ``dept`` leaves the view, so no
        enumerated combination plans the query's own view block."""
        db = emp_dept_db
        count, _ = searched(db, db.bind(SPLIT_SQL))
        assert count == 1
        unsplit = OptimizerOptions(enable_invariant_split=False)
        assert searched(db, db.bind(SPLIT_SQL), unsplit)[0] == 0

    @pytest.fixture(scope="class")
    def star(self):
        return build_join_workload(
            JoinWorkloadConfig(
                topology="star", leaves=4, seed=0, rows_base=40, jk_domain=8
            )
        )

    def test_plan_cut_dropped_a_lazy_entry(self, star):
        """A plan cap of 2: eager entries crowd out a plain join the
        traditional DP (plain joins only) retains. The star is past the
        memory cliff (4 pages), so its blocks keep their order classes;
        within memory a block keeps one class per eager state."""
        with plan_cap(2):
            count, result = searched(star.db, grouped_query(star))
        assert count == 1
        assert result.stats.ordered_searches >= 1

    def test_plan_cut_of_one_keeps_exactly_the_traditional_entry(self, star):
        """A plan cap of 1: the lazy entry pruning guarantees is the
        cheapest one — the one entry a traditional DP retains."""
        with plan_cap(1):
            assert searched(star.db, grouped_query(star))[0] == 0

    def test_pre_eager_heuristic_replaced_the_plain_join(self):
        db = Database(CostParams(memory_pages=8))
        db.create_table(
            "sales", [("sid", "int"), ("dno", "int"), ("amt", "float")],
            primary_key=["sid"],
        )
        db.create_table(
            "details", [("rid", "int"), ("dno", "int"), ("x", "float")],
            primary_key=["rid"],
        )
        rng = random.Random(8)
        db.insert(
            "sales",
            [(i, i % 10, float(rng.randint(1, 99))) for i in range(3000)],
        )
        db.insert("details", [(i, i % 10, float(i)) for i in range(3000)])
        db.analyze()
        query = db.bind(
            "select s.dno, sum(s.amt) as t from sales s, details d "
            "where s.dno = d.dno group by s.dno"
        )
        options = OptimizerOptions(early_grouping="greedy")
        count, result = searched(db, query, options)
        assert result.stats.early_groupby_accepted > 0
        assert count == 1
        assert searched(db, query)[0] == 0  # retained, not replaced

    def test_impure_view_leaf_is_refused(self, emp_dept_db):
        """ROADMAP item 7: the shared view DP plans the W = ∅ leaf inside
        the maximal pulled block, which need not yield the traditional
        view plan. Here that leaf is made to differ (a no-op filter on
        top), and the leaf comparison must notice. Planned on its own
        the view is pure."""
        db = emp_dept_db
        query = db.bind(LITERAL_SQL)
        shared_view_plans = canonical._shared_view_plans

        def impure(working, view_alias, pulled_sets, optimizer, catalog):
            leaves = shared_view_plans(
                working, view_alias, pulled_sets, optimizer, catalog
            )
            plan = FilterNode(leaves[view_alias, ()].plan, [Literal(True)])
            optimizer.model.annotate(plan)
            leaves[view_alias, ()] = DerivedLeaf(view_alias, plan)
            return leaves

        with mock.patch.object(canonical, "_shared_view_plans", impure):
            assert searched(db, query)[0] == 1
            unshared = OptimizerOptions(share_view_dp=False)
            assert searched(db, query, unshared)[0] == 0
        assert searched(db, query)[0] == 0


# ----------------------------------------------------------------------
# Pinned counters: the second walk must not come back unnoticed
# ----------------------------------------------------------------------

PLAN_COLD_COUNTERS = {
    "subsets_expanded": 46,
    "joinplan_calls": 250,
    "plans_retained": 94,
    "plans_pruned": 199,
    "joins_materialized": 51,
    "blocks_optimized": 19,
    "baseline_searches": 0,
    "ordered_searches": 0,
}
"""Per-pass sums over the five ``plan_cold`` texts at ``literal_base +
7``; docs/TESTING.md says how to regenerate them."""


def plan_cold_counters():
    totals = dict.fromkeys(PLAN_COLD_COUNTERS, 0)
    for label, db, sql in e2e_statements():
        if label.startswith("plan_cold/"):
            stats = db.optimize(sql).stats
            for name in totals:
                totals[name] += getattr(stats, name)
    return totals


def test_plan_cold_search_counters_are_pinned():
    assert COLD_LITERAL_OFFSET == 7
    assert plan_cold_counters() == PLAN_COLD_COUNTERS


if __name__ == "__main__":
    print(plan_cold_counters())
