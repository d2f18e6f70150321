"""Orders only where they can pay (DESIGN §6).

A block whose every relation fits in memory is searched with its
interesting-order classes collapsed: ``_prune`` keys on the eager state
alone, ``_joinplans`` costs no sort-merge join and ``final_plans``
offers no sort group-by. A block past the memory cliff is searched with
them, as every block was before. Here:

- the collapsed search finds the best cost of the search that keeps
  every order class (:class:`~tests.dp_support.OrderedOptimizer`), over
  drawn chains and stars at any memory size, CPU weight, policy and
  plan cap, and each of its three paths is taken; where the proof
  stops, at index NLJs, pinned statements plan the same both ways;
- ``SearchStats.ordered_searches`` counts the blocks past the cliff —
  E6b's among them — and ``repro --stats`` shows it;
- the cost model is monotonic, which both the collapse and ``_prune``'s
  per-class cut rely on.
"""

from __future__ import annotations

import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostParams
from repro.algebra.plan import JoinNode, explain, plan_nodes
from repro.cli import Shell, make_demo_database
from repro.cost import CostModel
from repro.optimizer import OptimizerOptions, block, optimize_query
from repro.optimizer.block import BaseLeaf, BlockOptimizer, GroupingSpec
from repro.workloads import (
    JoinWorkloadConfig,
    RandomQueryConfig,
    build_join_workload,
    random_queries,
)

from .dp_support import OrderedOptimizer, _e2e_modules
from .test_property_optimizer import workload
from .test_single_search import block_case, plan_cap


GROUPED_JOIN = (
    "select e.dno, sum(e.sal) from emp e, dept d "
    "where e.dno = d.dno group by e.dno"
)


@st.composite
def memory_case(draw):
    """``block_case`` at a drawn memory size."""
    workload, params, options, cap, leaves, spec, select = draw(block_case())
    params = CostParams(
        memory_pages=draw(st.integers(min_value=3, max_value=64)),
        cpu_tuple_weight=params.cpu_tuple_weight,
    )
    return workload, params, options, cap, leaves, spec, select


def searched_both_ways(case):
    """``(collapsed search, ordered reference)``: each optimizer and the
    plan its ``search_block`` returned."""
    workload, params, options, cap, leaves, spec, select = case
    found = []
    with plan_cap(cap):
        for optimizer_class in (BlockOptimizer, OrderedOptimizer):
            optimizer = optimizer_class(workload.db.catalog, params, options)
            plan, _ = optimizer.search_block(
                leaves, workload.predicates, spec, select
            )
            found.append((optimizer, plan))
    return found


def leaves_fit(case) -> bool:
    workload, params = case[:2]
    limit = CostModel(workload.db.catalog, params).working_pages
    return all(
        workload.db.catalog.stats(ref.table).page_count <= limit
        for ref in workload.relations
    )


class TestCollapsedSearchIsExact:
    @given(case=memory_case())
    @settings(max_examples=60, deadline=None)
    def test_best_cost_equals_the_ordered_reference(self, case):
        (collapsed, plan), (_, reference) = searched_both_ways(case)
        assert repr(plan.props.cost) == repr(reference.props.cost)
        if collapsed.stats.ordered_searches:
            assert explain(plan) == explain(reference)

    def test_each_path_is_taken(self):
        """Within memory, past it at a leaf (seen before any walk), and
        past it at a join only (the collapsed walk ends there)."""
        paths = {}
        for topology, memory, domain, rows in (
            ("chain", 64, 1000, 40),  # every relation fits
            ("star", 3, 1000, 150),  # a leaf does not
            ("chain", 8, 8, 40),  # the leaves fit, a fan-out join not
        ):
            built = build_join_workload(
                JoinWorkloadConfig(
                    topology=topology, leaves=4, seed=0, rows_base=rows,
                    jk_domain=domain,
                )
            )
            case = (
                built,
                CostParams(memory_pages=memory),
                OptimizerOptions(),
                block.MAX_PLANS_PER_SET,
                [BaseLeaf(ref) for ref in built.relations],
                GroupingSpec(built.group_keys, built.aggregates),
                built.select,
            )
            (collapsed, plan), (ordered, reference) = searched_both_ways(
                case
            )
            assert repr(plan.props.cost) == repr(reference.props.cost)
            if not collapsed.stats.ordered_searches:
                path = "collapsed"
                assert (
                    collapsed.stats.joinplan_calls
                    < ordered.stats.joinplan_calls
                )
            elif leaves_fit(case):
                path = "cliff at a join"
                # the ended walk costed some joins, the second all again
                assert (
                    collapsed.stats.joinplan_calls
                    > ordered.stats.joinplan_calls
                )
            else:
                path = "cliff at a leaf"
                assert (
                    collapsed.stats.joinplan_calls
                    == ordered.stats.joinplan_calls
                )
            paths[path] = paths.get(path, 0) + 1
        assert paths == {
            "collapsed": 1, "cliff at a leaf": 1, "cliff at a join": 1
        }


INDEX_NLJ_SQL = (
    "select c.nation, sum(l.quantity) from customer c, orders o, "
    "lineitem l where c.custkey = o.custkey and o.orderkey = l.orderkey "
    "and c.acctbal < {x} group by c.nation",
    "select s.nation, l.price from supplier s, lineitem l, orders o "
    "where s.suppkey = l.suppkey and l.orderkey = o.orderkey "
    "and s.acctbal < {x} and o.orderdate < 50",
)


def test_index_nlj_blocks_plan_as_the_reference():
    """Where the exactness argument stops (DESIGN §6): an index NLJ
    charges its outer's row estimate, which depends on the join order.
    No difference has been found; these three-way joins over the
    ``plan_cold`` tables, whose collapsed searches choose index NLJs,
    pin that."""
    datagen, workloads = _e2e_modules()
    db = workloads.build_database(
        datagen.generate(
            workloads.WORKLOADS["plan_cold"].scale, workloads.DEFAULT_SEED
        )
    )
    collapsed_index_nlj = 0
    for template in INDEX_NLJ_SQL:
        for bound in (-990, -900, 0):
            query = db.bind(template.format(x=bound))
            for memory in (8, 16, 64):
                params = CostParams(memory_pages=memory)
                found = optimize_query(query, db.catalog, params)
                with mock.patch.object(
                    BlockOptimizer, "_search", OrderedOptimizer._search
                ):
                    reference = optimize_query(query, db.catalog, params)
                assert explain(found.plan) == explain(reference.plan)
                assert repr(found.cost) == repr(reference.cost)
                index_nlj = any(
                    isinstance(node, JoinNode) and node.method == "inlj"
                    for node in plan_nodes(found.plan)
                )
                if index_nlj and not found.stats.ordered_searches:
                    collapsed_index_nlj += 1
    assert collapsed_index_nlj >= 4


class TestWhereOrdersPay:
    def test_e6b_block_is_searched_with_orders(self):
        """E6b's database (``benchmarks/experiments.py``): 9 000-row
        facts under 8 pages of memory, where ``smj`` is chosen."""
        db, queries = random_queries(
            RandomQueryConfig(
                seed=202, queries=15, fact_rows=9000, dim_rows=3000,
                memory_pages=8,
            )
        )
        stats = db.optimize_bound(queries[0], "full").stats
        assert stats.ordered_searches >= 1

    def test_in_memory_block_costs_no_sort_merge_join(self):
        costed = []
        join_physical = CostModel.join_physical

        def recording(model, method, *args):
            costed.append(method)
            return join_physical(model, method, *args)

        db = make_demo_database()
        with mock.patch.object(CostModel, "join_physical", recording):
            result = db.optimize(GROUPED_JOIN)
        assert result.stats.ordered_searches == 0
        assert "hj" in costed and "smj" not in costed

    def test_cpu_weight_keeps_the_orders(self, emp_dept_db):
        """Under a CPU weight every node's charge reads its own row
        estimate, so the block keeps its order classes (DESIGN §6)."""
        query = emp_dept_db.bind(GROUPED_JOIN)
        weighted = CostParams(memory_pages=64, cpu_tuple_weight=0.01)
        stats = optimize_query(query, emp_dept_db.catalog, weighted).stats
        assert stats.ordered_searches == stats.blocks_optimized >= 1

    def test_stats_line_shows_the_counter(self):
        out = io.StringIO()
        shell = Shell(make_demo_database(), out=out, show_stats=True)
        shell.handle(GROUPED_JOIN + ";")
        assert " ordered_searches=0" in out.getvalue()


class TestCostMonotonicity:
    """``CostModel.is_monotonic``: a node costs at least every input it
    consumes. An index NLJ probes its inner rather than consuming it, so
    its outer alone counts (DESIGN §15)."""

    def test_declared(self, emp_dept_db):
        assert CostModel(emp_dept_db.catalog).is_monotonic()

    @staticmethod
    def assert_monotonic(plan):
        for node in plan_nodes(plan):
            consumed = node.children
            if isinstance(node, JoinNode) and node.method == "inlj":
                consumed = consumed[:1]
            for child in consumed:
                assert node.props.cost >= child.props.cost, explain(plan)

    @given(case=memory_case())
    @settings(max_examples=30, deadline=None)
    def test_dp_plans(self, case):
        for _, plan in searched_both_ways(case):
            self.assert_monotonic(plan)

    @given(
        case=workload(),
        memory=st.integers(min_value=3, max_value=64),
        weight=st.sampled_from([0.0, 0.01]),
    )
    @settings(max_examples=20, deadline=None)
    def test_canonical_plans(self, case, memory, weight):
        """Views, filters, renames and index access paths besides."""
        db, query = case
        params = CostParams(memory_pages=memory, cpu_tuple_weight=weight)
        result = optimize_query(query, db.catalog, params)
        self.assert_monotonic(result.plan)
