"""The cost-first join DP: logical properties once per input pair,
methods costed as scalars, join nodes built only for the candidates
pruning retains — and every chosen plan unchanged by it.

- Every retained DP entry carries exactly the properties
  ``CostModel.annotate_tree`` derives for an independently rebuilt copy.
- The plans of the pinned corpus equal ``tests/golden/plans_pr15.txt``,
  generated on the commit *before* the DP was changed.
- Equal-cost candidates keep the first one generated.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

from repro import CostParams
from repro.algebra.plan import JoinNode, ScanNode
from repro.catalog.schema import Field
from repro.cost import CostModel
from repro.datatypes import DataType
from repro.optimizer import optimize_query
from repro.optimizer.block import (
    LAZY,
    BaseLeaf,
    BlockOptimizer,
    _BlockContext,
    _Entry,
)
from repro.algebra.query import TableRef
from repro.server.planrewrite import clone_plan
from repro.sql import bind_sql

from .dp_support import (
    e2e_statements,
    pinned_plans,
    render,
    run_examples,
)

GOLDEN = Path(__file__).parent / "golden" / "plans_pr15.txt"


def _check_against_annotate_tree(optimizer: BlockOptimizer, node: JoinNode):
    """Rebuild *node*'s whole subtree through the node constructors,
    annotate it with a fresh model, and compare the root's properties
    and schema with what the DP attached."""
    fresh = clone_plan(node)
    assert isinstance(fresh, JoinNode)
    assert fresh.schema == node.schema
    assert fresh.projection == node.projection
    props = CostModel(optimizer.catalog, optimizer.params).annotate_tree(
        fresh
    )
    got = node.props
    assert (got.cost, got.rows, got.width, got.pages, got.order) == (
        props.cost, props.rows, props.width, props.pages, props.order,
    )
    assert got.colmeta == props.colmeta
    assert list(got.colmeta) == list(props.colmeta)


def test_retained_entries_match_annotate_tree(monkeypatch):
    checked = {"joins": 0, "methods": set(), "kinds": set()}
    original = BlockOptimizer._prune

    def checking(self, context, candidates):
        retained = original(self, context, candidates)
        for entry in retained:
            assert entry.plan is not None and entry.join is None
            if isinstance(entry.plan, JoinNode):
                # Checked here, not after the statement: the examples
                # insert rows between statements.
                _check_against_annotate_tree(self, entry.plan)
                checked["joins"] += 1
                checked["methods"].add(entry.plan.method)
                checked["kinds"].add(entry.plan.kind)
        return retained

    monkeypatch.setattr(BlockOptimizer, "_prune", checking)
    for _, db, sql in e2e_statements():
        db.optimize(sql)
        # and past the memory cliff, where the order classes are kept
        optimize_query(db.bind(sql), db.catalog, CostParams(memory_pages=3))
    # No corpus text retains an index NLJ; a one-customer outer does.
    # The filter on the probed inner makes its (unclamped) metadata
    # differ from the scanned input's that hj / smj / nlj share.
    db.optimize(
        "select c.nation, o.totalprice from customer c, orders o "
        "where c.custkey = o.custkey and c.acctbal < -900 "
        "and o.totalprice > 30000"
    )
    run_examples(lambda *reported: None)
    assert checked["joins"] > 200
    assert checked["methods"] == {"hj", "smj", "inlj", "nlj"}
    assert checked["kinds"] >= {"inner", "semi", "anti", "left"}


def test_golden_plan_identity():
    expected = GOLDEN.read_text()
    actual = render(pinned_plans())
    if actual != expected:
        for want, got in zip(expected.split("\n\n"), actual.split("\n\n")):
            assert got == want
    assert actual == expected


def test_counters_and_survivors_only(emp_dept_db):
    stats = emp_dept_db.optimize(
        "select e.dno, avg(e.sal) from emp e, dept d "
        "where e.dno = d.dno group by e.dno"
    ).stats
    assert stats.joinplan_calls > stats.joins_materialized > 0
    # every materialized join is a retained entry (the rest are leaves)
    assert stats.joins_materialized <= stats.plans_retained
    assert f"built={stats.joins_materialized}" in stats.summary()
    assert stats.as_dict()["joins_materialized"] == stats.joins_materialized


class TestEqualCostKeepsFirstGenerated:
    def test_prune_keeps_the_first_of_equal_candidates(self, emp_dept_db):
        optimizer = BlockOptimizer(emp_dept_db.catalog)
        # a block past the memory cliff: its candidates keep their
        # order classes, so the cheaper one of another order is kept too
        context = SimpleNamespace(
            useful_order=lambda order: order, ordered=True
        )
        scan = ScanNode("emp", "e", [Field("e", "eno", DataType.INT)])
        first, second, cheaper_other_order = (
            _Entry(10.0, (), 4, LAZY, plan=scan),
            _Entry(10.0, (), 4, LAZY, plan=scan),
            _Entry(9.0, (("e", "eno"),), 4, LAZY, plan=scan),
        )
        kept = optimizer._prune(
            context, [first, second, cheaper_other_order]
        )
        assert kept[0] is cheaper_other_order
        assert kept[1] is first
        assert second not in kept

    def test_hash_join_wins_its_tie_with_nested_loops(self, emp_dept_db):
        # In memory both cost left + right; hj is generated first.
        optimizer = BlockOptimizer(emp_dept_db.catalog, emp_dept_db.params)
        query = bind_sql(
            "select e.eno, d.budget from emp e, dept d where e.dno = d.dno",
            emp_dept_db.catalog,
        )
        leaves = [BaseLeaf(TableRef("emp", "e")), BaseLeaf(TableRef("dept", "d"))]
        context = _BlockContext(
            optimizer, leaves, tuple(query.predicates), None,
            (("eno", query.select[0][1]), ("budget", query.select[1][1])),
        )
        graph = context.graph
        left = context.leaf_plans(leaves[0])[0]
        right = context.leaf_plans(leaves[1])[0]
        candidates = optimizer._joinplans(
            context, left, graph.mask_of_alias["e"], right, "d",
            graph.mask_of_alias["d"], LAZY,
        )
        by_method = {c.join.method: c for c in candidates}
        assert all(c.plan is None for c in candidates)  # nothing built yet
        assert by_method["hj"].cost == by_method["nlj"].cost
        assert context.useful_order(by_method["hj"].order) == (
            context.useful_order(by_method["nlj"].order)
        )
        kept = optimizer._prune(context, candidates)
        assert [e.plan.method for e in kept if e.cost == by_method["hj"].cost][
            0
        ] == "hj"
        assert by_method["nlj"].plan is None  # pruned: never materialized
