"""Property tests: the cost model's IO is the engine's IO.

On plans without predicates the cardinality estimates are exact (exact
statistics, no selectivity assumptions), so the cost model's number must
match the executor's charged IO for every join method, any data, any
memory size — the strongest statement of the shared-formula design.

With predicates the estimates are not exact, but the formulas still are:
fed the counts a run recorded (:func:`repro.testing.exactio.exact_io`),
the model must charge exactly the executed IO for filtered scans,
residual joins, semi / anti / LEFT joins, group-by with HAVING and sort,
through Grace hash joins, hash group-by spills, external sorts and
block-NLJ inner rescans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import ColumnRef, Comparison, col, lit
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, SortNode
from repro.catalog.schema import table_row_schema
from repro.cost import CostModel
from repro.engine import ExecutionContext, execute_plan
from repro.testing.exactio import exact_io


@st.composite
def join_case(draw):
    left_rows = draw(st.integers(min_value=0, max_value=400))
    right_rows = draw(st.integers(min_value=0, max_value=400))
    keys = draw(st.integers(min_value=1, max_value=8))
    memory = draw(st.sampled_from([3, 4, 8, 64]))
    method = draw(st.sampled_from(["hj", "smj", "nlj"]))
    return left_rows, right_rows, keys, memory, method


def build(left_rows, right_rows, keys, memory):
    db = Database(CostParams(memory_pages=memory))
    db.create_table("l", [("k", "int"), ("v", "float")])
    db.create_table("r", [("k", "int"), ("w", "float")])
    db.insert("l", [(i % keys, float(i)) for i in range(left_rows)])
    db.insert("r", [(i % keys, float(i)) for i in range(right_rows)])
    db.analyze()
    return db


def scan(db, table, alias, filters=()):
    return ScanNode(
        table,
        alias,
        table_row_schema(alias, db.catalog.table(table).columns).fields,
        filters=filters,
    )


class TestEstimatedEqualsExecuted:
    @given(case=join_case())
    @settings(max_examples=40, deadline=None)
    def test_joins(self, case):
        left_rows, right_rows, keys, memory, method = case
        db = build(left_rows, right_rows, keys, memory)
        plan = JoinNode(
            scan(db, "l", "a"),
            scan(db, "r", "b"),
            method=method,
            equi_keys=[(("a", "k"), ("b", "k"))],
        )
        CostModel(db.catalog, db.params).annotate_tree(plan)
        context = ExecutionContext(db.catalog, db.io, db.params)
        with db.io.measure() as span:
            execute_plan(plan, context)
        assert span.delta.total == round(plan.props.cost)

    @given(
        rows=st.integers(min_value=0, max_value=800),
        keys=st.integers(min_value=1, max_value=600),
        memory=st.sampled_from([3, 8, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_by(self, rows, keys, memory):
        db = build(rows, 0, max(1, keys), memory)
        plan = GroupByNode(
            scan(db, "l", "a"),
            group_keys=[("a", "k")],
            aggregates=[("s", AggregateCall("sum", col("a.v")))],
        )
        CostModel(db.catalog, db.params).annotate_tree(plan)
        context = ExecutionContext(db.catalog, db.io, db.params)
        with db.io.measure() as span:
            execute_plan(plan, context)
        assert span.delta.total == round(plan.props.cost)


# ----------------------------------------------------------------------
# Exact IO: any predicates, the model fed the run's actual counts
# ----------------------------------------------------------------------

KINDS = {
    "inner": ["hj", "smj", "nlj"],
    "semi": ["hj", "nlj"],
    "anti": ["hj", "nlj"],
    "left": ["hj", "nlj"],
}


@st.composite
def plan_case(draw):
    left_rows = draw(st.integers(min_value=0, max_value=1500))
    right_rows = draw(st.integers(min_value=0, max_value=1500))
    # keep join outputs small enough to run fast: ~ L*R/keys rows
    keys = max(
        draw(st.integers(min_value=1, max_value=1500)),
        left_rows * right_rows // 20000 + 1,
    )
    kind = draw(st.sampled_from(sorted(KINDS)))
    return dict(
        left_rows=left_rows,
        right_rows=right_rows,
        keys=keys,
        memory=draw(st.sampled_from([3, 4, 8, 64])),
        left_cut=draw(st.one_of(st.none(), st.integers(0, 1500))),
        right_cut=draw(st.one_of(st.none(), st.integers(0, 1500))),
        kind=kind,
        method=draw(st.sampled_from(KINDS[kind])),
        residual=draw(st.booleans()),
        top=draw(st.sampled_from(["join", "group", "sort", "group+sort"])),
        group_method=draw(st.sampled_from(["hash", "sort"])),
        having=draw(st.one_of(st.none(), st.integers(0, 4))),
        descending=draw(st.booleans()),
    )


def build_wide(left_rows, right_rows, keys, memory):
    """Rows 36 bytes wide, so a few hundred of them fill pages past a
    3- or 4-page buffer pool."""
    db = Database(CostParams(memory_pages=memory))
    db.create_table("l", [("k", "int"), ("v", "float"), ("s", "str")])
    db.create_table("r", [("k", "int"), ("w", "float"), ("s", "str")])
    db.insert("l", [(i % keys, float(i), "l") for i in range(left_rows)])
    db.insert(
        "r", [((i * 7) % keys, float(i), "r") for i in range(right_rows)]
    )
    db.analyze()
    return db


def build_plan(db, case):
    def cut(alias, column, bound):
        if bound is None:
            return ()
        return (Comparison("<", col(f"{alias}.{column}"), lit(float(bound))),)

    plan = JoinNode(
        scan(db, "l", "a", cut("a", "v", case["left_cut"])),
        scan(db, "r", "b", cut("b", "w", case["right_cut"])),
        method=case["method"],
        equi_keys=[(("a", "k"), ("b", "k"))],
        residuals=(
            (Comparison(">", col("a.v"), col("b.w")),)
            if case["residual"]
            else ()
        ),
        kind=case["kind"],
    )
    if case["top"].startswith("group"):
        keys = [("a", "k")]
        child = plan
        if case["group_method"] == "sort":
            child = SortNode(child, keys)
        having = ()
        if case["having"] is not None:
            having = (
                Comparison(">", ColumnRef(None, "n"), lit(case["having"])),
            )
        plan = GroupByNode(
            child,
            group_keys=keys,
            aggregates=[
                ("n", AggregateCall("count", None)),
                ("total", AggregateCall("sum", col("a.v"))),
            ],
            having=having,
            method=case["group_method"],
        )
    if case["top"].endswith("sort"):
        plan = SortNode(
            plan, [plan.schema.fields[0].key], descending=[case["descending"]]
        )
    return plan


def run_against_oracle(case):
    """Plan, execute and check one case; the run's metrics."""
    db = build_wide(
        case["left_rows"], case["right_rows"], case["keys"], case["memory"]
    )
    plan = build_plan(db, case)
    CostModel(db.catalog, db.params).annotate_tree(plan)
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        execute_plan(plan, context)
    assert span.delta.total == exact_io(
        plan, context.metrics, db.catalog, db.params
    ), case
    return context.metrics


class TestExactIO:
    @given(case=plan_case())
    @settings(max_examples=150, deadline=None)
    def test_exact_io_equals_executed(self, case):
        run_against_oracle(case)

    def test_the_range_reaches_every_spill(self):
        """The cases above do spill: one of each, at 3 pages of memory."""
        base = dict(
            left_rows=1200, right_rows=1200, keys=1200, memory=3,
            left_cut=None, right_cut=900, kind="inner", method="hj",
            residual=True, top="group+sort", group_method="hash",
            having=0, descending=True,
        )
        spilled = set()
        for changes in (
            {},  # Grace hash join, hash group-by spill, external sort
            {"method": "nlj", "kind": "anti"},  # block-NLJ inner rescans
            {"method": "smj", "group_method": "sort"},  # sort-merge sorts
        ):
            metrics = run_against_oracle({**base, **changes})
            spilled.update(
                " ".join(op.label.split()[:2])  # "Join [nlj" of an anti NLJ
                for op in metrics.operators
                if op.spill_reads
            )
        assert spilled == {
            "Join [hj]", "Join [nlj", "Join [smj]", "GroupBy [hash]", "Sort by"
        }
