"""Property tests: the cost model's IO is the engine's IO.

On plans without predicates the cardinality estimates are exact (exact
statistics, no selectivity assumptions), so the cost model's number must
match the executor's charged IO for every join method, any data, any
memory size — the strongest statement of the shared-formula design.

With predicates the estimates are not exact, but the formulas still are:
fed the counts a run recorded (:func:`repro.testing.exactio.exact_io`),
the model must charge exactly the executed IO for filtered scans,
residual joins, semi / anti / NOT IN / LEFT joins, group-by with HAVING
and sort, through Grace hash joins, hash group-by spills, external sorts
and block-NLJ inner rescans. The same runs' answers are checked too,
as a bag, against a Python evaluation of the plan over the inserted
rows (NULL join keys, two-key joins and NOT IN's three-valued logic
included), and a sort-method group-by's output against its key order.
"""

from collections import defaultdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import ColumnRef, Comparison, col, lit
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, SortNode
from repro.catalog.schema import table_row_schema
from repro.cost import CostModel
from repro.datatypes import NullOrdered
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
    "notin": ["hj", "nlj"],  # the NULL-aware anti join
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
    # NOT IN is one membership equality and nothing else
    general = kind != "notin"
    return dict(
        left_rows=left_rows,
        right_rows=right_rows,
        keys=keys,
        memory=draw(st.sampled_from([3, 4, 8, 64])),
        left_cut=draw(st.one_of(st.none(), st.integers(0, 1500))),
        right_cut=draw(st.one_of(st.none(), st.integers(0, 1500))),
        kind=kind,
        method=draw(st.sampled_from(KINDS[kind])),
        nulls=draw(st.booleans()),
        two_keys=general and draw(st.booleans()),
        residual=general and draw(st.booleans()),
        top=draw(st.sampled_from(["join", "group", "sort", "group+sort"])),
        group_method=draw(st.sampled_from(["hash", "sort"])),
        having=draw(st.one_of(st.none(), st.integers(0, 4))),
        descending=draw(st.booleans()),
    )


def wide_rows(left_rows, right_rows, keys, nulls):
    """The rows of ``l`` and ``r``: ``k`` the join key (NULL on every
    7th left / 5th right row when *nulls*), ``s`` a second key that
    matches about half of the ``k`` matches."""

    def key(value, i, every):
        return None if nulls and i % every == 1 else value

    left = [
        (key(i % keys, i, 7), float(i), "ab"[i % 2])
        for i in range(left_rows)
    ]
    right = [
        (key((i * 7) % keys, i, 5), float(i), "ab"[(i // 3) % 2])
        for i in range(right_rows)
    ]
    return left, right


def build_wide(left, right, memory):
    """Rows 36 bytes wide, so a few hundred of them fill pages past a
    3- or 4-page buffer pool."""
    db = Database(CostParams(memory_pages=memory))
    db.create_table(
        "l", [("k", "int"), ("v", "float"), ("s", "str")], nullable=["k"]
    )
    db.create_table(
        "r", [("k", "int"), ("w", "float"), ("s", "str")], nullable=["k"]
    )
    db.insert("l", left)
    db.insert("r", right)
    db.analyze()
    return db


def build_plan(db, case):
    def cut(alias, column, bound):
        if bound is None:
            return ()
        return (Comparison("<", col(f"{alias}.{column}"), lit(float(bound))),)

    equi_keys = [(("a", "k"), ("b", "k"))]
    if case["two_keys"]:
        equi_keys.append((("a", "s"), ("b", "s")))
    plan = JoinNode(
        scan(db, "l", "a", cut("a", "v", case["left_cut"])),
        scan(db, "r", "b", cut("b", "w", case["right_cut"])),
        method=case["method"],
        equi_keys=equi_keys,
        residuals=(
            (Comparison(">", col("a.v"), col("b.w")),)
            if case["residual"]
            else ()
        ),
        kind="anti" if case["kind"] == "notin" else case["kind"],
        null_aware=case["kind"] == "notin",
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


def eq3(x, y):
    """SQL ``=``: UNKNOWN (None) when either side is NULL."""
    return None if x is None or y is None else x == y


def and3(*values):
    """Kleene AND: FALSE dominates, then UNKNOWN."""
    if False in values:
        return False
    return None if None in values else True


def expected_rows(case, left, right):
    """The case's answer, evaluated row by row over the inserted rows
    (a bag: the order is the plan's business)."""
    if case["left_cut"] is not None:
        left = [a for a in left if a[1] < case["left_cut"]]
    if case["right_cut"] is not None:
        right = [b for b in right if b[1] < case["right_cut"]]

    def match(a, b):  # the ON condition: equi keys and the residual
        return and3(
            eq3(a[0], b[0]),
            *([eq3(a[2], b[2])] if case["two_keys"] else []),
            *([a[1] > b[1]] if case["residual"] else []),
        )

    # only a right row whose k equals the left row's can make it TRUE
    by_key = defaultdict(list)
    for b in right:
        by_key[b[0]].append(b)
    right_keys = set(by_key)
    not_in = {}  # NOT IN's verdict per left key
    rows = []
    for a in left:
        candidates = by_key[a[0]] if a[0] is not None else []
        matched = [b for b in candidates if match(a, b) is True]
        kind = case["kind"]
        if kind == "inner":
            rows.extend(a + b for b in matched)
        elif kind == "left":
            rows.extend([a + b for b in matched] or [a + (None,) * 3])
        elif kind == "semi":
            rows.extend([a] if matched else [])
        elif kind == "anti":
            rows.extend([] if matched else [a])
        else:  # NOT IN: kept only when the equality is FALSE for all
            if a[0] not in not_in:
                not_in[a[0]] = all(
                    eq3(a[0], k) is False for k in right_keys
                )
            rows.extend([a] if not_in[a[0]] else [])

    if not case["top"].startswith("group"):
        return rows
    groups = defaultdict(list)
    for row in rows:
        groups[row[0]].append(row[1])
    return [
        (k, len(values), sum(values))
        for k, values in groups.items()
        if case["having"] is None or len(values) > case["having"]
    ]


def bag(rows):
    return sorted(rows, key=repr)


def run_against_oracle(case):
    """Plan, execute and check one case; the run's metrics."""
    left, right = wide_rows(
        case["left_rows"], case["right_rows"], case["keys"], case["nulls"]
    )
    db = build_wide(left, right, case["memory"])
    plan = build_plan(db, case)
    CostModel(db.catalog, db.params).annotate_tree(plan)
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        result = execute_plan(plan, context)
    assert span.delta.total == exact_io(
        plan, context.metrics, db.catalog, db.params
    ), case
    assert bag(result.rows) == bag(expected_rows(case, left, right)), case
    if case["top"] == "group" and case["group_method"] == "sort":
        keys = [NullOrdered(row[0]) for row in result.rows]
        assert all(a < b for a, b in zip(keys, keys[1:])), case
    return context.metrics


# every draw keeps these: a two-key sort-merge over NULL keys under a
# sort-method group-by, and NOT IN against a right side holding a NULL
ALWAYS = [
    dict(
        left_rows=300, right_rows=200, keys=40, memory=4, left_cut=None,
        right_cut=None, kind=kind, method=method, nulls=True,
        two_keys=kind == "inner", residual=False, top="group",
        group_method="sort", having=None, descending=False,
    )
    for kind, method in (("inner", "smj"), ("notin", "hj"))
]


class TestExactIO:
    @given(case=plan_case())
    @example(case=ALWAYS[0])
    @example(case=ALWAYS[1])
    @settings(max_examples=150, deadline=None)
    def test_exact_io_equals_executed(self, case):
        run_against_oracle(case)

    def test_the_range_reaches_every_spill(self):
        """The cases above do spill: one of each, at 3 pages of memory."""
        base = dict(
            left_rows=1200, right_rows=1200, keys=1200, memory=3,
            left_cut=None, right_cut=900, kind="inner", method="hj",
            nulls=False, two_keys=False,
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
