"""Runtime key filters: a hash join's build keys filter the scan below
its probe side's group-by.

Each case is a random ``join(group-by(scan l), filtered scan r)`` plan
over NULL, duplicate, empty and all-matching build keys, every join
kind (only inner and semi may filter), HAVING, eager markers, a
rename or projection over the group-by, a group-by on a column other
than the join key, and 3 / 4 / 8 / 64 pages of memory. Its rows must
be the same bag as a Python evaluation and as the same plan run with
the filter suppressed, and its page IO the suppressed run's and the
cost model's under the run's actual counts (``exact_io``): the filter
removes rows, never a page charge. A fixed sample checks that the
filter fires in a real share of cases and never where its IO gate
fails.
"""

import random
from collections import defaultdict
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import ColumnRef, Comparison, col, lit
from repro.algebra.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    SortNode,
    explain,
    plan_nodes,
)
from repro.catalog.schema import table_row_schema
from repro.cost import CostModel
from repro.engine import ExecutionContext, execute_plan, join
from repro.storage.page import pages_for
from repro.testing.exactio import exact_io

from .dp_support import e2e_statements

KINDS = ("inner", "semi", "left", "anti")


@st.composite
def filter_case(draw):
    left_keys = draw(st.integers(min_value=1, max_value=600))
    return dict(
        left_rows=draw(st.integers(min_value=0, max_value=1200)),
        left_keys=left_keys,
        left_cut=draw(st.one_of(st.none(), st.integers(0, 1200))),
        right_rows=draw(st.integers(min_value=0, max_value=400)),
        # a few keys (selective), or as many as the left side has and
        # more (all-matching); strided 2 to miss the odd left keys
        right_keys=draw(
            st.one_of(
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=left_keys, max_value=left_keys + 50),
            )
        ),
        stride=draw(st.sampled_from([1, 2])),
        right_cut=draw(st.one_of(st.none(), st.integers(0, 400))),
        nulls=draw(st.booleans()),
        kind=draw(st.sampled_from(KINDS)),
        group_on=draw(st.sampled_from(["key", "other"])),
        wrapper=draw(st.sampled_from(["none", "rename", "project"])),
        having=draw(st.one_of(st.none(), st.integers(0, 4))),
        eager=draw(st.sampled_from([None, "partial", "carry", "merge"])),
        memory=draw(st.sampled_from([3, 4, 8, 64])),
    )


def table_rows(case):
    """``l(k, g, v)``: ``k`` the view's group key (NULL on every 7th row
    when *nulls*), ``g`` another column to group on. ``r(rk, w)``: the
    build side, NULL ``rk`` on every 5th row when *nulls*."""
    nulls = case["nulls"]
    left = [
        (
            None if nulls and i % 7 == 1 else i % case["left_keys"],
            i % 97,
            float(i),
        )
        for i in range(case["left_rows"])
    ]
    right = [
        (
            None
            if nulls and i % 5 == 1
            else (i % case["right_keys"]) * case["stride"],
            float(i),
        )
        for i in range(case["right_rows"])
    ]
    return left, right


def build_db(left, right, memory):
    db = Database(CostParams(memory_pages=memory))
    db.create_table("l", [("k", "int"), ("g", "int"), ("v", "float")],
                    nullable=["k"])
    db.create_table("r", [("rk", "int"), ("w", "float")], nullable=["rk"])
    db.insert("l", left)
    db.insert("r", right)
    db.analyze()
    return db


def scan(db, table, alias, filters=()):
    return ScanNode(
        table,
        alias,
        table_row_schema(alias, db.catalog.table(table).columns).fields,
        filters=filters,
    )


def cut(alias, column, bound):
    if bound is None:
        return ()
    return (Comparison("<", col(f"{alias}.{column}"), lit(float(bound))),)


def build_plan(db, case):
    """``join(wrapper(group-by(scan l)), scan r)`` on the view's key: its
    group key, or (``group_on="other"``) ``max(a.k) AS k`` of a
    group-by on ``a.g`` — which resolves by name at the scan too, and
    must still not be filtered."""
    having = ()
    if case["having"] is not None:
        having = (Comparison(">", ColumnRef(None, "n"), lit(case["having"])),)
    if case["group_on"] == "key":
        group_key = ("a", "k")
        aggregates = [
            ("n", AggregateCall("count", None)),
            ("total", AggregateCall("sum", col("a.v"))),
        ]
        view_key = ("a", "k")
    else:
        group_key = ("a", "g")
        aggregates = [
            ("n", AggregateCall("count", None)),
            ("k", AggregateCall("max", col("a.k"))),
        ]
        view_key = (None, "k")
    view = GroupByNode(
        scan(db, "l", "a", cut("a", "v", case["left_cut"])),
        group_keys=[group_key],
        aggregates=aggregates,
        having=having,
        eager=case["eager"],
    )
    if case["wrapper"] == "rename":
        view = RenameNode(
            view, [("v", field.name, field.key) for field in view.schema]
        )
        view_key = ("v", view_key[1])
    elif case["wrapper"] == "project":
        view = ProjectNode(
            view,
            [("p", field.name, ColumnRef(*field.key)) for field in view.schema],
        )
        view_key = ("p", view_key[1])
    plan = JoinNode(
        view,
        scan(db, "r", "b", cut("b", "w", case["right_cut"])),
        method="hj",
        equi_keys=[(view_key, ("b", "rk"))],
        kind=case["kind"],
    )
    CostModel(db.catalog, db.params).annotate_tree(plan)
    return plan


def expected_rows(case, left, right):
    """The case's answer, evaluated row by row (a bag)."""
    if case["left_cut"] is not None:
        left = [a for a in left if a[2] < case["left_cut"]]
    if case["right_cut"] is not None:
        right = [b for b in right if b[1] < case["right_cut"]]
    groups = defaultdict(list)
    for a in left:
        groups[a[0] if case["group_on"] == "key" else a[1]].append(a)
    view = []
    for key, rows in groups.items():
        if case["having"] is not None and len(rows) <= case["having"]:
            continue
        if case["group_on"] == "key":
            view.append(((key, len(rows), sum(a[2] for a in rows)), key))
        else:
            present = [a[0] for a in rows if a[0] is not None]
            top = max(present) if present else None
            view.append(((key, len(rows), top), top))
    by_key = defaultdict(list)
    for b in right:
        if b[0] is not None:
            by_key[b[0]].append(b)
    out = []
    for row, key in view:
        matched = by_key[key] if key is not None else []
        kind = case["kind"]
        if kind == "inner":
            out.extend(row + b for b in matched)
        elif kind == "left":
            out.extend([row + b for b in matched] or [row + (None, None)])
        elif kind == "semi":
            out.extend([row] if matched else [])
        else:
            out.extend([] if matched else [row])
    return out


def bag(rows):
    return sorted(rows, key=repr)


def execute(db, plan):
    """``(rows, executed page IO, metrics)`` of one run of *plan*."""
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        result = execute_plan(plan, context)
    return result.rows, span.delta.total, context.metrics


def suppressed():
    """No share of build keys is small enough: the filter never fires."""
    return mock.patch.object(join, "KEY_FILTER_SHARE", float("-inf"))


def io_gate_holds(db, plan, metrics):
    """Neither the join's Grace charge nor the group-by's (were every
    row of ``l`` its own group) can spill."""
    memory = db.params.memory_pages
    right_rows = metrics.actual_rows(plan.right)
    groupby = next(
        node for node in _path(plan.left) if isinstance(node, GroupByNode)
    )
    return (
        pages_for(right_rows, plan.right.schema.width) <= memory
        and pages_for(
            db.catalog.table("l").num_rows, groupby.internal_schema.width
        )
        <= memory
    )


def _path(node):
    while True:
        yield node
        if isinstance(node, ScanNode):
            return
        node = node.children[0]


def check(case):
    """Run one case every way; the join's key-filter outcome."""
    left, right = table_rows(case)
    db = build_db(left, right, case["memory"])
    plan = build_plan(db, case)
    rows, io, metrics = execute(db, plan)
    with suppressed():
        plain_rows, plain_io, plain_metrics = execute(db, plan)
    assert plain_metrics.filters_fired == 0
    expected = bag(expected_rows(case, left, right))
    assert bag(rows) == expected, case
    assert bag(plain_rows) == expected, case
    assert io == plain_io == exact_io(plan, metrics, db.catalog, db.params), (
        case
    )
    outcome = metrics.of(plan).key_filter
    scan_metrics = metrics.of(list(_path(plan.left))[-1])
    if metrics.filters_fired:
        assert outcome == "a: fired", case
        assert io_gate_holds(db, plan, metrics), case
        assert scan_metrics.rows_out + scan_metrics.filtered == (
            plain_metrics.of(list(_path(plan.left))[-1]).rows_out
        )
    else:
        assert scan_metrics.filtered == 0
    if case["kind"] in ("left", "anti") or case["group_on"] == "other":
        assert outcome == "", case
    return outcome


# every draw keeps these: a selective filter whose IO gate fails
# because the unfiltered group-by spills (600 groups over 3 pages) and
# the filtered one would not; the same build keys under a LEFT join;
# and under a group-by on another column
SELECTIVE = dict(
    left_rows=1200, left_keys=600, left_cut=None, right_rows=100,
    right_keys=10, stride=1, right_cut=None, nulls=True, kind="inner",
    group_on="key", wrapper="none", having=None, eager=None, memory=3,
)
ALWAYS = [
    SELECTIVE,
    {**SELECTIVE, "kind": "left", "memory": 64},
    {**SELECTIVE, "group_on": "other", "left_keys": 20, "memory": 64},
]


class TestRuntimeKeyFilter:
    @given(case=filter_case())
    @example(case=ALWAYS[0])
    @example(case=ALWAYS[1])
    @example(case=ALWAYS[2])
    @settings(max_examples=200, deadline=None)
    def test_rows_and_io_match_the_unfiltered_run(self, case):
        check(case)

    def test_the_filter_fires_in_a_real_share(self):
        """A fixed sample of the cases above: the filter fires in a
        good share of those that may filter, and each gate skips some."""
        generator = random.Random(19960325)
        outcomes = []
        for _ in range(80):
            left_keys = generator.randint(40, 600)
            case = dict(
                left_rows=generator.randint(0, 1200),
                left_keys=left_keys,
                left_cut=None,
                right_rows=generator.randint(0, 400),
                right_keys=generator.choice(
                    [generator.randint(1, 40), left_keys]
                ),
                stride=generator.choice([1, 2]),
                right_cut=generator.choice([None, 200]),
                nulls=generator.random() < 0.5,
                kind=generator.choice(["inner", "semi"]),
                group_on="key",
                wrapper=generator.choice(["none", "rename", "project"]),
                having=generator.choice([None, 1]),
                eager=None,
                memory=generator.choice([3, 4, 8, 64]),
            )
            outcomes.append(check(case))
        fired = outcomes.count("a: fired")
        assert fired >= len(outcomes) // 4, outcomes
        assert "a: skipped (spill)" in outcomes
        assert "a: skipped (unselective)" in outcomes

    def test_a_subtree_shared_by_both_inputs(self):
        """One group-by object under both join inputs: only the probe
        side's compile path claims the filter, and the build side —
        the same scan object — runs unfiltered."""
        left, right = table_rows(
            dict(left_rows=600, left_keys=200, right_rows=0, right_keys=1,
                 stride=1, nulls=True)
        )
        db = build_db(left, right, 64)
        view = GroupByNode(
            scan(db, "l", "a"),
            group_keys=[("a", "k")],
            aggregates=[("n", AggregateCall("count", None))],
        )
        probe = RenameNode(view, [("x", "k", ("a", "k")), ("x", "n", (None, "n"))])
        build = FilterNode(
            RenameNode(view, [("y", "k", ("a", "k")), ("y", "n", (None, "n"))]),
            [Comparison("<", col("y.k"), lit(20))],
        )
        plan = JoinNode(
            probe, build, method="hj", equi_keys=[(("x", "k"), ("y", "k"))]
        )
        CostModel(db.catalog, db.params).annotate_tree(plan)
        rows, io, metrics = execute(db, plan)
        with suppressed():
            plain_rows, plain_io, _ = execute(db, plan)
        assert metrics.filters_fired == 1
        assert bag(rows) == bag(plain_rows) and len(rows) == 20
        assert io == plain_io

    def test_the_walk_stops(self):
        """No filter through a sort, a limit, a computed projection of
        the key, or a join method, kind or key count that may not
        filter — and none where no group-by is crossed."""
        left, right = table_rows(
            dict(left_rows=600, left_keys=200, right_rows=20, right_keys=10,
                 stride=1, nulls=False)
        )
        db = build_db(left, right, 64)

        def view():
            return GroupByNode(
                scan(db, "l", "a"),
                group_keys=[("a", "k"), ("a", "g")],
                aggregates=[("n", AggregateCall("count", None))],
            )

        def joined(left_input, key=("a", "k"), **options):
            equi_keys = [(key, ("b", "rk"))]
            if options.pop("two_keys", False):
                equi_keys.append((("a", "g"), ("b", "w")))
            options.setdefault("method", "hj")
            plan = JoinNode(
                left_input, scan(db, "r", "b"), equi_keys=equi_keys, **options
            )
            CostModel(db.catalog, db.params).annotate_tree(plan)
            return plan

        computed = ProjectNode(
            view(),
            [
                ("p", "k", Comparison("=", col("a.k"), col("a.k"))),
                ("p", "g", ColumnRef("a", "g")),
            ],
        )
        cases = {
            "group key": (joined(view()), "a: fired"),
            "sort": (joined(SortNode(view(), [("a", "k")])), ""),
            "limit": (joined(LimitNode(view(), 1000)), ""),
            "computed": (joined(computed, key=("p", "k")), ""),
            "smj": (joined(view(), method="smj"), ""),
            "nlj": (joined(view(), method="nlj"), ""),
            "left": (joined(view(), kind="left"), ""),
            "anti": (joined(view(), kind="anti"), ""),
            "two keys": (joined(view(), two_keys=True), ""),
            "no group-by": (joined(scan(db, "l", "a")), ""),
        }
        for name, (plan, outcome) in cases.items():
            _, _, metrics = execute(db, plan)
            assert metrics.of(plan).key_filter == outcome, name


def test_the_benchmark_texts():
    """Of the 13 end-to-end benchmark texts, only ``rev_per_customer``
    fires a filter: its view's ``lineitem`` scan keeps the 4 384 rows
    of the 1 096 orders the outer's ``orderdate < 700`` keeps, and no
    operator's q-error reads the cut as an estimation miss."""
    fired = set()
    for label, db, sql in e2e_statements():
        result = db.query(sql)
        metrics = result.exec_metrics
        if metrics.filters_fired:
            fired.add(label)
        if label == "dss_exec/rev_per_customer":
            (lineitem,) = [
                node
                for node in plan_nodes(result.plan)
                if isinstance(node, ScanNode) and node.table_name == "lineitem"
            ]
            ran = metrics.of(lineitem)
            assert (ran.filtered, ran.rows_out) == (11_616, 4_384)
            assert result.executed_io.total == 149
            assert max(record.q_error for record in result.q_errors()) < 1.1
            text = explain(result.plan, metrics=metrics)
            assert "key filter → r__l: fired" in text
            assert "filtered=11616 q=1.00" in text
            assert text.count("q=–") == 3  # rename, project, group-by
    assert fired == {"dss_exec/rev_per_customer"}
