"""Aggregating at the join: a hash group-by over an inner hash or
block-NLJ join folds the build side into one partial state per join
key and merges each probe row's hit, never making a joined row.

Each case is a random ``group-by(wrapper(join(probe, scan r)))`` plan
over NULL, duplicated, empty and all-matching build keys, one and two
join keys, every foldable aggregate kind on each side (all-NULL
arguments included), a keyless group-by, HAVING, a rename or
projection wrapper, 3 / 4 / 8 / 64 pages of memory, and a probe side
that is either a scan or a group-by over one (so the join's runtime
key filter may fire, armed from the partial states). Its rows, in
order, and its page IO must be the run's with the fold suppressed —
the compile-time walk patched to find nothing — and its IO the cost
model's under the run's actual counts (``exact_io``). Fixed plans
check that the walk refuses what it must, and which benchmark texts
fold.

Mutation checks, each made in a scratch copy of the engine and each
failing ``test_rows_and_io_match_the_unfolded_run``:

- the probe-side weight dropped (``{s0} += {v} * {w}`` made
  ``{s0} += {v}`` in SUM's weighted row);
- the NULL-key skip dropped (``skip_null_keys=True`` made ``False`` in
  ``join._fold_build``);
- the SUM seen-flag dropped (SUM's merge row made
  ``{s0} += {h0}; {s1} = True``, unconditionally).
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import Arith, ColumnRef, Comparison, col, lit
from repro.algebra.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    explain,
    plan_nodes,
)
from repro.catalog.schema import table_row_schema
from repro.cost import CostModel
from repro.engine import ExecutionContext, execute_plan, executor
from repro.engine.kernels import KERNEL_KINDS
from repro.testing.exactio import exact_io

from .dp_support import e2e_statements

FOLDABLE = ("count*", "count", "sum", "min", "max", "avg", "stddev")


@st.composite
def fold_case(draw):
    left_keys = draw(st.integers(min_value=1, max_value=60))
    # most of the kind / side pairs, in a drawn order (so each
    # build-side aggregate's slots sit at a drawn offset in the partial
    # state), each with a plain or a computed argument
    pairs = draw(
        st.permutations(
            [(kind, side) for kind in FOLDABLE for side in ("probe", "build")]
        )
    )[: draw(st.integers(min_value=4, max_value=2 * len(FOLDABLE)))]
    return dict(
        left_rows=draw(st.integers(min_value=0, max_value=300)),
        left_keys=left_keys,
        # none, a few keys (duplicated), or as many as the probe side
        # has (all-matching)
        right_rows=draw(st.integers(min_value=0, max_value=300)),
        right_keys=draw(
            st.one_of(
                st.integers(min_value=1, max_value=8),
                st.just(left_keys),
            )
        ),
        nulls=draw(st.booleans()),
        two_keys=draw(st.booleans()),
        left_values=draw(st.sampled_from(["all", "some", "none"])),
        right_values=draw(st.sampled_from(["all", "some", "none"])),
        aggregates=[
            (kind, side, draw(st.booleans())) for kind, side in pairs
        ],
        group_on=draw(st.sampled_from(["g", "k", "none"])),
        having=draw(st.one_of(st.none(), st.integers(0, 6))),
        wrapper=draw(st.sampled_from(["none", "rename", "project"])),
        probe_view=draw(st.booleans()),
        method=draw(st.sampled_from(["hj", "nlj"])),
        memory=draw(st.sampled_from([3, 4, 8, 64])),
    )


def table_rows(case):
    """``l(k, k2, g, v)``: the probe side, NULL ``k`` on every 7th row
    when *nulls*. ``r(rk, rk2, w)``: the build side, NULL ``rk`` on
    every 5th row when *nulls*. ``v`` / ``w`` are NULL on every row
    (``all``), every 3rd (``some``) or none."""

    def value(i, mode):
        if mode == "all" or (mode == "some" and i % 3 == 0):
            return None
        return i % 11 - 3

    nulls = case["nulls"]
    left = [
        (
            None if nulls and i % 7 == 1 else i % case["left_keys"],
            i % 2,
            i % 5,
            value(i, case["left_values"]),
        )
        for i in range(case["left_rows"])
    ]
    right = [
        (
            None if nulls and i % 5 == 1 else i % case["right_keys"],
            i % 3 % 2,
            value(i, case["right_values"]),
        )
        for i in range(case["right_rows"])
    ]
    return left, right


def build_db(left, right, memory):
    db = Database(CostParams(memory_pages=memory))
    db.create_table(
        "l", [("k", "int"), ("k2", "int"), ("g", "int"), ("v", "int")],
        nullable=["k", "v"],
    )
    db.create_table(
        "r", [("rk", "int"), ("rk2", "int"), ("w", "int")],
        nullable=["rk", "w"],
    )
    db.insert("l", left)
    db.insert("r", right)
    db.create_index("r_rk", "r", ["rk"])
    db.analyze()
    return db


def scan(db, table, alias):
    return ScanNode(
        table, alias, table_row_schema(alias, db.catalog.table(table).columns)
        .fields,
    )


def joined(db, case, **options):
    """``join(probe, scan r)`` on ``k`` (and ``k2``); the probe is
    ``scan l``, or a group-by over it on every column (whose key the
    join's runtime key filter may reach)."""
    probe = scan(db, "l", "a")
    if case["probe_view"]:
        probe = GroupByNode(
            probe,
            group_keys=[("a", "k"), ("a", "k2"), ("a", "g"), ("a", "v")],
            aggregates=[("n", AggregateCall("count", None))],
        )
    equi_keys = [(("a", "k"), ("b", "rk"))]
    if case["two_keys"]:
        equi_keys.append((("a", "k2"), ("b", "rk2")))
    options.setdefault("method", case["method"])
    return JoinNode(probe, scan(db, "r", "b"), equi_keys=equi_keys, **options)


def wrapped(join, wrapper):
    """*join* under a rename or bare-column projection to ``x`` / ``p``,
    and ``ref(alias, name)``, which names a join column above it."""
    if wrapper == "none":
        return join, lambda alias, name: col(f"{alias}.{name}")
    if wrapper == "rename":
        node = RenameNode(
            join, [("x", field.name, field.key) for field in join.schema]
        )
    else:
        node = ProjectNode(
            join,
            [("p", field.name, ColumnRef(*field.key)) for field in join.schema],
        )
    return node, lambda alias, name: col(f"{node.schema.fields[0].alias}.{name}")


def build_plan(db, case, **join_options):
    child, ref = wrapped(joined(db, case, **join_options), case["wrapper"])
    aggregates = []
    for i, (kind, side, computed) in enumerate(case["aggregates"]):
        if kind == "count*":
            call = AggregateCall("count", None)
        else:
            arg = ref("a", "v") if side == "probe" else ref("b", "w")
            if computed:
                arg = Arith("*", Arith("+", arg, lit(1)), lit(2))
            call = AggregateCall(kind, arg)
        aggregates.append((f"a{i}", call))
    group_keys = []
    if case["group_on"] != "none":
        group_keys = [ref("a", case["group_on"]).key]
    having = ()
    if case["having"] is not None:
        having = (Comparison(">", ColumnRef(None, "a0"), lit(case["having"])),)
    plan = GroupByNode(
        child, group_keys=group_keys, aggregates=aggregates, having=having
    )
    CostModel(db.catalog, db.params).annotate_tree(plan)
    return plan


def execute(db, plan):
    """``(rows, executed page IO, metrics)`` of one run of *plan*."""
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        result = execute_plan(plan, context)
    return result.rows, span.delta.total, context.metrics


def suppressed():
    """The compile-time walk finds no join to fold."""
    return mock.patch.object(executor, "_fold_path", lambda plan: None)


def join_of(plan):
    return next(node for node in plan_nodes(plan) if isinstance(node, JoinNode))


def check(case):
    """Run one case folded and unfolded; the folded run's metrics."""
    left, right = table_rows(case)
    db = build_db(left, right, case["memory"])
    plan = build_plan(db, case)
    rows, io, metrics = execute(db, plan)
    with suppressed():
        plain_rows, plain_io, plain_metrics = execute(db, plan)
    assert (metrics.folds, plain_metrics.folds) == (1, 0), case
    assert rows == plain_rows, case
    assert io == plain_io == exact_io(plan, metrics, db.catalog, db.params), (
        case
    )
    for node in plan_nodes(plan):  # every operator's rows, and its kind
        ran, plain = metrics.of(node), plain_metrics.of(node)
        assert (ran.rows_in, ran.rows_out, ran.groups) == (
            plain.rows_in, plain.rows_out, plain.groups
        ), (case, node.describe())
        assert ran.key_filter == plain.key_filter, case
        assert ran.seconds >= sum(child.seconds for child in ran.children)
    build_keys = {
        (b[0], b[1]) if case["two_keys"] else b[0]
        for b in right
        if b[0] is not None
    }
    assert metrics.of(join_of(plan)).folded == len(build_keys), case
    return metrics


SELECTIVE = dict(
    left_rows=300, left_keys=60, right_rows=40, right_keys=4, nulls=True,
    two_keys=False, left_values="some", right_values="some",
    aggregates=[("count*", "probe", False), ("sum", "build", False),
                ("sum", "probe", False)],
    group_on="g", having=None, wrapper="none", probe_view=True,
    method="hj", memory=64,
)
ALL_NULL_SUM = {
    **SELECTIVE, "right_values": "all", "probe_view": False,
    "aggregates": [("sum", "build", False), ("count", "build", False),
                   ("avg", "build", True)],
}


class TestJoinFold:
    @given(case=fold_case())
    @example(case=SELECTIVE)
    @example(case=ALL_NULL_SUM)
    @example(case={**SELECTIVE, "two_keys": True, "method": "nlj",
                   "wrapper": "rename", "group_on": "none", "memory": 3})
    @example(case={**SELECTIVE, "right_rows": 0, "wrapper": "project"})
    @settings(max_examples=150, deadline=None)
    def test_rows_and_io_match_the_unfolded_run(self, case):
        check(case)

    def test_a_key_filter_armed_from_the_partial_states(self):
        metrics = check(SELECTIVE)
        assert metrics.filters_fired == 1

    def test_an_all_null_build_sum_is_null(self):
        left, right = table_rows(ALL_NULL_SUM)
        db = build_db(left, right, 64)
        rows, _, metrics = execute(db, build_plan(db, ALL_NULL_SUM))
        assert metrics.folds == 1 and rows
        assert all(row[1:3] == (None, 0) for row in rows)

    def test_the_walk_refuses(self):
        """No fold for an argument reading both sides, a group key on
        the build side, a join kind or method other than inner hash /
        block NLJ, a residual, an aggregate kind without weighted and
        merge rows, a sort group-by, or a filter between."""
        case = {**SELECTIVE, "probe_view": False}
        left, right = table_rows(case)
        db = build_db(left, right, 64)

        def plan_with(aggregates=None, group_keys=(("a", "g"),), join=None,
                      method="hash"):
            child = join if join is not None else joined(db, case)
            plan = GroupByNode(
                child,
                group_keys=list(group_keys),
                aggregates=aggregates
                or [("s", AggregateCall("sum", col("b.w")))],
                method=method,
            )
            CostModel(db.catalog, db.params).annotate_tree(plan)
            return plan

        both = Arith("+", col("a.v"), col("b.w"))
        residual = Comparison("<", col("a.v"), col("b.w"))
        cases = {
            "both sides": plan_with([("s", AggregateCall("sum", both))]),
            "build group key": plan_with(group_keys=[("b", "w")]),
            "left": plan_with(join=joined(db, case, kind="left")),
            "residual": plan_with(
                join=joined(db, case, residuals=[residual])
            ),
            "smj": plan_with(join=joined(db, case, method="smj")),
            "inlj": plan_with(
                join=joined(db, case, method="inlj", index_name="r_rk")
            ),
            "other": plan_with(
                [("m", AggregateCall("median", col("b.w")))]
            ),
            "sort": plan_with(
                method="sort", group_keys=[], aggregates=None
            ),
            "filter": plan_with(
                join=FilterNode(
                    joined(db, case), [Comparison(">", col("a.g"), lit(0))]
                )
            ),
        }
        for kind in ("semi", "anti"):
            cases[kind] = plan_with(
                [("n", AggregateCall("count", None))],
                join=joined(db, case, kind=kind),
            )
        cases["null-aware"] = plan_with(
            [("n", AggregateCall("count", None))],
            join=joined(db, case, kind="anti", null_aware=True),
        )
        assert executor._fold_path(plan_with()) is not None
        for name, plan in cases.items():
            assert executor._fold_path(plan) is None, name
            rows, io, metrics = execute(db, plan)
            assert metrics.folds == 0, name


def test_every_kernel_kind_folds_or_says_it_does_not():
    """Each aggregate kind has its plain, weighted and merge rows in
    the one table, or neither of the last two; only the generic
    accumulator does not fold."""
    for name, kind in KERNEL_KINDS.items():
        assert kind.inits and kind.update and kind.finalize, name
        assert (kind.weighted is None) == (kind.merge is None), name
    assert {n for n, k in KERNEL_KINDS.items() if not k.foldable} == {"other"}
    assert set(FOLDABLE) == {n for n, k in KERNEL_KINDS.items() if k.foldable}


def test_the_benchmark_texts():
    """Of the 13 end-to-end benchmark texts, ``fanout_grouped`` and
    ``two_view_4way`` fold. ``fanout_grouped``'s join keeps its 16 000
    logical rows, which the group-by's rows in and spill charge read,
    from 4 000 partial states and no joined row."""
    folded = set()
    for label, db, sql in e2e_statements():
        result = db.query(sql)
        metrics = result.exec_metrics
        if metrics.folds:
            folded.add(label)
        if label == "dss_exec/fanout_grouped":
            join = join_of(result.plan)
            ran = metrics.of(join)
            assert (ran.rows_in, ran.rows_out, ran.cells) == (
                16_000, 16_000, 4_000
            )
            assert metrics.of(result.plan.child).rows_in == 16_000
            assert result.executed_io.total == 149
            text = explain(result.plan, metrics=metrics)
            assert "folded → 4000 keys" in text
    assert folded == {"dss_exec/fanout_grouped", "plan_cold/two_view_4way"}
