"""Unit tests for the compiled columnar kernels.

The kernels must reproduce the row engine's semantics exactly, so every
selection/compute test is differential: the generated kernel's output
against the bound-closure evaluation of the same expressions over the
same (NULL-bearing) data. Group-by kernels are checked per aggregate
kind, and the executor-level tests pin the observability surface: the
``kernels_compiled`` counter, the source cache, and the ``fused``
markers in ``explain(analyze=True)``.
"""

import random
from types import SimpleNamespace

import pytest

from repro import CostParams, Database
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import (
    And,
    Arith,
    Comparison,
    IsNull,
    Not,
    Or,
    col,
    lit,
)
from repro.algebra.plan import FilterNode, ProjectNode, ScanNode, explain
from repro.catalog.schema import Field, RowSchema, table_row_schema
from repro.datatypes import DataType
from repro.engine import ColumnBatch, ExecutionContext, execute_plan
from repro.engine.batch import take
from repro.engine.kernels import (
    _SOURCE_CACHE,
    ComputeProgram,
    SelectionProgram,
    groupby_kernels,
)

SCHEMA = RowSchema(
    [
        Field("t", "a", DataType.INT),
        Field("t", "b", DataType.FLOAT),
        Field("t", "c", DataType.INT),
    ]
)


def make_columns(n=500, seed=11):
    """Three columns with NULLs mixed into ``a`` and ``b``."""
    rng = random.Random(seed)
    a = [rng.randrange(20) if rng.random() > 0.2 else None for _ in range(n)]
    b = [
        round(rng.random() * 10, 3) if rng.random() > 0.2 else None
        for _ in range(n)
    ]
    c = [rng.randrange(5) for _ in range(n)]
    return [a, b, c]


PREDICATES = [
    Comparison("<", col("t.a"), lit(10)),
    Comparison("=", col("t.c"), lit(3)),
    Comparison("!=", col("t.a"), col("t.c")),
    Comparison(">=", col("t.b"), col("t.a")),
    Comparison("=", col("t.a"), lit(None)),  # UNKNOWN: keeps nothing
    IsNull(col("t.a")),
    IsNull(col("t.b"), negate=True),
    Not(Comparison("<", col("t.a"), lit(10))),
    And([Comparison("<", col("t.a"), lit(15)), IsNull(col("t.b"))]),
    Or([Comparison(">", col("t.a"), lit(18)), Comparison("=", col("t.c"), lit(0))]),
    Not(And([IsNull(col("t.a")), IsNull(col("t.b"))])),
    Or([Not(IsNull(col("t.a"))), Comparison("<", col("t.c"), lit(2))]),
    Comparison("<", Arith("+", col("t.a"), col("t.b")), lit(12.0)),
    Comparison(">", Arith("*", col("t.a"), lit(2)), Arith("-", col("t.b"), lit(1.0))),
    Comparison("=", lit(1), lit(1)),  # constant TRUE: all rows pass
    Comparison("=", lit(1), lit(2)),  # constant FALSE: none pass
]


A_LT = Comparison("<", col("t.a"), lit(12))
B_LT = Comparison("<", col("t.b"), lit(5.0))
C_EQ = Comparison("=", col("t.c"), lit(1))

# (Kleene expression, the column positions it reads)
KLEENE = [
    (And([IsNull(col("t.a")), Comparison("<", col("t.c"), lit(3))]), (0, 2)),
    (Or([Comparison(">", col("t.a"), lit(10)), B_LT]), (0, 1)),
    (Not(And([A_LT, Or([IsNull(col("t.b")), C_EQ])])), (0, 1, 2)),
    (IsNull(Or([A_LT, B_LT])), (0, 1)),
    (IsNull(And([Not(B_LT), IsNull(col("t.a"), negate=True)]), negate=True),
     (0, 1)),
    (Comparison("=", And([A_LT, B_LT]), Or([Not(A_LT), C_EQ])), (0, 1, 2)),
    (Or([And([A_LT, Not(Or([B_LT, C_EQ]))]), IsNull(col("t.b"))]), (0, 1, 2)),
]


def closure_selection(predicates, columns):
    """The row engine's answer: bind each predicate, keep TRUE rows."""
    checks = [predicate.bind(SCHEMA) for predicate in predicates]
    rows = list(zip(*columns))
    return [
        i
        for i, row in enumerate(rows)
        if all(check(row) for check in checks)
    ]


class TestSelectionKernels:
    @pytest.mark.parametrize("index", range(len(PREDICATES)))
    def test_single_predicate_matches_closures(self, index):
        predicate = PREDICATES[index]
        columns = make_columns()
        n = len(columns[0])
        program = SelectionProgram([predicate], SCHEMA)
        sel = program.run(columns, n)
        expected = closure_selection([predicate], columns)
        got = list(range(n)) if sel is None else sel
        assert got == expected

    def test_conjunction_matches_closures(self):
        columns = make_columns(seed=5)
        n = len(columns[0])
        predicates = PREDICATES[:4]
        program = SelectionProgram(predicates, SCHEMA)
        sel = program.run(columns, n)
        expected = closure_selection(predicates, columns)
        got = list(range(n)) if sel is None else sel
        assert got == expected

    def test_all_pass_returns_none(self):
        columns = [[1, 2, 3], [1.0, 2.0, 3.0], [0, 0, 0]]
        program = SelectionProgram(
            [Comparison("<", col("t.a"), lit(99))], SCHEMA
        )
        assert program.run(columns, 3) is None

    def test_inactive_program(self):
        program = SelectionProgram([], SCHEMA)
        assert not program.active
        assert program.run(make_columns(), 500) is None

    def test_used_positions(self):
        program = SelectionProgram(
            [Comparison("<", col("t.a"), lit(10)), IsNull(col("t.c"))],
            SCHEMA,
        )
        assert program.used == (0, 2)


class TestComputeKernels:
    def test_column_pick_is_zero_copy(self):
        columns = make_columns()
        program = ComputeProgram([col("t.c"), col("t.a")], SCHEMA)
        out = program.run(columns, len(columns[0]))
        assert out[0] is columns[2]
        assert out[1] is columns[0]

    def test_arith_with_nulls_matches_closures(self):
        columns = make_columns(seed=7)
        n = len(columns[0])
        expressions = [
            Arith("+", col("t.a"), col("t.b")),
            Arith("*", col("t.b"), lit(3.0)),
            Arith("-", lit(100), col("t.a")),
        ]
        program = ComputeProgram(expressions, SCHEMA)
        out = program.run(columns, n)
        rows = list(zip(*columns))
        for position, expression in enumerate(expressions):
            evaluate = expression.bind(SCHEMA)
            assert list(out[position]) == [evaluate(row) for row in rows]

    @pytest.mark.parametrize("index", range(len(KLEENE)))
    def test_kleene_logic_compiles_and_matches_closures(self, index):
        # AND / OR / NOT / IS NULL nested as values and as predicates:
        # every one compiles, and reads only the columns it names
        expression, used = KLEENE[index]
        columns = make_columns(seed=9)
        n = len(columns[0])
        rows = list(zip(*columns))
        evaluate = expression.bind(SCHEMA)

        compute = ComputeProgram([col("t.c"), expression], SCHEMA)
        out = compute.run(columns, n)
        assert out[0] is columns[2]
        assert list(out[1]) == [evaluate(row) for row in rows]
        assert compute.used == tuple(sorted({2} | set(used)))

        selection = SelectionProgram([expression], SCHEMA)
        sel = selection.run(columns, n)
        got = list(range(n)) if sel is None else sel
        assert got == closure_selection([expression], columns)
        assert selection.used == used

    def test_constant_output_and_empty_batch(self):
        program = ComputeProgram([Arith("+", lit(2), lit(3))], SCHEMA)
        out = program.run([[], [], []], 0)
        assert out[0] == []
        out = program.run(make_columns(n=4), 4)
        assert list(out[0]) == [5, 5, 5, 5]


class TestGroupByKernels:
    KINDS = [
        ("count", AggregateCall("count", col("t.a"))),
        ("count*", AggregateCall("count", None)),
        ("sum", AggregateCall("sum", col("t.b"))),
        ("min", AggregateCall("min", col("t.a"))),
        ("max", AggregateCall("max", col("t.a"))),
        ("avg", AggregateCall("avg", col("t.b"))),
        ("stddev", AggregateCall("stddev", col("t.b"))),
    ]

    @pytest.mark.parametrize("kind,call", KINDS, ids=[k for k, _ in KINDS])
    def test_each_aggregate_matches_accumulators(self, kind, call):
        columns = make_columns(seed=13)
        keys = columns[2]
        argument = (
            [None] * len(keys)
            if call.arg is None
            else columns[SCHEMA.index_of("t", call.arg.name)]
        )
        update, finalize = groupby_kernels(1, [("x", call)])
        table = {}
        update([keys], {0: argument}, table)
        out = finalize(table.items())

        expected = {}
        for key, value in zip(keys, argument):
            accumulator = expected.setdefault(
                key, call.function().make_accumulator()
            )
            accumulator.add(value if call.arg is not None else True)
        assert list(out[0]) == list(expected.keys())
        for position, key in enumerate(expected):
            assert out[1][position] == pytest.approx(
                expected[key].value(), nan_ok=True
            )

    def test_sum_bit_identity_negative_zero(self):
        # SUM starts from integer 0 exactly like the accumulator, so a
        # group summing to -0.0 keeps the same sign bit in both engines
        update, finalize = groupby_kernels(
            1, [("s", AggregateCall("sum", col("t.b")))]
        )
        table = {}
        update([[1, 1]], {0: [[-0.0][0], 0.0]}, table)
        out = finalize(table.items())
        import math

        accumulator = AggregateCall(
            "sum", col("t.b")
        ).function().make_accumulator()
        accumulator.add(-0.0)
        accumulator.add(0.0)
        assert math.copysign(1.0, out[1][0]) == math.copysign(
            1.0, accumulator.value()
        )

    def test_multi_key_grouping(self):
        update, finalize = groupby_kernels(
            2, [("n", AggregateCall("count", None))]
        )
        table = {}
        update([[1, 1, 2], ["x", "x", "y"]], {}, table)
        out = finalize(table.items())
        assert list(out[0]) == [1, 2]
        assert list(out[1]) == ["x", "y"]
        assert list(out[2]) == [2, 1]


class TestKernelCompilationCache:
    def test_same_shape_compiles_once(self):
        # different constants, same expression shape → same source text,
        # so the code-object cache must not grow on the second build
        SelectionProgram([Comparison("<", col("t.a"), lit(123))], SCHEMA)
        before = len(_SOURCE_CACHE)
        SelectionProgram([Comparison("<", col("t.a"), lit(456))], SCHEMA)
        assert len(_SOURCE_CACHE) == before

    def test_kernels_compiled_counts_instantiations(self):
        context = SimpleNamespace(kernels_compiled=0)
        SelectionProgram(
            [Comparison("<", col("t.a"), lit(1))], SCHEMA, context
        )
        SelectionProgram(
            [Comparison("<", col("t.a"), lit(2))], SCHEMA, context
        )
        groupby_kernels(1, [("n", AggregateCall("count", None))], context)
        # two selections + update/finalize pair: cached source still
        # counts — the counter tracks kernels built, not code compiled
        assert context.kernels_compiled == 4


@pytest.fixture
def small_db():
    db = Database(CostParams(memory_pages=16))
    db.create_table(
        "s", [("k", "int"), ("v", "float")], primary_key=["k"]
    )
    db.insert("s", [(i, float(i % 7)) for i in range(300)])
    db.analyze()
    return db


def _scan(db, table, alias, filters=()):
    return ScanNode(
        table,
        alias,
        table_row_schema(alias, db.catalog.table(table).columns).fields,
        filters=filters,
    )


class TestFusedChainObservability:
    def plan(self, db):
        return ProjectNode(
            FilterNode(
                _scan(db, "s", "e"),
                [Comparison("<", col("e.v"), lit(5.0))],
            ),
            [(None, "doubled", Arith("*", col("e.v"), lit(2.0)))],
        )

    def test_explain_analyze_marks_fused_operators(self, small_db):
        plan = self.plan(small_db)
        context = ExecutionContext(
            small_db.catalog, small_db.io, small_db.params
        )
        result = execute_plan(plan, context)
        metrics = context.metrics
        text = explain(plan, metrics=metrics)
        assert "fused" in text
        # per-operator actuals survive fusion
        assert metrics.of(plan).rows_out == len(result.rows)
        assert metrics.actual_rows(plan.child) == len(result.rows)
        assert metrics.of(plan.child).rows_out == len(result.rows)
        assert metrics.of(plan.child.child).batches > 0

    def test_fused_chain_compiles_kernels(self, small_db):
        plan = self.plan(small_db)
        context = ExecutionContext(
            small_db.catalog, small_db.io, small_db.params
        )
        execute_plan(plan, context)
        assert context.kernels_compiled >= 2  # selection + compute


class TestColumnBatchHelpers:
    def test_project_is_zero_copy(self):
        batch = ColumnBatch([[1, 2], [3.0, 4.0], ["x", "y"]], 2)
        projected = batch.project([2, 0])
        assert projected.columns[0] is batch.columns[2]
        assert projected.columns[1] is batch.columns[0]

    def test_take_gathers_each_column(self):
        batch = ColumnBatch([[10, 20, 30], ["a", "b", "c"]], 3)
        taken = batch.take([2, 0])
        assert taken.length == 2
        assert list(taken.columns[0]) == [30, 10]
        assert list(taken.columns[1]) == ["c", "a"]

    def test_take_helper_edge_cases(self):
        column = [5, 6, 7]
        assert take(column, []) == ()
        assert take(column, [1]) == (6,)
        assert list(take(column, [2, 0, 1])) == [7, 5, 6]
