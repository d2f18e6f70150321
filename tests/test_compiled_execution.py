"""Compile once, run many: a plan is compiled into one ``Executable``
that every execution shares, run state lives in each execution's own
``ExecutionMetrics``, ``$n`` values arrive at run time, and an unchanged
table keeps its previous snapshot.

Everything here is deterministic — counts and identities, no wall clock.
"""

import math
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro import CostParams, Database
from repro.algebra.expressions import (
    Arith,
    ColumnRef,
    Comparison,
    Literal,
    Parameter,
)
from repro.algebra.plan import (
    PlanNode,
    plan_nodes,
)
from repro.catalog.schema import Field, RowSchema
from repro.datatypes import DataType
from repro.engine import ExecutionContext, compile_plan, execute_plan
from repro.engine import kernels
from repro.errors import BindError, PlanError
from repro.server import session as session_module
from repro.server.planrewrite import bind_parameters
from repro.storage.iocounter import IOCounter
from repro.storage.snapshot import TableSnapshot


@pytest.fixture
def db():
    """emp/dept as in conftest plus a table big enough that a point
    predicate on its indexed key is an index probe."""
    db = Database(CostParams(memory_pages=8))
    db.create_table(
        "emp",
        [("eno", "int"), ("dno", "int"), ("sal", "float"), ("age", "int")],
        primary_key=["eno"],
    )
    db.create_table(
        "dept",
        [("dno", "int"), ("budget", "float"), ("loc", "int")],
        primary_key=["dno"],
    )
    db.create_table(
        "orders", [("orderkey", "int"), ("custkey", "int"), ("price", "int")]
    )
    rng = random.Random(1234)
    db.insert(
        "emp",
        [
            (eno, eno % 7, float(rng.randint(20_000, 120_000)), rng.randint(18, 65))
            for eno in range(140)
        ],
    )
    db.insert(
        "dept",
        [(dno, float(rng.randint(100_000, 3_000_000)), dno % 3) for dno in range(7)],
    )
    db.insert("orders", [(k // 2, k % 97, k * 3) for k in range(5000)])
    db.create_index("orders_key", "orders", ["orderkey"])
    db.analyze()
    return db


def counters(exec_metrics):
    """What an execution counted, per operator, without its timings."""
    return [
        (op.label, op.depth, op.rows_in, op.rows_out, op.batches, op.cells)
        for op in exec_metrics.operators
    ]


def bag(rows):
    return sorted(rows, key=repr)


JOIN_SQL = (
    "select e.dno, sum(e.sal) as s, count(*) as c from emp e, dept d "
    "where e.dno = d.dno and d.loc < 2 and e.age > 30 group by e.dno"
)
POINT_SQL = "select o.orderkey, o.price from orders o where o.orderkey = {}"


# ----------------------------------------------------------------------
# One executable, many executions
# ----------------------------------------------------------------------


class TestSharedExecutable:
    def test_execute_plan_is_compile_then_run(self, db):
        plan = db.optimize(JOIN_SQL).plan
        direct = execute_plan(plan, ExecutionContext(db.catalog, IOCounter(), db.params))
        executable = compile_plan(plan, db.catalog)
        assert executable.plan is plan
        contexts = [
            ExecutionContext(db.catalog, IOCounter(), db.params) for _ in range(2)
        ]
        for context in contexts:
            # an executable goes through the same entry point
            assert execute_plan(executable, context).rows == direct.rows
        first, second = (context.metrics for context in contexts)
        assert counters(first) == counters(second)
        assert first.of(plan) is not second.of(plan)
        assert bag(direct.rows) == bag(db.reference(JOIN_SQL).rows)

    def test_kernels_are_counted_where_they_are_instantiated(self, db):
        with db.session() as session:
            cold = session.execute(JOIN_SQL).query_result.exec_metrics
            warm = session.execute(JOIN_SQL).query_result.exec_metrics
            assert cold.kernels_compiled == db.query(JOIN_SQL).exec_metrics.kernels_compiled
            assert cold.kernels_compiled > 0
            assert warm.kernels_compiled == 0
            session.execute(
                "PREPARE p AS select e.eno from emp e where e.age < $1 and e.dno = 3"
            )
            for _ in range(2):  # the one $n-reading kernel, every time
                run = session.execute("EXECUTE p(40)").query_result.exec_metrics
                assert run.kernels_compiled == 1

    def test_cached_plan_is_untouched_and_nothing_is_rebuilt(self, db, monkeypatch):
        """The statement that plans a text compiles for itself and keeps
        nothing; its first reuse compiles the cached entry, once; from
        then on an execution constructs no schema, kernel, plan node or
        table snapshot. No execution writes to a node of the cached
        plan."""
        ran, before = [], []
        real_execute = session_module.execute_plan

        def spying_execute(plan, context):
            if not ran:  # the freshly planned tree, before anything ran it
                before.extend(dict(vars(node)) for node in plan_nodes(plan))
            ran.append(plan)
            return real_execute(plan, context)

        monkeypatch.setattr(session_module, "execute_plan", spying_execute)
        calls = {}

        def count(owner, name):
            real = getattr(owner, name)
            calls[real.__qualname__] = 0

            def counting(*args, **kwargs):
                calls[real.__qualname__] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        with db.session() as session:
            first = session.execute(JOIN_SQL)
            (entry,) = db.plan_cache._entries.values()
            plan = entry.value.optimization.plan
            assert entry.value.executable is None
            second = session.execute(JOIN_SQL)
            executable = entry.value.executable
            assert executable is not None and executable.plan is plan
            count(RowSchema, "__init__")
            count(PlanNode, "__init__")
            count(TableSnapshot, "__init__")
            count(kernels, "_instantiate")
            third = session.execute(JOIN_SQL)
        assert ran == [plan, executable, executable]
        assert second.cache_hit and third.cache_hit
        assert first.rows == second.rows == third.rows
        assert calls == {
            "RowSchema.__init__": 0,
            "PlanNode.__init__": 0,
            "TableSnapshot.__init__": 0,
            "_instantiate": 0,
        }
        assert third.query_result.plan is plan
        after = [dict(vars(node)) for node in plan_nodes(plan)]
        assert len(after) == len(before) >= 5
        for was, now in zip(before, after):
            assert was.keys() == now.keys()
            assert all(was[name] is now[name] for name in was)
        assert "actual_rows" not in vars(plan)
        assert "op_metrics" not in vars(plan)

    def test_explain_analyze_of_a_result_is_its_own(self, db):
        with db.session() as session:
            session.execute("PREPARE p AS " + POINT_SQL.format("$1"))
            earlier = session.execute("EXECUTE p(7)").query_result
            text = earlier.explain(analyze=True)
            assert text.startswith("Parameters: $1 = 7\n")
            assert "[index orders_key = $1]" in text
            assert "(actual rows=2 " in text
            later = session.execute("EXECUTE p(99999)").query_result
            assert later.plan is earlier.plan
            assert "(actual rows=0 " in later.explain(analyze=True)
            assert later.explain(analyze=True).startswith(
                "Parameters: $1 = 99999\n"
            )
            assert earlier.explain(analyze=True) == text
            assert [record.actual_rows for record in earlier.q_errors()] == [2, 2]
            literal = session.execute(POINT_SQL.format(7)).query_result
            assert literal.parameters == ()
            assert not literal.explain(analyze=True).startswith("Parameters")


# ----------------------------------------------------------------------
# Concurrency: the property clone_plan existed for
# ----------------------------------------------------------------------


def run_threads(workers):
    """Run *workers* under a short switch interval; re-raise what any of
    them raised."""
    failures = []

    def guarded(work):
        def target():
            try:
                work()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                failures.append(error)

        return target

    threads = [threading.Thread(target=guarded(work)) for work in workers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]


class TestConcurrentExecutions:
    THREADS = 6
    ROUNDS = 25

    def test_threads_share_one_cached_text(self, db):
        expected_rows = bag(db.reference(JOIN_SQL).rows)
        with db.session() as session:
            session.execute(JOIN_SQL)
            alone = session.execute(JOIN_SQL).query_result
        expected = counters(alone.exec_metrics)
        shared_plan = alone.plan
        results = []

        def work():
            with db.session() as session:
                for _ in range(self.ROUNDS):
                    results.append(session.execute(JOIN_SQL))

        run_threads([work] * self.THREADS)
        assert len(results) == self.THREADS * self.ROUNDS
        for result in results:
            assert result.cache_hit
            assert result.query_result.plan is shared_plan
            assert bag(result.rows) == expected_rows
            assert counters(result.query_result.exec_metrics) == expected

    def test_threads_share_one_prepared_executable(self, db):
        """Different values, one executable: no value and no count leaks
        from one run into another."""
        sql = (
            "select o.orderkey, o.price from orders o "
            "where o.orderkey = $1 and o.price > $2"
        )
        literal = (
            "select o.orderkey, o.price from orders o "
            "where o.orderkey = {} and o.price > {}"
        )
        with db.session() as session:
            session.execute("PREPARE p AS " + sql)
            executable = session.prepared["p"].planned.executable
        values = [(key, key * 6) for key in range(0, 2500, 97)]
        expected = {}
        for pair in values:
            context = ExecutionContext(
                db.catalog, IOCounter(), db.params, parameters=pair
            )
            rows = executable.run(context).rows
            assert bag(rows) == bag(db.reference(literal.format(*pair)).rows)
            expected[pair] = (rows, counters(context.metrics))
        outcomes = []

        def work(offset):
            def run():
                for turn in range(self.ROUNDS):
                    pair = values[(offset + turn) % len(values)]
                    context = ExecutionContext(
                        db.catalog,
                        IOCounter(),
                        db.params,
                        snapshot=db.catalog.capture_snapshot(),
                        parameters=pair,
                    )
                    rows = executable.run(context).rows
                    outcomes.append((pair, rows, counters(context.metrics)))

            return run

        run_threads([work(offset) for offset in range(self.THREADS)])
        assert len(outcomes) == self.THREADS * self.ROUNDS
        for pair, rows, counted in outcomes:
            assert (rows, counted) == expected[pair]

    def test_insert_is_seen_by_the_next_statement_only(self, db, monkeypatch):
        """A statement that captured its snapshot before an INSERT
        published does not see the row; the next statement does — a
        reused snapshot never outlives a publish."""
        sql = POINT_SQL.format(1212)
        real_execute = session_module.execute_plan
        pending = [(1212, 1, -5)]

        def insert_then_execute(executable, context):
            # the statement is past its snapshot and outside the lock
            if pending:
                db.insert("orders", [pending.pop()])
            return real_execute(executable, context)

        with db.session() as session:
            before = session.execute(sql).rows
            monkeypatch.setattr(
                session_module, "execute_plan", insert_then_execute
            )
            during = session.execute(sql).rows
            after = session.execute(sql).rows
        assert not pending
        assert during == before == [(1212, 7272), (1212, 7275)]
        assert bag(after) == bag(before + [(1212, -5)])
        assert bag(after) == bag(db.reference(sql).rows)


# ----------------------------------------------------------------------
# Snapshot reuse
# ----------------------------------------------------------------------


class TestSnapshotReuse:
    def constructed(self, monkeypatch):
        built = []
        real = TableSnapshot.__init__

        def recording(self, *args, **kwargs):
            real(self, *args, **kwargs)
            built.append(self.name)

        monkeypatch.setattr(TableSnapshot, "__init__", recording)
        return built

    def test_unchanged_database_keeps_its_snapshot(self, db, monkeypatch):
        first = db.catalog.capture_snapshot()
        built = self.constructed(monkeypatch)
        assert db.catalog.capture_snapshot() is first
        assert built == []

    def test_insert_rebuilds_that_table_only(self, db, monkeypatch):
        first = db.catalog.capture_snapshot()
        built = self.constructed(monkeypatch)
        db.insert("emp", [(1000, 1, 1.0, 30)])
        second = db.catalog.capture_snapshot()
        assert built == ["emp"]
        assert second is not first and second.epoch > first.epoch
        assert second.table("emp").row_count == first.table("emp").row_count + 1
        for name in ("dept", "orders"):
            assert second.table(name) is first.table(name)
        # an append straight into storage publishes too
        db.catalog.table("dept").insert_many([(7, 1.0, 1)])
        third = db.catalog.capture_snapshot()
        assert built == ["emp", "dept"]
        assert third.table("emp") is second.table("emp")
        assert third.table("dept").row_count == 8

    def test_index_ddl_and_rewrites_rebuild_the_table(self, db, monkeypatch):
        db.catalog.capture_snapshot()
        built = self.constructed(monkeypatch)
        db.create_index("emp_age", "emp", ["age"])
        assert "emp_age" in db.catalog.capture_snapshot().table("emp").indexes
        db.catalog.rebuild_indexes("emp")
        db.catalog.capture_snapshot()
        db.catalog.drop_index("emp_age")
        assert "emp_age" not in db.catalog.capture_snapshot().table("emp").indexes
        db.catalog.table("dept").replace_rows([(1, 2.0, 3)])
        assert db.catalog.capture_snapshot().table("dept").row_count == 1
        assert built == ["emp", "emp", "emp", "dept"]

    def test_analyze_moves_the_epoch_not_the_tables(self, db, monkeypatch):
        first = db.catalog.capture_snapshot()
        built = self.constructed(monkeypatch)
        db.analyze()
        second = db.catalog.capture_snapshot()
        assert second is not first and second.epoch == db.catalog.change_epoch
        assert built == []
        assert all(second.table(n) is first.table(n) for n in first.tables)


class TestIndexShapeAndProbe:
    def test_shape_is_published_with_the_entries(self, db, monkeypatch):
        index = db.catalog.info("orders").indexes["orders_key"]
        keys, _ = index.snapshot_data()
        leaf_pages = math.ceil(len(keys) / index.entries_per_page)
        height = index.height
        assert height == max(1, math.ceil(math.log(leaf_pages + 1, 16)) + 1)
        monkeypatch.setattr(math, "log", None)  # reading the shape computes nothing
        assert index.height == height
        monkeypatch.undo()
        db.insert("orders", [(k, 0, 0) for k in range(9000, 9000 + 40 * leaf_pages * index.entries_per_page)])
        keys, _ = index.snapshot_data()
        assert len(keys) > leaf_pages * index.entries_per_page
        assert index.height > height

    def test_a_probe_returns_the_one_list_the_index_sliced(self, db, monkeypatch):
        table = db.catalog.capture_snapshot().table("orders")
        index = table.index("orders_key")
        sliced = []
        real = index.lookup_rids
        monkeypatch.setattr(
            type(index),
            "lookup_rids",
            lambda self, io, key: sliced.append(real(io, key)) or sliced[-1],
        )
        rids = table.index_lookup_rids(IOCounter(), index, (7,))
        assert rids == [14, 15] and rids is sliced[0]
        assert rids is not index.rids
        # a rid the table snapshot cannot see is still filtered out
        db.insert("orders", [(7, 0, 0)])
        newer = db.catalog.capture_snapshot().table("orders").index("orders_key")
        assert table.index_lookup_rids(IOCounter(), newer, (7,)) == [14, 15]


# ----------------------------------------------------------------------
# $n at run time
# ----------------------------------------------------------------------

PARAMETERIZED = {
    # name: (sql with {} placeholders, value vectors); the two subquery
    # shapes decorrelate into views, a ``$n`` in a view's WHERE
    "scan filter": (
        "select e.eno from emp e where e.age < {}",
        [(30,), (60,)],
    ),
    "index probe key": (POINT_SQL, [(7,), (2499,), (99999,)]),
    "join residual": (
        "select e.eno, d.dno from emp e, dept d "
        "where e.dno = d.dno and e.sal * {} > d.budget",
        [(10,), (40,)],
    ),
    "having": (
        "select e.dno, sum(e.sal) as s from emp e group by e.dno "
        "having sum(e.sal) > {}",
        [(1_300_000,), (1_450_000,)],
    ),
    "uncorrelated scalar filter": (  # a view grouped on nothing
        "select e.eno from emp e where e.sal > "
        "(select avg(e2.sal) from emp e2 where e2.age < {})",
        [(25,), (60,)],
    ),
    "two-relation in outer and inner filter": (  # a semi join to a view
        "select e.eno from emp e where e.dno + {} in "
        "(select d.dno from dept d, emp e2 "
        "where d.dno = e2.dno and d.loc = {})",
        [(0, 1), (3, 2)],
    ),
}


def execute_text(values):
    return "EXECUTE p(" + ", ".join(
        "NULL" if value is None else repr(value) for value in values
    ) + ")"


class TestParametersAtRunTime:
    @pytest.mark.parametrize("shape", sorted(PARAMETERIZED))
    def test_every_position_agrees_with_bound_plan_and_reference(
        self, db, shape
    ):
        """Each value vector three ways: read at run time from the
        context, substituted into a copy of the plan as literals
        (``bind_parameters``), and the reference evaluator's answer to
        the literal text."""
        sql, vectors = PARAMETERIZED[shape]
        arity = sql.count("{}")
        prepare = "PREPARE p AS " + sql.format(
            *(f"${n}" for n in range(1, arity + 1))
        )
        with db.session() as session:
            session.execute(prepare)
            plan = session.prepared["p"].optimization.plan
            answers = []
            # each vector twice, interleaved: nothing leaks between runs
            for values in vectors + vectors[::-1]:
                got = session.execute(execute_text(values))
                assert got.query_result.plan is plan
                assert got.query_result.parameters == values
                bound = bind_parameters(
                    plan, {n: Literal(v) for n, v in enumerate(values, 1)}
                )
                context = ExecutionContext(db.catalog, IOCounter(), db.params)
                assert bag(got.rows) == bag(execute_plan(bound, context).rows)
                assert bag(got.rows) == bag(
                    db.reference(sql.format(*values)).rows
                )
                answers.append(bag(got.rows))
            assert answers == answers[::-1]
            assert len({repr(rows) for rows in answers}) == len(vectors)
            # NULL compares as UNKNOWN wherever it lands
            nulls = (None,) * arity
            assert session.execute(execute_text(nulls)).rows == []
            assert session.prepared["p"].replans == 0

    @pytest.mark.parametrize(
        "sql",
        [POINT_SQL, "select e.eno from emp e where e.dno = {}"],
        ids=["index probe key", "scan filter"],
    )
    def test_a_value_of_a_type_that_equals_nothing(self, db, sql):
        with db.session() as session:
            session.execute("PREPARE p AS " + sql.format("$1"))
            assert session.execute("EXECUTE p('x')").rows == []
            assert bag(session.execute("EXECUTE p(3)").rows) == bag(
                db.reference(sql.format(3)).rows
            )
            assert session.execute("EXECUTE p('x')").rows == []

    @pytest.mark.parametrize(
        "sql, place",
        [
            (
                "select e.eno from emp e where e.sal > "
                "(select avg(e2.sal + $1) from emp e2)",
                "scalar subquery's aggregate argument",
            ),
            (
                "select e.eno from emp e where e.sal > (select "
                "avg(e2.sal + $1) from emp e2 where e2.dno = e.dno)",
                "scalar subquery's aggregate argument",
            ),
            (
                "with v(d, s) as (select e2.dno, sum(e2.sal + $1) "
                "from emp e2 group by e2.dno) "
                "select e.eno from emp e, v where e.dno = v.d",
                "aggregate argument of view 'v'",
            ),
        ],
        ids=["uncorrelated scalar", "correlated scalar", "view"],
    )
    def test_a_parameter_outside_a_predicate_is_a_bind_error(
        self, db, sql, place
    ):
        """Parameters appear only in predicates: one in an aggregate
        argument would leave the plan's schema untyped until EXECUTE."""
        with db.session() as session:
            with pytest.raises(BindError, match=place):
                session.execute("PREPARE p AS " + sql)

    def test_unbound_parameters_are_a_typed_error_everywhere(self, db):
        for shape in sorted(PARAMETERIZED):
            sql, _ = PARAMETERIZED[shape]
            arity = sql.count("{}")
            with db.session() as session:
                session.execute(
                    "PREPARE p AS "
                    + sql.format(*(f"${n}" for n in range(1, arity + 1)))
                )
                plan = session.prepared["p"].optimization.plan
                with pytest.raises(PlanError, match="expects"):
                    session.execute("EXECUTE p")
            context = ExecutionContext(db.catalog, IOCounter(), db.params)
            with pytest.raises(PlanError, match=r"\$\d is unbound"):
                execute_plan(plan, context)
            with pytest.raises(PlanError, match=r"missing values.*\$1"):
                bind_parameters(plan, {})
            extra = {n: Literal(0) for n in range(1, arity + 2)}
            with pytest.raises(PlanError, match=r"unknown parameter \$"):
                bind_parameters(plan, extra)

    def test_parameter_free_programs_are_shared_parameterized_rearmed(self):
        schema = RowSchema([Field("t", "a", DataType.INT)])
        shared = kernels.SelectionProgram(
            [Comparison("<", ColumnRef("t", "a"), Literal(3))], schema
        )
        context = SimpleNamespace(kernels_compiled=0, parameters=(3,))
        assert shared.arm(context) is shared
        assert context.kernels_compiled == 0
        template = kernels.SelectionProgram(
            [Comparison("<", ColumnRef("t", "a"), Parameter(1))], schema
        )
        columns = [[1, 2, 3, 4, None]]
        with pytest.raises(PlanError, match="arm"):
            template.run(columns, 5)
        armed = template.arm(context)
        assert armed is not template and context.kernels_compiled == 1
        assert armed.run(columns, 5) == shared.run(columns, 5) == [0, 1]
        other = template.arm(SimpleNamespace(kernels_compiled=0, parameters=(None,)))
        assert other.run(columns, 5) == []  # NULL-guarded, like a column
        assert armed.run(columns, 5) == [0, 1]
        compute = kernels.ComputeProgram(
            [Arith("+", ColumnRef("t", "a"), Parameter(1))], schema
        )
        assert compute.arm(context).run(columns, 5) == [[4, 5, 6, 7, None]]
