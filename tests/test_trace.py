"""One clock per statement (``repro.trace``).

Every ``SessionResult`` carries the trace its statement ran in: self
seconds per layer, summing to the statement's wall clock. A layer
appears only if this statement entered it, so a plan-cache hit carries
no search and ``EXPLAIN`` without ANALYZE no execution. A statement
that raises leaves no trace open; two threads never share one. The
layer names are the end-to-end harness's (``benchmarks/e2e/tracing.py``
``HOOKS``), and a harness run over the same statements finds the same
layers. Nothing under ``src/repro`` reads a clock but the trace, the
operator meter and the fuzz loop's time budget.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import trace as trace_module
from repro.algebra.expressions import Literal
from repro.cli import Shell, make_demo_database
from repro.errors import BindError, PlanError, SqlSyntaxError
from repro.trace import Trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

SQL = (
    "select e.dno, avg(e.sal) from emp e, dept d "
    "where e.dno = d.dno group by e.dno"
)
PLANNING = (
    "sql.lex",
    "sql.parse",
    "sql.bind",
    "server.signature",
    "transforms.decorrelate",
    "optimizer.search",
    "optimizer.prune",
)


def open_layers(trace):
    """How many layers *trace* opened and did not close."""
    return sum(1 if layer else -1 for layer, _ in trace)


def assert_whole(trace):
    """Self times are non-negative, sum to the total, and no layer is
    left open."""
    assert trace is not None
    assert open_layers(trace) == 0
    assert all(seconds >= 0.0 for seconds in trace.layers.values())
    assert trace.total > 0.0
    assert math.isclose(
        sum(trace.layers.values()), trace.total, rel_tol=1e-9, abs_tol=1e-12
    )


def current():
    return trace_module._current.get()


def prefixed(trace, *prefixes):
    return sorted(
        layer for layer in trace.layers if layer.startswith(prefixes)
    )


@pytest.fixture
def session(emp_dept_db):
    with emp_dept_db.session() as session:
        yield session


@pytest.fixture
def opened(monkeypatch):
    """Every trace a statement opens from here on, in order."""
    traces = []

    class Recording(Trace):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            traces.append(self)

    monkeypatch.setattr(trace_module, "Trace", Recording)
    return traces


# ----------------------------------------------------------------------
# Every statement kind carries its own trace
# ----------------------------------------------------------------------


def test_every_statement_kind_carries_a_whole_trace(session):
    script = [
        ("query", SQL),
        ("query", SQL.replace("e.dno, avg", "e.dno,  avg")),  # signature hit
        ("query", SQL),  # text-front hit
        ("ddl", "create table kv (k int, v text)"),
        ("ddl", "insert into kv values (1, 'a'), (2, 'b')"),
        (
            "ddl",
            "create materialized view mv as "
            "select e.dno, sum(e.sal) as s from emp e group by e.dno",
        ),
        ("ddl", "insert into emp values (9001, 1, 50000.0, 30)"),
        ("ddl", "refresh materialized view mv"),
        ("ddl", "analyze kv"),
        ("prepare", "prepare p as select e.sal from emp e where e.eno = $1"),
        ("execute", "execute p(3)"),
        ("explain", "explain " + SQL.replace("avg", "sum")),
        ("explain", "explain analyze " + SQL),
        ("deallocate", "deallocate p"),
    ]
    traces = []
    for kind, sql in script:
        result = session.execute(sql)
        assert result.kind == kind, sql
        assert_whole(result.trace)
        assert next(iter(result.trace.layers)) == "server.session"
        traces.append(result.trace)
    assert len({id(trace) for trace in traces}) == len(script)
    by_sql = dict(zip((sql for _, sql in script), traces))
    assert "storage.insert" in by_sql[script[4][1]].layers
    assert "views.refresh" in by_sql["refresh materialized view mv"].layers
    assert "stats.analyze" in by_sql["analyze kv"].layers
    assert "engine.exec" in by_sql["execute p(3)"].layers


def test_session_api_entry_points_carry_traces(session):
    prepared = session.prepare(
        "q", "select e.sal from emp e where e.eno = $1"
    )
    assert "optimizer.search" in prepared.trace.layers
    executed = session.execute_prepared("q", [Literal(3)])
    assert_whole(executed.trace)
    assert "engine.exec" in executed.trace.layers
    assert_whole(session.deallocate("q").trace)
    bound = session.db.bind("select e.sal from emp e where e.age = $1")
    assert_whole(session.prepare_bound("r", bound).trace)


def test_nested_entry_records_into_one_trace(session, opened):
    """PREPARE as a statement runs ``execute`` → ``_prepare_parsed`` →
    ``prepare_bound``: both entry points record into the one trace."""
    result = session.execute(
        "prepare p as select e.sal from emp e where e.eno = $1"
    )
    assert opened == [result.trace]
    assert_whole(result.trace)
    assert "optimizer.search" in result.trace.layers


# ----------------------------------------------------------------------
# Time is reported for the statement that spent it
# ----------------------------------------------------------------------


def test_plan_cache_hits_carry_no_planning_layers(session):
    planning = session.execute(SQL)
    assert not planning.cache_hit
    assert set(PLANNING) <= set(planning.trace.layers)

    signature_hit = session.execute(SQL.replace("avg(e.sal)", "avg( e.sal )"))
    assert signature_hit.cache_hit
    # the text is new: it is lexed, parsed and bound to find its signature
    assert {"sql.bind", "server.signature"} <= set(signature_hit.trace.layers)
    assert prefixed(signature_hit.trace, "transforms.", "optimizer.") == []

    front_hit = session.execute(SQL)
    assert front_hit.cache_hit
    assert prefixed(front_hit.trace, "sql.", "transforms.", "optimizer.") == []
    assert {"storage.snapshot", "engine.exec"} <= set(front_hit.trace.layers)


def test_explain_without_analyze_plans_but_does_not_execute(session):
    result = session.execute("explain " + SQL)
    assert "optimizer.search" in result.trace.layers
    assert "engine.exec" not in result.trace.layers
    analyzed = session.execute("explain analyze " + SQL)
    assert "engine.exec" in analyzed.trace.layers
    assert "optimizer.search" not in analyzed.trace.layers


def test_stats_prints_one_trace_line_per_statement():
    out = io.StringIO()
    shell = Shell(make_demo_database(), out=out, show_stats=True)
    shell.handle(SQL + ";")
    shell.handle(SQL + ";")
    lines = out.getvalue().splitlines()
    traces = [line for line in lines if line.startswith("trace: ")]
    assert len(traces) == 2
    first = dict(part.split("=") for part in traces[0][7:].split())
    second = dict(part.split("=") for part in traces[1][7:].split())
    assert set(PLANNING) <= set(first)
    assert "optimizer.search" not in second
    assert all(float(ms) >= 0.0 for ms in first.values())
    stats = [line for line in lines if line.startswith("stats: ")]
    assert stats and not any("time_" in line for line in stats)


# ----------------------------------------------------------------------
# Hygiene: failures, the facade, threads
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql, error",
    [
        ("select e.sal from emp e where", SqlSyntaxError),
        ("select x.a from nosuch x", BindError),
        ("select e.sal from emp e where e.eno = $1", PlanError),
    ],
)
def test_failing_statement_leaves_nothing_open(session, opened, sql, error):
    session.execute(SQL)  # planned: the next run of it is a front hit
    opened.clear()
    with pytest.raises(error):
        session.execute(sql)
    assert current() is None
    (failed,) = opened
    assert_whole(failed)
    recorded = dict(failed.layers)

    after = session.execute(SQL)
    assert after.trace is not failed
    assert open_layers(after.trace) == 0
    assert prefixed(after.trace, "sql.", "optimizer.") == []

    session.db.query(SQL.replace("avg", "max"))
    assert current() is None
    assert failed.layers == recorded
    assert len(opened) == 2


def test_facade_records_nothing_and_a_trace_opened_around_it_does(
    emp_dept_db,
):
    emp_dept_db.query(SQL)
    assert current() is None
    with Trace() as setup:
        assert current() is setup
        emp_dept_db.insert("emp", [(9002, 2, 40000.0, 40)])
        emp_dept_db.query(SQL)
    assert current() is None
    assert_whole(setup)
    assert {"storage.insert", "optimizer.search", "engine.exec"} <= (
        set(setup.layers)
    )


def test_two_sessions_on_two_threads_never_share_layers(emp_dept_db):
    emp_dept_db.execute("create table kv (k int, v int)")
    barrier = threading.Barrier(2, timeout=30)
    traces = {"reader": [], "writer": []}

    def reader():
        with emp_dept_db.session() as session:
            barrier.wait()
            for value in range(25):
                traces["reader"].append(
                    session.execute(f"{SQL} having count(*) > {value}").trace
                )

    def writer():
        with emp_dept_db.session() as session:
            barrier.wait()
            for value in range(25):
                traces["writer"].append(
                    session.execute(
                        f"insert into kv values ({value}, {value})"
                    ).trace
                )

    threads = [threading.Thread(target=run) for run in (reader, writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside layers
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(traces["reader"]) == len(traces["writer"]) == 25
    for trace in traces["reader"]:
        assert_whole(trace)
        assert "optimizer.search" in trace.layers
        assert "storage.insert" not in trace.layers
    for trace in traces["writer"]:
        assert_whole(trace)
        assert "storage.insert" in trace.layers
        assert prefixed(trace, "optimizer.", "engine.") == []
    assert current() is None


# ----------------------------------------------------------------------
# Parity with the end-to-end harness
# ----------------------------------------------------------------------


def load_harness_tracing():
    spec = importlib.util.spec_from_file_location(
        "e2e_tracing", ROOT / "benchmarks" / "e2e" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_layer_names():
    """Every ``@traced("<layer>")`` under src/repro."""
    pattern = re.compile(r'^\s*@traced\("([^"]+)"\)', re.MULTILINE)
    return {
        layer
        for path in SRC.rglob("*.py")
        for layer in pattern.findall(path.read_text())
    }


def test_traced_layers_are_the_harness_hooks():
    """The harness's ``server.clone`` targets have no caller, so nothing
    is decorated with it."""
    hooks = {layer for layer, _, _ in load_harness_tracing().HOOKS}
    assert traced_layer_names() == hooks - {"server.clone"}


HARNESS_SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("e2e_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.start(True)
from repro.cli import make_demo_database
db = make_demo_database()
db.create_materialized_view(
    "v", "select e.dno, sum(e.sal) as s from emp e group by e.dno")
ours = []
with db.session() as session:
    for sql in json.loads(sys.argv[2]):
        ours.append(sorted(session.execute(sql).trace.layers))
layers = {layer for layer, _, _ in tracing.HOOKS}
theirs = [
    sorted(name for name, value in row.items() if name in layers and value)
    for row in tracer.table()["rows"]
]
print(json.dumps({"ours": ours, "theirs": theirs, "missing": tracer.missing}))
"""

HARNESS_STATEMENTS = {
    SQL: (),
    "insert into emp values (100001, 1, 50.0, 30)": (),
    # The trace charges a refresh's execution to the executor, which
    # ``@traced("engine.exec")`` marks where it is defined; the harness
    # wraps the session's name for it and leaves it in ``views.refresh``.
    "refresh materialized view v": ("engine.exec",),
    "analyze emp": (),
    "prepare p as select e.sal from emp e where e.eno = $1": (),
    "execute p(3)": (),
}


def test_harness_measures_the_layers_the_trace_records():
    """``Tracer.install`` rebinds module names for good, so the harness
    runs in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            HARNESS_SCRIPT,
            str(ROOT / "benchmarks" / "e2e" / "tracing.py"),
            json.dumps(list(HARNESS_STATEMENTS)),
        ],
        env=env,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    found = json.loads(child.stdout)
    assert found["missing"] == []
    assert len(found["theirs"]) == len(HARNESS_STATEMENTS)
    for (sql, trace_only), ours, theirs in zip(
        HARNESS_STATEMENTS.items(), found["ours"], found["theirs"]
    ):
        assert set(ours) - set(theirs) == set(trace_only), sql
        assert set(theirs) <= set(ours), sql


# ----------------------------------------------------------------------
# One clock
# ----------------------------------------------------------------------

CLOCKS = {
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "time",
    "time_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}

CLOCK_READERS = {
    # each operator's share of ``engine.exec``, metered batch by batch
    ("engine/executor.py", "_metered"),
    # the fuzz loop's ``--duration`` budget
    ("testing/runner.py", "run_fuzz"),
}


def clock_reads(path):
    """``(function, clock)`` for every clock of the ``time`` module
    *path* refers to, by module attribute or imported name."""
    tree = ast.parse(path.read_text(), str(path))
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "time"
            }
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCKS:
                    names[alias.asname or alias.name] = alias.name
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in CLOCKS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add((function, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.add((function, names[node.id]))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_only_the_trace_reads_a_clock():
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        if where == "trace.py":
            continue
        readers |= {(where, function) for function, _ in clock_reads(path)}
    assert readers == CLOCK_READERS
    assert clock_reads(SRC / "trace.py") == {
        ("__enter__", "perf_counter"),
        ("__exit__", "perf_counter"),
        ("timed", "perf_counter"),
    }
