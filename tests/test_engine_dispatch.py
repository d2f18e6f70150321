"""One production engine, one baseline: what a plan node must be
threaded through, and which executor names exist.

A new ``PlanNode`` subclass has exactly two places to land — the
columnar executor's builder table and ``rowexec._dispatch`` — and a
node that reached neither fails with a typed error. The executor name
(``engine=``) is validated from one list at every entry point that
takes it.
"""

import dataclasses

import pytest

from repro.algebra.plan import PlanNode
from repro.engine import ExecutionContext, execute_plan, execute_plan_rows
from repro.engine import executor, rowexec
from repro.errors import ExecutionError, ReproError
from repro.server.session import Session


def concrete_plan_nodes():
    found, pending = [], [PlanNode]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return found


def test_every_plan_node_runs_on_both_executors(monkeypatch):
    nodes = concrete_plan_nodes()
    assert len(nodes) >= 9

    columnar = tuple(executor._COLUMN_BUILDERS) + executor._FUSABLE
    for cls in nodes:
        assert issubclass(cls, columnar), cls.__name__

    # rowexec dispatches by isinstance chain: stub every operator body
    # and check each node class reaches one instead of the error tail.
    reached = object()
    for name in dir(rowexec):
        if name.startswith("_execute_"):
            monkeypatch.setattr(rowexec, name, lambda *args: reached)
    for cls in nodes:
        assert rowexec._dispatch(object.__new__(cls), None) is reached, (
            cls.__name__
        )


def test_unknown_plan_node_is_a_typed_error(emp_dept_db):
    class UnknownNode(PlanNode):
        pass

    db = emp_dept_db
    for run in (execute_plan, execute_plan_rows):
        context = ExecutionContext(db.catalog, db.io, db.params)
        with pytest.raises(ExecutionError, match="UnknownNode"):
            run(UnknownNode(), context)


def test_execution_context_has_no_engine_field():
    names = {field.name for field in dataclasses.fields(ExecutionContext)}
    assert "engine" not in names


@pytest.mark.parametrize("name", ["colunmar", "columnar", ""])
def test_unknown_engine_name_is_rejected_everywhere(emp_dept_db, name):
    db = emp_dept_db
    sql = "select e.eno from emp e"
    messages = []
    for attempt in (
        lambda: Session(db, engine=name),
        lambda: db.session(engine=name),
        lambda: db.query(sql, engine=name),
        lambda: db.query(sql, engine=name, execute=False),
        lambda: db.execute(sql, engine=name),
    ):
        with pytest.raises(ReproError) as raised:
            attempt()
        messages.append(str(raised.value))
    assert len(set(messages)) == 1
    assert repr(name) in messages[0]
    for known in executor.ENGINES:
        assert repr(known) in messages[0]
    # a rejected Session never registered itself
    assert db.sessions_opened == 0


@pytest.mark.parametrize("name", executor.ENGINES)
def test_known_engine_names_run(emp_dept_db, name):
    db = emp_dept_db
    sql = "select e.eno from emp e where e.eno < 3"
    expected = db.query(sql).rows
    assert db.query(sql, engine=name).rows == expected
    with db.session(engine=name) as session:
        assert session.execute(sql).rows == expected
