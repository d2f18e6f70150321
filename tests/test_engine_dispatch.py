"""One engine: what a plan node must be threaded through, and no
switch to select another.

A new ``PlanNode`` subclass has one place to land in the engine — the
executor's dispatch (its builder table, or the fused filter / project /
rename chain) — and a node that reached neither fails with a typed
error; beside it, ``algebra.legality.CHECKS`` must cover the kind too.
No entry point takes an executor name.
"""

import dataclasses

import pytest

from repro.algebra import legality
from repro.algebra.plan import PlanNode
from repro.engine import ExecutionContext, execute_plan, executor
from repro.errors import ExecutionError
from repro.server.session import Session


def concrete_plan_nodes():
    found, pending = [], [PlanNode]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return found


def test_every_plan_node_has_an_executor():
    """... and a legality check: the two per-kind tables cover the same
    node kinds, so neither can drift from the other."""
    nodes = concrete_plan_nodes()
    assert len(nodes) >= 8
    dispatched = tuple(executor._COLUMN_BUILDERS) + executor._FUSABLE
    for cls in nodes:
        assert issubclass(cls, dispatched), cls.__name__
        assert cls in legality.CHECKS, cls.__name__


def test_unknown_plan_node_is_a_typed_error(emp_dept_db):
    class UnknownNode(PlanNode):
        pass

    db = emp_dept_db
    context = ExecutionContext(db.catalog, db.io, db.params)
    with pytest.raises(ExecutionError, match="UnknownNode"):
        execute_plan(UnknownNode(), context)


def test_execution_context_has_no_engine_field():
    names = {field.name for field in dataclasses.fields(ExecutionContext)}
    assert "engine" not in names


@pytest.mark.parametrize(
    "name", ["colunmar", "columnar", "", "batch", "rowexec"]
)
def test_unknown_engine_name_is_rejected_everywhere(emp_dept_db, name):
    """There is no executor to choose: any ``engine=`` is an unexpected
    keyword at every entry point that once took one."""
    db = emp_dept_db
    sql = "select e.eno from emp e"
    for attempt in (
        lambda: Session(db, engine=name),
        lambda: db.session(engine=name),
        lambda: db.query(sql, engine=name),
        lambda: db.query(sql, engine=name, execute=False),
        lambda: db.execute(sql, engine=name),
    ):
        with pytest.raises(TypeError, match="engine"):
            attempt()
    # a rejected Session never registered itself
    assert db.sessions_opened == 0
