"""One engine and one plan-node protocol: what a plan node must be
threaded through, and no switch to select another executor.

A new ``PlanNode`` subclass joins exactly three per-kind tables, each
looked up by exact type: its cost formula (``cost.model.COST_FORMULAS``),
its executor builder (``engine.executor._COLUMN_BUILDERS``, or the fused
filter / project / rename chain, ``_FUSABLE``) and its live-set rule
(``optimizer.pruning.LIVE_SET_RULES``). Everything else — cloning,
parameter binding, legality checking, pruning's rebuild — is one walk
over the protocol (``ARGS``, ``replace``, ``expressions``,
``map_expressions``), and an AST check keeps per-kind ``isinstance``
ladders from growing back: over plan-node kinds, and over expression
kinds, where only the semantic dispatchers may branch. A node kind no
table knows is a typed error. No entry point takes an executor name.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.algebra.expressions import Expression
from repro.algebra.legality import check_plan
from repro.algebra.plan import PlanNode, explain, plan_nodes
from repro.catalog.schema import RowSchema
from repro.cost.model import COST_FORMULAS, CostModel
from repro.engine import ExecutionContext, execute_plan, executor
from repro.errors import ExecutionError, PlanError
from repro.optimizer.pruning import LIVE_SET_RULES, prune_plan
from repro.server.planrewrite import clone_plan
from repro.sql import unparse  # noqa: F401 - defines an expression kind
from repro.server.session import Session

from .dp_support import e2e_statements, run_examples

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def concrete_plan_nodes():
    found, pending = [], [PlanNode]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return found


class UnknownNode(PlanNode):
    schema = RowSchema(())


def test_every_plan_node_has_an_executor():
    """... and a cost formula and a live-set rule: the three per-kind
    tables cover exactly the concrete node kinds, so none can drift
    from the others. Each kind's ``ARGS`` names its constructor's
    arguments, every required one included."""
    nodes = set(concrete_plan_nodes())
    assert len(nodes) >= 8
    builders = set(executor._COLUMN_BUILDERS)
    fused = set(executor._FUSABLE)
    assert not builders & fused
    assert builders | fused == nodes
    assert set(COST_FORMULAS) == nodes
    assert set(LIVE_SET_RULES) == nodes
    for cls in nodes:
        parameters = inspect.signature(cls).parameters
        assert set(cls.ARGS) <= set(parameters), cls.__name__
        required = {
            name
            for name, parameter in parameters.items()
            if parameter.default is inspect.Parameter.empty
        }
        assert required <= set(cls.ARGS), cls.__name__


def test_unknown_plan_node_is_a_typed_error(emp_dept_db):
    db = emp_dept_db
    context = ExecutionContext(db.catalog, db.io, db.params)
    with pytest.raises(ExecutionError, match="UnknownNode"):
        execute_plan(UnknownNode(), context)
    with pytest.raises(PlanError, match="UnknownNode"):
        CostModel(db.catalog, db.params).annotate(UnknownNode())


def test_pruning_an_unknown_plan_node_is_a_typed_error():
    with pytest.raises(PlanError, match="UnknownNode"):
        prune_plan(UnknownNode())


def _check_protocol(label, plan, catalog):
    assert explain(clone_plan(plan)) == explain(plan), label
    check_plan(plan, catalog)
    for node in plan_nodes(plan):
        same = node.replace()
        assert type(same) is type(node), label
        assert same.describe() == node.describe(), label
        assert same.schema == node.schema, label


@pytest.mark.parametrize("corpus", ["e2e", "examples"])
def test_protocol_holds_on_every_pinned_plan(corpus):
    """Over the plans ``tests/golden/plans_pr15.txt`` pins: a clone
    explains the same, the plan is legal, and ``replace()`` with no
    changes rebuilds every node as it was."""
    checked = []
    if corpus == "e2e":
        for label, db, sql in e2e_statements():
            _check_protocol(label, db.optimize(sql).plan, db.catalog)
            checked.append(label)
    else:
        # checked as each plan is optimized, before the example goes on
        # to change its database
        def check(label, result, db):
            _check_protocol(label, result.plan, db.catalog)
            checked.append(label)

        run_examples(check)
    assert len(checked) >= 13


# ----------------------------------------------------------------------
# No per-kind ladders in src/repro
# ----------------------------------------------------------------------

LADDERS_ALLOWED = {
    # Traces one join key from a hash join's probe side down to the
    # scan it filters: the kinds it names are the steps a key may pass
    # through on that path, not a per-kind concern of the protocol.
    "_key_filter_path",
}

# The expression kinds' semantic dispatchers: what each kind means to
# the kernel emitter (value / truth / untruth), the unparser, the
# selectivity estimate and the binder's resolution and subquery
# lowering. Structural walks (children, parameters, literal lifting,
# the binder's subquery / aggregate walks) go through the expression
# protocol and may not branch on kinds.
EXPRESSION_LADDERS_ALLOWED = {
    "value",
    "truth",
    "untruth",
    "expression_to_sql",
    "selectivity",
    "_resolve",
    "_lower_predicate",
}


def _kinds_tested(test, kinds):
    """The *kinds* *test* checks with ``isinstance`` or a ``type(x)
    is`` comparison."""
    found = set()
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            classes = node.args[1]
        elif isinstance(node, ast.Compare) and isinstance(
            node.left, ast.Call
        ) and getattr(node.left.func, "id", None) == "type":
            classes = ast.Tuple(elts=node.comparators)
        else:
            continue
        found |= {
            name.id
            for name in ast.walk(classes)
            if isinstance(name, ast.Name) and name.id in kinds
        }
    return found


def _chains(body):
    """Each run of consecutive ``if`` statements in *body*, with their
    ``elif`` arms, as the list of tests it makes."""
    run = []
    for statement in body + [None]:
        if isinstance(statement, ast.If):
            while isinstance(statement, ast.If):
                run.append(statement.test)
                rest = statement.orelse
                statement = rest[0] if len(rest) == 1 else None
            continue
        if run:
            yield run
        run = []


def expression_kinds():
    """Every ``Expression`` subclass in ``repro``, the abstract bases
    that group kinds included (testing one is branching on kinds)."""
    found, pending = [], [Expression]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return found


def _ladders(kinds):
    """``(function, file:line, kinds)`` for every chain in src/repro
    that tests more than two of *kinds*; *function* is the innermost
    one holding the chain."""
    for path in sorted(SRC.rglob("*.py")):
        chains = {}
        functions = ast.walk(ast.parse(path.read_text(), str(path)))
        for function in functions:  # outer functions before inner ones
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                for field in ("body", "orelse", "finalbody"):
                    body = getattr(node, field, None)
                    elif_arm = (
                        isinstance(node, ast.If)
                        and field == "orelse"
                        and len(body) == 1
                        and isinstance(body[0], ast.If)
                    )
                    if not isinstance(body, list) or elif_arm:
                        continue
                    for chain in _chains(body):
                        tested = set()
                        for test in chain:
                            tested |= _kinds_tested(test, kinds)
                        if len(tested) > 2:
                            where = f"{path.relative_to(SRC)}:{chain[0].lineno}"
                            chains[where] = (function.name, sorted(tested))
        for where, (name, tested) in chains.items():
            yield name, where, tested


def test_no_plan_node_ladders():
    """A function that branches on more than two plan-node kinds is a
    per-kind table written as code: add the kind's entry to one of the
    three tables, or walk the protocol, instead."""
    kinds = {cls.__name__ for cls in concrete_plan_nodes()}
    found = {
        (name, where, tuple(tested))
        for name, where, tested in _ladders(kinds)
    }
    assert {name for name, _, _ in found} >= LADDERS_ALLOWED
    ladders = sorted(entry for entry in found if entry[0] not in LADDERS_ALLOWED)
    assert not ladders, f"isinstance ladders over plan-node kinds: {ladders}"


def test_no_structural_expression_ladders():
    """Only the semantic dispatchers branch on more than two expression
    kinds, one chain each; a structural walk uses the protocol
    (``children``, ``map_children``) instead."""
    kinds = {cls.__name__ for cls in expression_kinds()}
    assert len(kinds) >= 16
    found = [
        (name, where, tuple(tested))
        for name, where, tested in _ladders(kinds)
    ]
    names = [name for name, _, _ in found]
    assert sorted(names) == sorted(EXPRESSION_LADDERS_ALLOWED), found


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
