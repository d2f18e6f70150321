"""Plan cloning and parameter substitution — off the serving path.

The columnar engine runs one cached plan from any number of concurrent
executions without copying it: everything a run records lives in its
``ExecutionMetrics``, never on a plan node, and ``$n`` values travel in
``ExecutionContext.parameters``. What is left here is what still wants
a rewritten tree. Cloning rebuilds nodes through their constructors
(schemas recompute, which doubles as a consistency check) and shares the
immutable parts: bound expressions, cost-annotator ``props``, field
tuples; the exact-IO oracle re-annotates such a copy, leaving a cached
plan's estimates alone. Parameter binding is the same walk with a
substitution applied to every predicate expression and every index probe
key: ``$n`` placeholders become literal values, producing a fully
concrete plan. :func:`plan_parameters` tells a session which ``$n`` a
plan holds.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from ..algebra.expressions import (
    Expression,
    Literal,
    Parameter,
    collect_parameters,
    replace_parameters,
)
from ..algebra.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    SortNode,
)
from ..errors import PlanError


def plan_parameters(plan: PlanNode) -> FrozenSet[int]:
    """Every ``$n`` index appearing in the plan's predicates and index
    probe keys."""
    found = set()
    for expression in _plan_expressions(plan):
        found |= collect_parameters(expression)
    return frozenset(found)


def _plan_expressions(plan: PlanNode):
    if isinstance(plan, ScanNode):
        yield from plan.filters
        for value in plan.index_values:
            if isinstance(value, Parameter):
                yield value
    elif isinstance(plan, JoinNode):
        yield from plan.residuals
    elif isinstance(plan, GroupByNode):
        yield from plan.having
    elif isinstance(plan, FilterNode):
        yield from plan.predicates
    elif isinstance(plan, ProjectNode):
        for _, _, expression in plan.outputs:
            yield expression
    for child in plan.children:
        yield from _plan_expressions(child)


def clone_plan(
    plan: PlanNode,
    substitution: Optional[Dict[int, Expression]] = None,
) -> PlanNode:
    """A fresh tree sharing immutable parts with *plan*; with a
    *substitution*, ``$n`` parameters in predicates are replaced by the
    given expressions along the way."""

    def rewrite(expression: Expression) -> Expression:
        if substitution is None:
            return expression
        return replace_parameters(expression, substitution)

    def probe_value(value):
        """An index probe key holds plain values, so a ``$n`` there is
        replaced by the bound literal's value."""
        if substitution is None or not isinstance(value, Parameter):
            return value
        bound = rewrite(value)
        if not isinstance(bound, Literal):
            raise PlanError(
                f"index probe parameter {value.display()} needs a "
                f"literal value, got {bound.display()}"
            )
        return bound.value

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, ScanNode):
            clone: PlanNode = ScanNode(
                node.table_name,
                node.alias,
                list(node.schema),
                filters=[rewrite(f) for f in node.filters],
                include_rid=node.include_rid,
                index_name=node.index_name,
                index_values=tuple(
                    probe_value(value) for value in node.index_values
                ),
            )
        elif isinstance(node, JoinNode):
            clone = JoinNode(
                walk(node.left),
                walk(node.right),
                node.method,
                equi_keys=node.equi_keys,
                residuals=[rewrite(r) for r in node.residuals],
                projection=node.projection,
                index_name=node.index_name,
                kind=node.kind,
                null_aware=node.null_aware,
            )
        elif isinstance(node, GroupByNode):
            clone = GroupByNode(
                walk(node.child),
                node.group_keys,
                node.aggregates,
                having=[rewrite(h) for h in node.having],
                method=node.method,
                projection=node.projection,
                eager=node.eager,
            )
        elif isinstance(node, FilterNode):
            clone = FilterNode(
                walk(node.child),
                [rewrite(p) for p in node.predicates],
            )
        elif isinstance(node, ProjectNode):
            clone = ProjectNode(
                walk(node.child),
                [
                    (alias, name, rewrite(expression))
                    for alias, name, expression in node.outputs
                ],
            )
        elif isinstance(node, SortNode):
            clone = SortNode(
                walk(node.child), node.keys, descending=node.descending
            )
        elif isinstance(node, LimitNode):
            clone = LimitNode(walk(node.child), node.count)
        elif isinstance(node, RenameNode):
            clone = RenameNode(walk(node.child), node.mapping)
        else:
            raise PlanError(
                f"cannot clone plan node type {type(node).__name__}"
            )
        clone.props = node.props
        return clone

    return walk(plan)


def bind_parameters(
    plan: PlanNode,
    values: Dict[int, Literal],
    parameters: Optional[Iterable[int]] = None,
) -> PlanNode:
    """A clone of *plan* with every ``$n`` replaced by ``values[n]``.

    Raises :class:`PlanError` when a placeholder has no value or a value
    has no placeholder (arity mismatches surface at EXECUTE, like a real
    server's protocol error). *parameters* is ``plan_parameters(plan)``
    for a caller that already holds it; the plan is walked for it
    otherwise."""
    wanted = (
        plan_parameters(plan) if parameters is None else frozenset(parameters)
    )
    missing = sorted(wanted - set(values))
    extra = sorted(set(values) - wanted)
    if missing:
        raise PlanError(
            "EXECUTE is missing values for parameter"
            + ("s " if len(missing) > 1 else " ")
            + ", ".join(f"${i}" for i in missing)
        )
    if extra:
        raise PlanError(
            "EXECUTE passes values for unknown parameter"
            + ("s " if len(extra) > 1 else " ")
            + ", ".join(f"${i}" for i in extra)
        )
    return clone_plan(plan, substitution=dict(values))
