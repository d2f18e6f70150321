"""Plan cloning and parameter substitution — off the serving path.

The columnar engine runs one cached plan from any number of concurrent
executions without copying it: everything a run records lives in its
``ExecutionMetrics``, never on a plan node, and ``$n`` values travel in
``ExecutionContext.parameters``. What is left here is what still wants
a rewritten tree. Each is one walk over the plan-node protocol
(:class:`~repro.algebra.plan.PlanNode`), with no per-kind arm.
Cloning rebuilds every node through :meth:`~PlanNode.replace` (schemas
recompute, which doubles as a consistency check) and shares the
immutable parts: bound expressions, cost-annotator ``props``, field
tuples; the exact-IO oracle re-annotates such a copy, leaving a cached
plan's estimates alone. Parameter binding is the same walk through
:meth:`~PlanNode.map_expressions`: every ``$n`` placeholder in an
expression or an index probe key becomes its literal value, producing a
fully concrete plan. :func:`plan_parameters` tells a session which
``$n`` a plan holds.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from ..algebra.expressions import (
    Expression,
    Literal,
    collect_parameters,
    replace_parameters,
)
from ..algebra.plan import PlanNode, plan_nodes
from ..errors import PlanError


def plan_parameters(plan: PlanNode) -> FrozenSet[int]:
    """Every ``$n`` index appearing in the plan's expressions and index
    probe keys."""
    found = set()
    for node in plan_nodes(plan):
        for expression, _ in node.expressions():
            found |= collect_parameters(expression)
    return frozenset(found)


def clone_plan(
    plan: PlanNode,
    substitution: Optional[Dict[int, Expression]] = None,
) -> PlanNode:
    """A fresh tree sharing immutable parts with *plan*; with a
    *substitution*, ``$n`` parameters are replaced by the given
    expressions along the way."""

    def rewrite(expression: Expression) -> Expression:
        return replace_parameters(expression, substitution)

    def walk(node: PlanNode) -> PlanNode:
        inputs = {
            name: walk(child)
            for name, child in zip(node.CHILD_ARGS, node.children)
        }
        if substitution is None:
            clone = node.replace(**inputs)
        else:
            clone = node.map_expressions(rewrite, **inputs)
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
