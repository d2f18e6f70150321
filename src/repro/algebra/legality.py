"""Legality checks for operator trees.

The paper relies on the notion of a *legal operator tree* — one that
"corresponds to a syntactically correct algebraic expression" (Section
2). The pull-up definition is stated between legal trees, and its output
must again be legal. This module is the executable version of that
notion: :func:`check_plan` walks a plan and verifies every column
reference resolves where it is used.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..catalog.catalog import Catalog
from ..catalog.schema import RID_COLUMN
from ..errors import PlanError
from .expressions import Expression
from .plan import (
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


def check_plan(plan: PlanNode, catalog: Optional[Catalog] = None) -> None:
    """Raise :class:`PlanError` if *plan* is not a legal operator tree.

    With a catalog, scans are also checked against stored tables
    (existence, column membership, index validity).
    """
    check = CHECKS.get(type(plan))
    if check is None:
        raise PlanError(f"unknown plan node type {type(plan).__name__}")
    check(plan, catalog)
    for child in plan.children:
        check_plan(child, catalog)


def _check_expression_against(
    expression: Expression, schema, context: str
) -> None:
    for alias, name in expression.columns():
        if not schema.has(alias, name):
            raise PlanError(
                f"{context}: column {alias}.{name} is not available "
                f"(schema: {schema})"
            )


def _check_scan(plan: ScanNode, catalog: Optional[Catalog]) -> None:
    for field in plan.schema:
        if field.alias != plan.alias:
            raise PlanError(
                f"scan of alias {plan.alias!r} outputs foreign field "
                f"{field.display()}"
            )
    if catalog is None:
        return
    table = catalog.table(plan.table_name)
    column_names = {column.name for column in table.columns}
    for field in plan.schema:
        if field.name != RID_COLUMN and field.name not in column_names:
            raise PlanError(
                f"scan projects unknown column {field.name!r} of table "
                f"{plan.table_name!r}"
            )
    for predicate in plan.filters:
        for alias, name in predicate.columns():
            if alias not in (None, plan.alias) or (
                name != RID_COLUMN and name not in column_names
            ):
                raise PlanError(
                    f"scan filter {predicate.display()} references a column "
                    f"outside table {plan.table_name!r}"
                )
    if plan.index_name is not None:
        info = catalog.info(plan.table_name)
        if plan.index_name not in info.indexes:
            raise PlanError(
                f"scan uses unknown index {plan.index_name!r} on "
                f"{plan.table_name!r}"
            )


def _check_join(plan: JoinNode, catalog: Optional[Catalog]) -> None:
    left_schema = plan.left.schema
    right_schema = plan.right.schema
    for left_key, right_key in plan.equi_keys:
        if not left_schema.has(*left_key):
            raise PlanError(
                f"join key {left_key} not produced by the left input"
            )
        if not right_schema.has(*right_key):
            raise PlanError(
                f"join key {right_key} not produced by the right input"
            )
    combined = left_schema.concat(right_schema)
    for predicate in plan.residuals:
        _check_expression_against(predicate, combined, "join residual")


def _check_group_by(plan: GroupByNode, catalog: Optional[Catalog]) -> None:
    child_schema = plan.child.schema
    for key in plan.group_keys:
        if not child_schema.has(*key):
            raise PlanError(f"grouping column {key} not in the input")
    for name, call in plan.aggregates:
        if call.arg is not None:
            _check_expression_against(
                call.arg, child_schema, f"aggregate {name}"
            )
    for predicate in plan.having:
        _check_expression_against(
            predicate, plan.internal_schema, "HAVING predicate"
        )


def _check_project(plan: ProjectNode, catalog: Optional[Catalog]) -> None:
    for _, _, expression in plan.outputs:
        _check_expression_against(
            expression, plan.child.schema, "projection output"
        )


def _check_filter(plan: FilterNode, catalog: Optional[Catalog]) -> None:
    for predicate in plan.predicates:
        _check_expression_against(
            predicate, plan.child.schema, "filter predicate"
        )


def _constructed(plan: PlanNode, catalog: Optional[Catalog]) -> None:
    """Fully validated at construction."""


CHECKS: Dict[type, Callable[[Any, Optional[Catalog]], None]] = {
    ScanNode: _check_scan,
    JoinNode: _check_join,
    GroupByNode: _check_group_by,
    ProjectNode: _check_project,
    FilterNode: _check_filter,
    SortNode: _constructed,
    RenameNode: _constructed,
    LimitNode: _constructed,
}
"""Each plan node kind's check of its own expressions and keys."""
