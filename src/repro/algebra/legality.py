"""Legality checks for operator trees.

The paper relies on the notion of a *legal operator tree* — one that
"corresponds to a syntactically correct algebraic expression" (Section
2). The pull-up definition is stated between legal trees, and its output
must again be legal. This module is the executable version of that
notion: :func:`check_plan` walks a plan and verifies every column
reference resolves where it is used. The walk is generic: every
expression a node yields (:meth:`~repro.algebra.plan.PlanNode.expressions`)
is checked against its scope. Grouping, sort and rename keys and
output projections are validated by the node constructors; what is left
per kind is a scan against the catalog and a join's equi keys, which
are field keys rather than expressions.
"""

from __future__ import annotations

from typing import Optional

from ..catalog.catalog import Catalog
from ..catalog.schema import RID_COLUMN
from ..errors import PlanError
from .plan import JoinNode, PlanNode, ScanNode, plan_nodes


def check_plan(plan: PlanNode, catalog: Optional[Catalog] = None) -> None:
    """Raise :class:`PlanError` if *plan* is not a legal operator tree.

    With a catalog, scans are also checked against stored tables
    (existence, column membership, index validity).
    """
    for node in plan_nodes(plan):
        if type(node) is ScanNode:
            _check_scan(node, catalog)
        elif type(node) is JoinNode:
            _check_join_keys(node)
        for expression, scope in node.expressions():
            if scope is None:
                continue  # a scan's own: checked against its table
            for alias, name in expression.columns():
                if not scope.has(alias, name):
                    raise PlanError(
                        f"{node.describe()}: column {alias}.{name} is not "
                        f"available (schema: {scope})"
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


def _check_join_keys(plan: JoinNode) -> None:
    for left_key, right_key in plan.equi_keys:
        if not plan.left.schema.has(*left_key):
            raise PlanError(
                f"join key {left_key} not produced by the left input"
            )
        if not plan.right.schema.has(*right_key):
            raise PlanError(
                f"join key {right_key} not produced by the right input"
            )
