"""Build the backing-table plan for a matched view rewrite.

Given a :class:`~repro.views.matcher.ViewMatch`, produce a plan whose
output schema is exactly the block's select list (one ``(None, name)``
field per entry — the same contract ``optimize_block`` honors, so the
canonical optimizer can swap this plan in wherever the block's plan
would go):

- **exact grouping** — each backing row is one result group already:
  scan (+ residual filters), optionally filter on the finalized HAVING,
  then project the finalized outputs straight off the stored partials.
- **coarser grouping** — the query groups are unions of view groups:
  scan (+ residual filters), re-group on the resolved backing key
  columns applying each partial's *coalescer* (Section 4.2's simple
  coalescing, running over stored partials instead of an early
  group-by), then finalize.

Residual predicates and HAVING move into backing-table space via the
match's column resolution plus ``finalize_substitution`` from the
shared :class:`~repro.transforms.coalescing.DecomposedAggregates`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import ColumnRef, Expression, FieldKey
from ..algebra.plan import (
    FilterNode,
    GroupByNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from ..algebra.query import QueryBlock
from ..catalog.schema import Field
from ..cost.model import CostModel
from .matcher import ViewMatch

SCAN_ALIAS_PREFIX = "__mv_scan__"
"""Backing scans get a reserved alias so they can never collide with a
user alias inside the rewritten plan."""


def build_rewrite_plan(
    match: ViewMatch, block: QueryBlock, model: CostModel
) -> PlanNode:
    """The annotated backing-table plan answering *block*."""
    view = match.view
    alias = SCAN_ALIAS_PREFIX + view.name
    table = view.backing_info.table
    fields = [
        Field(alias, column.name, column.dtype) for column in table.columns
    ]
    column_map: Dict[FieldKey, Expression] = {
        key: ColumnRef(alias, column)
        for key, column in match.key_resolution.items()
    }
    filters = tuple(p.substitute(column_map) for p in match.residuals)
    plan: PlanNode = ScanNode(view.backing_name, alias, fields, filters=filters)

    finalize = match.decomposed.finalize_substitution()
    if match.exact_grouping:
        # One backing row per result group: partials are already fully
        # coalesced, so finalizers read the stored columns directly.
        substitution = dict(column_map)
        for partial_name, column in match.partial_columns.items():
            substitution[(None, partial_name)] = ColumnRef(alias, column)
        having = tuple(
            p.substitute(finalize).substitute(substitution)
            for p in block.having
        )
        if having:
            plan = FilterNode(plan, having)
        outputs = [
            (None, name, source.substitute(finalize).substitute(substitution))
            for name, source in block.select
        ]
        plan = ProjectNode(plan, outputs)
    else:
        group_keys: List[FieldKey] = []
        for _, column in match.group_columns:
            key = (alias, column)
            if key not in group_keys:
                group_keys.append(key)
        aggregates: List[Tuple[str, AggregateCall]] = []
        for partial_name, partial_call in match.decomposed.partials:
            coalescer = partial_call.function().decompose(
                partial_call.arg
            ).coalescers[0]
            aggregates.append(
                (
                    partial_name,
                    AggregateCall(
                        coalescer,
                        ColumnRef(alias, match.partial_columns[partial_name]),
                    ),
                )
            )
        having = tuple(
            p.substitute(finalize).substitute(column_map)
            for p in block.having
        )
        plan = GroupByNode(
            plan,
            group_keys=group_keys,
            aggregates=aggregates,
            having=having,
            method="hash",
        )
        outputs = [
            (None, name, source.substitute(finalize).substitute(column_map))
            for name, source in block.select
        ]
        plan = ProjectNode(plan, outputs)
    model.annotate_tree(plan)
    return plan
