"""Predicate propagation across query blocks ([MFPR90, LMS94]).

The paper positions prior art thus: "the techniques for optimizing
queries with aggregate views have been limited to propagating
predicates across query blocks ... to reduce the cost of optimizing
each query block" (Section 1). This module implements that baseline
preprocessing: an outer conjunct that constrains only a view's
*grouping-column* outputs (compared to literals) holds uniformly for
every row of a group, so it can be moved inside the view's WHERE —
filtering before the group-by instead of after the join.

Predicates touching aggregate outputs, multiple relations, or
non-grouping outputs stay put. The transformation strictly reduces the
data each block processes and is applied by every optimizer level,
matching the paper's premise that traditional optimizers already do
this.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algebra.expressions import ColumnRef, Expression, FieldKey
from ..algebra.query import AggregateView, CanonicalQuery, QueryBlock


def propagate_predicates(query: CanonicalQuery) -> CanonicalQuery:
    """Move movable outer conjuncts into their view's WHERE clause."""
    if not query.views:
        return query

    movable: Dict[str, List[Expression]] = {}
    kept: List[Expression] = []
    for predicate in query.predicates:
        target = _movable_target(predicate, query)
        if target is None:
            kept.append(predicate)
        else:
            movable.setdefault(target, []).append(predicate)
    if not movable:
        return query

    new_views: List[AggregateView] = []
    for view in query.views:
        pushed = movable.get(view.alias)
        if not pushed:
            new_views.append(view)
            continue
        to_inner = {
            (view.alias, name): source
            for name, source in view.block.select
        }
        inner_predicates = tuple(
            predicate.substitute(to_inner) for predicate in pushed
        )
        block = view.block
        new_views.append(
            AggregateView(
                alias=view.alias,
                block=QueryBlock(
                    relations=block.relations,
                    predicates=block.predicates + inner_predicates,
                    group_by=block.group_by,
                    aggregates=block.aggregates,
                    having=block.having,
                    select=block.select,
                ),
            )
        )
    return CanonicalQuery(
        base_tables=query.base_tables,
        views=tuple(new_views),
        predicates=tuple(kept),
        group_by=query.group_by,
        aggregates=query.aggregates,
        having=query.having,
        select=query.select,
        order_by=query.order_by,
        limit=query.limit,
        joins=query.joins,
        subqueries=query.subqueries,
    )


def _movable_target(
    predicate: Expression, query: CanonicalQuery
) -> "str | None":
    """The view alias *predicate* can move into, or None.

    Movable = references exactly one alias, that alias is a view, and
    every referenced output's source is a grouping column (never an
    aggregate), so the predicate's value is constant per group and
    filtering rows before grouping equals filtering groups after.
    """
    aliases = predicate.aliases()
    if len(aliases) != 1:
        return None
    (alias,) = aliases
    if alias not in query.view_aliases:
        return None
    if any(unit.alias == alias for unit in query.joins):
        # The view is the target of a non-inner join unit: a WHERE
        # conjunct over it filters the *padded* join output and must
        # not move inside the view (it would turn kept-but-unmatched
        # rows into matches).
        return None
    view = query.view(alias)
    group_keys = {reference.key for reference in view.block.group_by}
    for key in predicate.columns():
        if key[0] != alias:
            return None  # a bare (None, x) reference: not view-scoped
        for source_key in view.output_source(key[1]).columns():
            if source_key not in group_keys:
                return None
    return alias

