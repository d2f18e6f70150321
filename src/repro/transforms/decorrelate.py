"""Decorrelation: flatten WHERE-clause subqueries into the outer block.

This is Kim's join-aggregate transformation (Section 1 of the paper)
generalized beyond the scalar case:

- A **correlated scalar-aggregate** subquery becomes an aggregate view
  grouped on its correlation columns, inner-joined into the outer block
  (the classic rewrite). ``COUNT`` is the famous exception — Kim's
  flattening is unsound for empty groups (footnote 3 of the paper: the
  transformation "may introduce outerjoins") — so a COUNT subquery
  joins its view through a **LEFT OUTER** unit and compares
  ``IFNULL(agg, 0)`` after the join, which restores the missing-group
  zero.
- ``IN`` / ``EXISTS`` become **semi-join** units against the inner
  relation: the membership equality and the correlation equalities form
  the ON condition, the inner block's local predicates filter the inner
  side first.
- ``NOT EXISTS`` becomes a regular **anti-join** unit (an UNKNOWN ON
  match leaves a row unmatched, hence kept — exactly NOT EXISTS).
- Uncorrelated ``NOT IN`` becomes a **null-aware anti-join**: SQL's
  three-valued logic makes ``x NOT IN (S)`` UNKNOWN when ``x`` is NULL
  and ``S`` non-empty, or when ``S`` contains a NULL and ``x`` has no
  match; the engines implement that contract for ``null_aware`` joins.

Everything else — correlated ``NOT IN``, multi-relation semi/anti
inners, uncorrelated scalar subqueries — stays behind as a
:class:`SubquerySpec` on the query and executes as a naive mark join
(inner side materialized once, correlation matched per outer row).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    IfNull,
    Literal,
)
from ..algebra.query import (
    AggregateView,
    CanonicalQuery,
    JoinUnit,
    QueryBlock,
    SubquerySpec,
)
from ..optimizer.stats import SearchStats


def decorrelate_query(
    query: CanonicalQuery, stats: Optional[SearchStats] = None
) -> CanonicalQuery:
    """Flatten *query*'s subquery specs where legal.

    Returns a query whose ``subqueries`` tuple holds only the specs
    that could not be flattened; those execute as mark joins. Queries
    without subqueries pass through untouched.
    """
    if not query.subqueries:
        return query

    views: List[AggregateView] = list(query.views)
    joins: List[JoinUnit] = list(query.joins)
    predicates: List[Expression] = list(query.predicates)
    remaining: List[SubquerySpec] = []

    for spec in query.subqueries:
        if stats is not None:
            stats.decorrelation_considered += 1
        flattened = _flatten_spec(spec, views, joins, predicates)
        if flattened:
            if stats is not None:
                stats.decorrelation_adopted += 1
        else:
            remaining.append(spec)

    return CanonicalQuery(
        base_tables=query.base_tables,
        views=tuple(views),
        predicates=tuple(predicates),
        group_by=query.group_by,
        aggregates=query.aggregates,
        having=query.having,
        select=query.select,
        order_by=query.order_by,
        limit=query.limit,
        joins=tuple(joins),
        subqueries=tuple(remaining),
    )


def _flatten_spec(
    spec: SubquerySpec,
    views: List[AggregateView],
    joins: List[JoinUnit],
    predicates: List[Expression],
) -> bool:
    """Try to flatten one spec in place; False leaves it for mark-join
    execution."""
    if spec.kind == "scalar":
        return _flatten_scalar(spec, views, joins, predicates)
    if spec.kind == "in":
        return _flatten_membership(spec, joins)
    if spec.kind == "exists":
        return _flatten_exists(spec, joins)
    return False


def _flatten_scalar(
    spec: SubquerySpec,
    views: List[AggregateView],
    joins: List[JoinUnit],
    predicates: List[Expression],
) -> bool:
    """Kim's transformation: group the inner block on its correlation
    columns; COUNT joins through a LEFT unit with IFNULL(agg, 0)."""
    if not spec.correlations:
        # No grouping columns: the view machinery needs a GROUP BY, so
        # the inner side runs once as a mark join (which is cheap here —
        # one aggregate over the materialized inner rows).
        return False
    assert spec.aggregate is not None and spec.op is not None
    agg_name = "agg"
    group_refs = tuple(inner for inner, _ in spec.correlations)
    select: List[Tuple[str, Expression]] = []
    for position, reference in enumerate(group_refs):
        select.append((f"g{position}", reference))
    select.append((agg_name, ColumnRef(None, agg_name)))
    block = QueryBlock(
        relations=spec.relations,
        predicates=spec.local_predicates,
        group_by=group_refs,
        aggregates=((agg_name, spec.aggregate),),
        having=(),
        select=tuple(select),
    )
    views.append(AggregateView(alias=spec.alias, block=block))
    join_predicates = [
        Comparison("=", outer, ColumnRef(spec.alias, f"g{position}"))
        for position, (_, outer) in enumerate(spec.correlations)
    ]
    agg_column = ColumnRef(spec.alias, agg_name)
    if spec.aggregate.func_name == "count":
        # Kim's COUNT bug: a missing group means COUNT = 0, not "no
        # row". Join the view LEFT so unmatched outer rows survive, and
        # coalesce the NULL-padded aggregate to 0 in the comparison
        # (applied after the join as a post-join filter).
        joins.append(
            JoinUnit(
                alias=spec.alias,
                kind="left",
                table=None,
                on=tuple(join_predicates),
            )
        )
        predicates.append(
            Comparison(spec.op, spec.outer, IfNull(agg_column, Literal(0)))
        )
    else:
        predicates.extend(join_predicates)
        predicates.append(Comparison(spec.op, spec.outer, agg_column))
    return True


def _membership_on(spec: SubquerySpec) -> Tuple[Expression, ...]:
    """The ON condition of an IN/EXISTS unit: the membership equality
    (IN only) plus the correlation equalities."""
    on: List[Expression] = []
    if spec.value is not None and spec.outer is not None:
        on.append(Comparison("=", spec.outer, spec.value))
    for inner, outer in spec.correlations:
        on.append(Comparison("=", outer, inner))
    return tuple(on)


def _flatten_membership(spec: SubquerySpec, joins: List[JoinUnit]) -> bool:
    if len(spec.relations) != 1:
        return False
    relation = spec.relations[0]
    if not spec.negate:
        joins.append(
            JoinUnit(
                alias=relation.alias,
                kind="semi",
                table=relation,
                on=_membership_on(spec),
                filters=spec.local_predicates,
            )
        )
        return True
    # NOT IN: only the uncorrelated single-equality form flattens — the
    # null-aware anti-join contract covers exactly one membership
    # equality over plain columns (3VL over one key column). Correlated
    # NOT IN and computed membership expressions fall back.
    if spec.correlations:
        return False
    if not isinstance(spec.outer, ColumnRef) or not isinstance(
        spec.value, ColumnRef
    ):
        return False
    joins.append(
        JoinUnit(
            alias=relation.alias,
            kind="anti",
            table=relation,
            on=_membership_on(spec),
            filters=spec.local_predicates,
            null_aware=True,
        )
    )
    return True


def _flatten_exists(spec: SubquerySpec, joins: List[JoinUnit]) -> bool:
    if len(spec.relations) != 1:
        return False
    relation = spec.relations[0]
    joins.append(
        JoinUnit(
            alias=relation.alias,
            kind="anti" if spec.negate else "semi",
            table=relation,
            on=_membership_on(spec),
            filters=spec.local_predicates,
        )
    )
    return True
