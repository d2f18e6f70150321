"""Decorrelation: flatten every WHERE-clause subquery into the outer block.

This is Kim's join-aggregate transformation (Section 1 of the paper)
generalized beyond the scalar case, so that every subquery reaches the
optimizer in the paper's canonical form — base tables, aggregate
views, and the non-inner join units the DP plans beside them:

- A **scalar-aggregate** subquery becomes an aggregate view grouped on
  its correlation columns (on nothing when it is uncorrelated: one
  group over the whole inner side, none over an empty one),
  inner-joined into the outer block (the classic rewrite). ``COUNT``
  is the famous exception — Kim's flattening is unsound for empty
  groups (footnote 3 of the paper: the transformation "may introduce
  outerjoins") — so a COUNT subquery joins its view through a **LEFT
  OUTER** unit and compares ``IFNULL(agg, 0)`` after the join, which
  restores the missing-group zero.
- ``IN`` / ``EXISTS`` become **semi-join** units: the membership
  equality and the correlation equalities form the ON condition. A
  single-relation inner side is the unit itself, its local predicates
  filtering it first; a multi-relation one is first wrapped in an
  aggregate view grouped on the columns the ON condition reads from it
  (a distinct set; grouped on nothing, with a ``COUNT(*)`` to make it
  an aggregate, when the ON condition reads none).
- ``NOT EXISTS`` becomes a regular **anti-join** unit (an UNKNOWN ON
  match leaves a row unmatched, hence kept — exactly NOT EXISTS).
- ``NOT IN`` between plain columns becomes a **null-aware anti-join**
  whose ON condition is the membership equality followed by the
  correlation equalities: SQL's three-valued logic makes
  ``x NOT IN (S)`` UNKNOWN when ``x`` is NULL and ``S`` non-empty, or
  when ``S`` contains a NULL and ``x`` has no match, and the engines
  apply that rule per correlation group. ``NOT IN`` over a computed
  value is the anti-join of ``NOT EXISTS (… AND (x = v OR x IS NULL OR
  v IS NULL))``, the same three-valued rule spelled as a predicate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    FieldKey,
    IfNull,
    IsNull,
    Literal,
    Or,
)
from ..algebra.query import (
    AggregateView,
    CanonicalQuery,
    JoinUnit,
    QueryBlock,
    SubquerySpec,
)
from ..optimizer.stats import SearchStats
from ..trace import traced


@traced("transforms.decorrelate")
def decorrelate_query(
    query: CanonicalQuery, stats: Optional[SearchStats] = None
) -> CanonicalQuery:
    """Flatten *query*'s subquery specs into aggregate views and join
    units; the result holds no spec. Queries without subqueries pass
    through untouched."""
    if not query.subqueries:
        return query

    views: List[AggregateView] = list(query.views)
    joins: List[JoinUnit] = list(query.joins)
    predicates: List[Expression] = list(query.predicates)

    for spec in query.subqueries:
        if spec.kind == "scalar":
            _flatten_scalar(spec, views, joins, predicates)
        else:
            _flatten_membership(spec, views, joins)
        if stats is not None:
            stats.decorrelation_considered += 1
            stats.decorrelation_adopted += 1

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
    )


def _flatten_scalar(
    spec: SubquerySpec,
    views: List[AggregateView],
    joins: List[JoinUnit],
    predicates: List[Expression],
) -> None:
    """Kim's transformation: group the inner block on its correlation
    columns; COUNT joins through a LEFT unit with IFNULL(agg, 0)."""
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


def _flatten_membership(
    spec: SubquerySpec, views: List[AggregateView], joins: List[JoinUnit]
) -> None:
    """IN / EXISTS and their negations as a semi or anti unit whose ON
    condition is the membership test (IN only) plus the correlation
    equalities."""
    value = spec.value
    correlations = spec.correlations
    if len(spec.relations) == 1:
        table = spec.relations[0]
        alias, filters = table.alias, spec.local_predicates
    else:
        view, to_view = _body_view(spec)
        views.append(view)
        table, alias, filters = None, spec.alias, ()
        if value is not None:
            value = value.substitute(to_view)
        correlations = tuple(
            (to_view[inner.key], outer) for inner, outer in correlations
        )
    on: List[Expression] = [
        Comparison("=", outer, inner) for inner, outer in correlations
    ]
    null_aware = False
    if value is not None:
        assert spec.outer is not None
        membership: Expression = Comparison("=", spec.outer, value)
        if spec.negate:
            null_aware = isinstance(spec.outer, ColumnRef) and isinstance(
                value, ColumnRef
            )
            if not null_aware:
                membership = Or(
                    (membership, IsNull(spec.outer), IsNull(value))
                )
        on.insert(0, membership)
    joins.append(
        JoinUnit(
            alias=alias,
            kind="anti" if spec.negate else "semi",
            table=table,
            on=tuple(on),
            filters=filters,
            null_aware=null_aware,
        )
    )


def _body_view(
    spec: SubquerySpec,
) -> Tuple[AggregateView, Dict[FieldKey, ColumnRef]]:
    """A multi-relation IN / EXISTS body as an aggregate view grouped on
    the columns its unit's ON condition reads — the membership value's
    and the correlation columns — each an output ``c0..``; plus the
    map from those inner columns to the view's. With no such column the
    view groups on nothing, a ``COUNT(*)`` making it an aggregate: one
    row when the body has rows."""
    keys: List[FieldKey] = []
    sources = [spec.value] if spec.value is not None else []
    sources.extend(inner for inner, _ in spec.correlations)
    for source in sources:
        for key in sorted(source.columns(), key=str):
            if key not in keys:
                keys.append(key)
    group_by = tuple(ColumnRef(*key) for key in keys)
    select: Tuple[Tuple[str, Expression], ...] = tuple(
        (f"c{position}", reference)
        for position, reference in enumerate(group_by)
    )
    aggregates: Tuple[Tuple[str, AggregateCall], ...] = ()
    if not keys:
        aggregates = (("rows", AggregateCall("count", None)),)
        select = (("rows", ColumnRef(None, "rows")),)
    block = QueryBlock(
        relations=spec.relations,
        predicates=spec.local_predicates,
        group_by=group_by,
        aggregates=aggregates,
        select=select,
    )
    to_view = {
        key: ColumnRef(spec.alias, f"c{position}")
        for position, key in enumerate(keys)
    }
    return AggregateView(alias=spec.alias, block=block), to_view
