"""The pull-up transformation (Section 3, Definition 1).

Pull-up defers the evaluation of an aggregate view's group-by until
after joins with relations from *other* query blocks, enabling
cross-block join reordering. Equivalence is preserved by:

1. extending the grouping columns with a key of each pulled-through
   relation (declared primary key, or the hidden tuple id when none is
   declared — both options named in Section 3);
2. keeping every pulled-relation column the rest of the query needs as
   an additional grouping column (they are functionally determined by
   the added keys, but SQL's grouped-select discipline requires them);
3. deferring join predicates that touch the view's *aggregated* columns
   into the HAVING clause of the deferred group-by;
4. skipping a pulled relation's key when the join equates its full
   primary key with columns already in the grouping set (the paper's
   foreign-key-join special case).

Two granularities are provided:

- :func:`pull_up` rewrites a :class:`CanonicalQuery`: the chosen base
  tables W move inside the named view, which becomes Φ(V, W). This is
  the building block of the Section 5.3/5.4 optimizer.
- :func:`pull_up_plan` rewrites an operator tree exactly as Figure 1
  draws it: ``J1(G1(...), R2)`` becomes ``G2(J2(..., R2))``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import (
    ColumnRef,
    Expression,
    FieldKey,
    equijoin_sides,
)
from ..algebra.plan import GroupByNode, JoinNode, PlanNode, ScanNode
from ..algebra.query import AggregateView, CanonicalQuery, QueryBlock, TableRef
from ..catalog.catalog import Catalog
from ..catalog.schema import RID_COLUMN
from ..errors import TransformError


def key_columns(ref: TableRef, catalog: Catalog) -> Tuple[ColumnRef, ...]:
    """A key of *ref*: its declared primary key, or the internal tuple
    id when none is declared (Section 3)."""
    primary_key = catalog.primary_key(ref.table)
    if primary_key:
        return tuple(ColumnRef(ref.alias, name) for name in primary_key)
    return (ColumnRef(ref.alias, RID_COLUMN),)


# ----------------------------------------------------------------------
# Query-level pull-up: CanonicalQuery -> CanonicalQuery
# ----------------------------------------------------------------------


def pull_up(
    query: CanonicalQuery,
    view_alias: str,
    pulled_aliases: Sequence[str],
    catalog: Catalog,
) -> CanonicalQuery:
    """Pull the base tables *pulled_aliases* through the view
    *view_alias*, producing an equivalent query whose view is the
    paper's Φ(V, W).

    The pulled relations leave the outer FROM list and join the view's
    relations *before* its (deferred) group-by. Their columns that the
    rest of the query still needs are exposed as new view outputs named
    ``{alias}_{column}``.
    """
    pulled = frozenset(pulled_aliases)
    if not pulled:
        return query
    view = query.view(view_alias)
    base_by_alias = {ref.alias: ref for ref in query.base_tables}
    missing = pulled - set(base_by_alias)
    if missing:
        raise TransformError(
            f"cannot pull non-base aliases {sorted(missing)} "
            "(reordering across two aggregate views is excluded, "
            "Section 5.4)"
        )
    pulled_refs = [base_by_alias[alias] for alias in sorted(pulled)]
    block = view.block

    # Substitution from the view's output namespace into its inner
    # namespace (view outputs are grouping columns or aggregate outputs).
    to_inner: Dict[FieldKey, Expression] = {
        (view_alias, name): source for name, source in block.select
    }
    aggregated = {(view_alias, name) for name in view.aggregated_outputs()}

    kept: List[Expression] = []
    where_new: List[Expression] = []
    having_new: List[Expression] = []
    for predicate in query.predicates:
        aliases = predicate.aliases()
        if not aliases or not aliases <= pulled | {view_alias}:
            # a conjunct over no alias stays where every plan applies it
            kept.append(predicate)
        elif predicate.columns() & aggregated:
            # deferred (Definition 1, item 4)
            having_new.append(predicate.substitute(to_inner))
        else:
            where_new.append(predicate.substitute(to_inner))

    # Columns of pulled relations the rest of the query references.
    needed: Set[FieldKey] = set()
    for predicate in kept:
        needed |= {key for key in predicate.columns() if key[0] in pulled}
    for predicate in having_new:
        needed |= {key for key in predicate.columns() if key[0] in pulled}
    for reference in query.group_by:
        if reference.alias in pulled:
            needed.add(reference.key)
    for _, source in query.select:
        needed |= {key for key in source.columns() if key[0] in pulled}
    for _, call in query.aggregates:
        needed |= {key for key in call.columns() if key[0] in pulled}
    for predicate in query.having:
        needed |= {key for key in predicate.columns() if key[0] in pulled}

    # New grouping columns: original ∪ needed ∪ keys (Definition 1,
    # item 2), with the foreign-key-join key omission.
    group_keys: List[ColumnRef] = list(block.group_by)
    present = {reference.key for reference in group_keys}

    def add_group(reference: ColumnRef) -> None:
        if reference.key not in present:
            group_keys.append(reference)
            present.add(reference.key)

    for key in sorted(needed, key=str):
        add_group(ColumnRef(*key))
    key_refs: Dict[str, Tuple[ColumnRef, ...]] = {
        ref.alias: key_columns(ref, catalog) for ref in pulled_refs
    }
    tentative = set(present)
    for refs in key_refs.values():
        tentative |= {reference.key for reference in refs}
    for ref in pulled_refs:
        if not _key_determined(
            ref, key_refs[ref.alias], where_new, tentative
        ):
            for reference in key_refs[ref.alias]:
                add_group(reference)

    # Expose needed pulled columns as view outputs.
    select_new = list(block.select)
    existing_names = {name for name, _ in select_new}
    outer_rewrite: Dict[FieldKey, Expression] = {}
    for key in sorted(needed, key=str):
        alias, name = key
        output_name = f"{alias}_{name}"
        while output_name in existing_names:
            output_name = output_name + "_"
        existing_names.add(output_name)
        select_new.append((output_name, ColumnRef(alias, name)))
        outer_rewrite[key] = ColumnRef(view_alias, output_name)

    new_block = QueryBlock(
        relations=block.relations + tuple(pulled_refs),
        predicates=block.predicates + tuple(where_new),
        group_by=tuple(group_keys),
        aggregates=block.aggregates,
        having=block.having + tuple(having_new),
        select=tuple(select_new),
    )
    new_view = AggregateView(alias=view_alias, block=new_block)

    def rewrite(expression: Expression) -> Expression:
        return expression.substitute(outer_rewrite)

    new_group_by = tuple(
        ColumnRef(*_rewritten_key(reference.key, outer_rewrite))
        for reference in query.group_by
    )
    return CanonicalQuery(
        base_tables=tuple(
            ref for ref in query.base_tables if ref.alias not in pulled
        ),
        views=tuple(
            new_view if v.alias == view_alias else v for v in query.views
        ),
        predicates=tuple(rewrite(p) for p in kept),
        group_by=new_group_by,
        aggregates=tuple(
            (name, call.substitute(outer_rewrite))
            for name, call in query.aggregates
        ),
        having=tuple(rewrite(p) for p in query.having),
        select=tuple((name, rewrite(s)) for name, s in query.select),
        order_by=query.order_by,
        limit=query.limit,
    )


def _rewritten_key(key: FieldKey, mapping: Dict[FieldKey, Expression]):
    replacement = mapping.get(key)
    if replacement is None:
        return key
    assert isinstance(replacement, ColumnRef)
    return replacement.key


def _key_determined(
    ref: TableRef,
    keys: Tuple[ColumnRef, ...],
    where_new: Sequence[Expression],
    grouping_keys: Set[FieldKey],
) -> bool:
    """True when the pulled relation's full key is equated (by the moved
    WHERE equijoins) to grouping columns outside itself — the paper's
    foreign-key-join case where the key need not be added."""
    own = {reference.key for reference in keys}
    others = grouping_keys - own
    for reference in keys:
        determined = False
        for predicate in where_new:
            sides = equijoin_sides(predicate)
            if sides is None:
                continue
            left, right = sides
            if left == reference.key and right in others:
                determined = True
            elif right == reference.key and left in others:
                determined = True
        if not determined:
            return False
    return True


# ----------------------------------------------------------------------
# Plan-level pull-up: Figure 1
# ----------------------------------------------------------------------


def pull_up_plan(join: JoinNode, catalog: Catalog) -> GroupByNode:
    """Apply Definition 1 to an operator tree: rewrite
    ``J1(G1(...), R2)`` (or the mirror image) into ``G2(J2(..., R2))``.

    ``R2`` must be a base-table scan so a key is available (declared
    primary key or row id). Returns the new group-by root; its output
    schema equals the original join's output schema (item 1 of the
    definition).
    """
    if isinstance(join.left, GroupByNode):
        grouped_left = True
        group_node = join.left
        partner = join.right
    elif isinstance(join.right, GroupByNode):
        grouped_left = False
        group_node = join.right
        partner = join.left
    else:
        raise TransformError("pull-up needs a group-by child under the join")
    if not isinstance(partner, ScanNode):
        raise TransformError(
            "plan-level pull-up requires a base-table partner (a key is "
            "needed; use the query-level pull_up for derived partners)"
        )
    if group_node.projection != tuple(
        field.key for field in group_node.internal_schema
    ):
        # The group-by's own projection may hide grouping columns the
        # join predicates need; keep the transform simple and explicit.
        raise TransformError(
            "pull-up over a projected group-by is not supported; project "
            "after pulling up instead"
        )

    agg_keys = {(None, name) for name, _ in group_node.aggregates}

    deferred: List[Expression] = list(group_node.having)
    j2_equi: List[Tuple[FieldKey, FieldKey]] = []
    j2_residuals: List[Expression] = []
    deferred_new: List[Expression] = []
    from ..algebra.expressions import Comparison

    for left_key, right_key in join.equi_keys:
        if left_key in agg_keys or right_key in agg_keys:
            deferred_new.append(
                Comparison(
                    "=", ColumnRef(*left_key), ColumnRef(*right_key)
                )
            )
        else:
            j2_equi.append((left_key, right_key))
    for predicate in join.residuals:
        if predicate.columns() & agg_keys:
            deferred_new.append(predicate)
        else:
            j2_residuals.append(predicate)

    inner = group_node.child
    partner_ref = TableRef(partner.table_name, partner.alias)
    keys = key_columns(partner_ref, catalog)
    if any(
        reference.name == RID_COLUMN and not partner.schema.has(*reference.key)
        for reference in keys
    ):
        partner = partner.replace(include_rid=True)

    if grouped_left:
        j2 = JoinNode(
            inner,
            partner,
            method=join.method,
            equi_keys=j2_equi,
            residuals=j2_residuals,
            index_name=join.index_name,
        )
    else:
        j2 = JoinNode(
            partner,
            inner,
            method=join.method,
            equi_keys=j2_equi,
            residuals=j2_residuals,
            index_name=None,
        )

    # Grouping columns of G2 (Definition 1, item 2): grouping of G1 ∪
    # non-aggregated projection columns of J1 ∪ key of R2, plus the
    # partner columns referenced by deferred predicates.
    group_keys: List[FieldKey] = list(group_node.group_keys)
    seen = set(group_keys)

    def add_key(key: FieldKey) -> None:
        if key not in seen and j2.schema.has(*key):
            group_keys.append(key)
            seen.add(key)

    for key in join.projection:
        if key not in agg_keys:
            add_key(key)
    for predicate in deferred_new:
        for key in predicate.columns():
            if key not in agg_keys:
                add_key(key)
    for reference in keys:
        add_key(reference.key)

    return GroupByNode(
        j2,
        group_keys=group_keys,
        aggregates=group_node.aggregates,
        having=tuple(deferred) + tuple(deferred_new),
        method="hash",
        projection=join.projection,  # item 1: same output as J1
    )
