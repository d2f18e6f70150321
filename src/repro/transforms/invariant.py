"""Invariant grouping push-down and the minimal invariant set
(Section 4.1, Figure 2(a)).

Invariant grouping moves a group-by operator *past* a join: relations
that do not feed any aggregate, join on grouping-equivalent columns, and
match at most one partner per group (their join columns cover a key) can
be evaluated after the group-by instead of before it. Applying the
transformation to a view until it no longer applies leaves the view's
**minimal invariant set** V′ — the smallest set of relations that must
be joined before the group-by. The Section 5 optimizer treats relations
outside V′ like outer base tables (the B′ construction).

Soundness conditions for removing relation *s* from under G(V):

1. no aggregate argument references *s*;
2. every predicate connecting *s* to the rest is an equi-join whose
   retained-side column is (equivalent to) a grouping column — so all
   rows of a group agree on their *s* partner;
3. the *s*-side join columns cover a declared key of *s* — so each
   group has at most one partner and neither aggregate values nor
   output multiplicity change;
4. grouping columns (and select outputs) sourced from *s* have
   retained-side equivalents to rewrite to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    FieldKey,
    equijoin_sides,
)
from ..algebra.plan import GroupByNode, JoinNode, PlanNode, ScanNode
from ..algebra.query import (
    AggregateView,
    CanonicalQuery,
    QueryBlock,
    TableRef,
)
from ..catalog.catalog import Catalog
from ..errors import TransformError


@dataclass
class _Removal:
    """Bookkeeping for one removable relation."""

    ref: TableRef
    local_predicates: Tuple[Expression, ...]
    # (s-side column, retained grouping column to join against outside)
    join_pairs: Tuple[Tuple[ColumnRef, ColumnRef], ...]
    # rewriting of s-sourced grouping/select columns to retained ones
    rewrite: Dict[FieldKey, Expression]


def _try_remove(
    block: QueryBlock, alias: str, catalog: Catalog
) -> Optional[_Removal]:
    """Check the soundness conditions for removing *alias*; on success
    return the removal recipe, else None."""
    retained = block.aliases - {alias}
    if not retained:
        return None

    # Condition 1: no aggregate argument from s.
    for _, call in block.aggregates:
        if alias in call.aliases():
            return None

    group_keys = {reference.key for reference in block.group_by}
    # Full equivalence classes over the block's equi-joins: every
    # equality holds on every joined row *before* grouping, so class
    # members are interchangeable for the constancy arguments below.
    from ..algebra.query import EquivalenceClasses

    equivalence = EquivalenceClasses(block.predicates)

    def exposed_join_column(r_key: FieldKey) -> Optional[FieldKey]:
        """The (post-rewrite) grouping column the removed relation will
        join against outside. Requires a grouping column in r_key's
        equivalence class; if that grouping column itself comes from the
        removed relation, it gets rewritten to a retained member."""
        members = equivalence.members(r_key)
        grouping_members = [k for k in members if k in group_keys]
        if not grouping_members:
            return None
        for member in sorted(grouping_members, key=str):
            if member[0] != alias:
                return member
        # the grouping column is s-sourced; rewrite_key turns it into a
        # retained class member, which is then the exposed column
        return equivalence.representative_in(grouping_members[0], retained)

    local: List[Expression] = []
    join_pairs: List[Tuple[ColumnRef, ColumnRef]] = []
    s_join_columns: Set[str] = set()
    for predicate in block.predicates:
        aliases = predicate.aliases()
        if alias not in aliases:
            continue
        if aliases == {alias}:
            local.append(predicate)
            continue
        # Condition 2: cross predicates must be grouping-column equijoins.
        sides = equijoin_sides(predicate)
        if sides is None:
            return None
        left, right = sides
        s_key, r_key = (left, right) if left[0] == alias else (right, left)
        if s_key[0] != alias or r_key[0] not in retained:
            return None
        grouping_key = exposed_join_column(r_key)
        if grouping_key is None:
            return None
        join_pairs.append((ColumnRef(*s_key), ColumnRef(*grouping_key)))
        s_join_columns.add(s_key[1])

    if not join_pairs:
        return None  # a cross product under the group-by cannot move out

    # Condition 3: join columns of s cover its primary key.
    ref = next(r for r in block.relations if r.alias == alias)
    primary_key = catalog.primary_key(ref.table)
    if not primary_key or not set(primary_key) <= s_join_columns:
        return None

    # Condition 4: rewrite s-sourced grouping and select columns to
    # retained-side equivalents.
    rewrite: Dict[FieldKey, Expression] = {}

    def rewrite_key(key: FieldKey) -> bool:
        if key in rewrite:
            return True
        # a retained-side column equal to the s-sourced *key* on every
        # joined row
        substitute = equivalence.representative_in(key, retained)
        if substitute is None:
            return False
        rewrite[key] = ColumnRef(*substitute)
        return True

    for reference in block.group_by:
        if reference.alias == alias and not rewrite_key(reference.key):
            return None
    for _, source in block.select:
        for key in source.columns():
            if key[0] == alias and not rewrite_key(key):
                return None

    return _Removal(
        ref=ref,
        local_predicates=tuple(local),
        join_pairs=tuple(join_pairs),
        rewrite=rewrite,
    )


def removable_aliases(block: QueryBlock, catalog: Catalog) -> FrozenSet[str]:
    """Aliases removable from under the block's group-by right now."""
    if not block.is_grouped:
        return frozenset()
    return frozenset(
        alias
        for alias in block.aliases
        if _try_remove(block, alias, catalog) is not None
    )


def minimal_invariant_set(
    block: QueryBlock, catalog: Catalog
) -> FrozenSet[str]:
    """The minimal invariant set of G(V): aliases that must be joined
    before the group-by (fixpoint of invariant-grouping removals)."""
    reduced = block
    for reduced, _, _, _ in _removals(block, catalog):
        pass
    return reduced.aliases


def _removals(
    block: QueryBlock, catalog: Catalog
) -> Iterator[
    Tuple[QueryBlock, TableRef, Tuple[Expression, ...], Dict[FieldKey, str]]
]:
    """The invariant-grouping fixpoint: remove the first removable alias
    (in sorted order) from under the group-by until none is, or one
    relation is left. Yields ``(reduced block, removed relation,
    join-back predicates, inner columns needed outside)`` per removal
    (``_remove_from_block``)."""
    while block.is_grouped and len(block.relations) > 1:
        for alias in sorted(block.aliases):
            removal = _try_remove(block, alias, catalog)
            if removal is not None:
                break
        else:
            return
        block, join_back, needed_inner = _remove_from_block(block, removal)
        yield block, removal.ref, join_back, needed_inner


def _remove_from_block(
    block: QueryBlock, removal: _Removal
) -> Tuple[QueryBlock, Tuple[Expression, ...], Dict[FieldKey, str]]:
    """Rewrite *block* without the removed relation.

    Returns the new block, the predicates that must join the removed
    relation with the block's *output* (still in inner-column terms;
    the caller maps them to view outputs), and a map from inner grouping
    columns the outside now needs to ``None`` placeholders (filled by
    the caller with output names).
    """
    alias = removal.ref.alias
    new_group = []
    seen: Set[FieldKey] = set()
    for reference in block.group_by:
        target = removal.rewrite.get(reference.key)
        resolved = target if isinstance(target, ColumnRef) else reference
        if resolved.key not in seen:
            new_group.append(resolved)
            seen.add(resolved.key)

    new_block = QueryBlock(
        relations=tuple(r for r in block.relations if r.alias != alias),
        predicates=tuple(
            p for p in block.predicates if alias not in p.aliases()
        ),
        group_by=tuple(new_group),
        aggregates=block.aggregates,
        having=tuple(p.substitute(removal.rewrite) for p in block.having),
        select=tuple(
            (name, source.substitute(removal.rewrite))
            for name, source in block.select
        ),
    )
    outer_join_predicates = tuple(
        Comparison("=", s_ref, grouping_ref)
        for s_ref, grouping_ref in removal.join_pairs
    ) + removal.local_predicates
    needed_inner = {
        grouping_ref.key: "" for _, grouping_ref in removal.join_pairs
    }
    return new_block, outer_join_predicates, needed_inner


def split_view(
    view: AggregateView, catalog: Catalog
) -> Tuple[AggregateView, Tuple[TableRef, ...], Tuple[Expression, ...]]:
    """Reduce *view* to its minimal invariant set.

    Returns the reduced view (with extra outputs for the join-back
    columns), the relations that moved out, and the outer predicates
    that reconnect them to the view. The moved relations keep their
    original aliases, so they must not clash with outer aliases — the
    binder's alias uniquification guarantees that for SQL queries.
    """
    block = view.block
    moved_tables: List[TableRef] = []
    moved_predicates: List[Expression] = []
    extra_outputs: Dict[FieldKey, str] = {}

    for block, moved, join_back, needed_inner in _removals(block, catalog):
        moved_tables.append(moved)
        moved_predicates.extend(join_back)
        for key in needed_inner:
            extra_outputs.setdefault(key, "")

    # Expose the inner grouping columns the moved relations join on.
    select_new = list(block.select)
    existing = {name for name, _ in select_new}
    inner_to_output: Dict[FieldKey, Expression] = {}
    for key in sorted(extra_outputs, key=str):
        # Reuse an existing output whose source is exactly this column.
        reused = None
        for name, source in select_new:
            if isinstance(source, ColumnRef) and source.key == key:
                reused = name
                break
        if reused is None:
            reused = f"{key[0]}_{key[1]}"
            while reused in existing:
                reused += "_"
            existing.add(reused)
            select_new.append((reused, ColumnRef(*key)))
        inner_to_output[key] = ColumnRef(view.alias, reused)

    final_block = QueryBlock(
        relations=block.relations,
        predicates=block.predicates,
        group_by=block.group_by,
        aggregates=block.aggregates,
        having=block.having,
        select=tuple(select_new),
    )
    rewritten_predicates = tuple(
        p.substitute(inner_to_output) for p in moved_predicates
    )
    return (
        AggregateView(alias=view.alias, block=final_block),
        tuple(moved_tables),
        rewritten_predicates,
    )


def apply_invariant_split(
    query: CanonicalQuery, catalog: Catalog
) -> CanonicalQuery:
    """Reduce every view of *query* to its minimal invariant set,
    producing the equivalent query over B′ = B ∪ ⋃(Vᵢ − Vᵢ′)
    (Sections 5.3–5.4)."""
    new_views: List[AggregateView] = []
    extra_tables: List[TableRef] = []
    extra_predicates: List[Expression] = []
    for view in query.views:
        reduced, moved, join_back = split_view(view, catalog)
        new_views.append(reduced)
        extra_tables.extend(moved)
        extra_predicates.extend(join_back)
    if not extra_tables:
        return query
    taken = {ref.alias for ref in query.base_tables} | {
        view.alias for view in query.views
    }
    clashes = [ref.alias for ref in extra_tables if ref.alias in taken]
    if clashes:
        raise TransformError(
            f"invariant split would duplicate aliases {clashes}; "
            "uniquify view-internal aliases first"
        )
    return CanonicalQuery(
        base_tables=query.base_tables + tuple(extra_tables),
        views=tuple(new_views),
        predicates=query.predicates + tuple(extra_predicates),
        group_by=query.group_by,
        aggregates=query.aggregates,
        having=query.having,
        select=query.select,
        order_by=query.order_by,
        limit=query.limit,
    )


# ----------------------------------------------------------------------
# Plan-level push-down: Figure 2(a)
# ----------------------------------------------------------------------


def push_down_plan(group: GroupByNode, catalog: Catalog) -> PlanNode:
    """Rewrite ``G(J(R1, R2))`` into ``J(G′(R1), R2)`` when invariant
    grouping applies to the join's right input (Figure 2(a)). The HAVING
    clause moves down with the group-by (Section 4.1)."""
    join = group.child
    if not isinstance(join, JoinNode):
        raise TransformError("push-down needs a join under the group-by")
    partner = join.right
    if not isinstance(partner, ScanNode):
        raise TransformError("push-down partner must be a base-table scan")

    partner_alias = partner.alias
    group_keys = set(group.group_keys)
    for _, call in group.aggregates:
        if partner_alias in call.aliases():
            raise TransformError(
                "aggregate arguments reference the partner relation"
            )
    for key in group.group_keys:
        if key[0] == partner_alias:
            raise TransformError(
                "grouping columns reference the partner relation; rewrite "
                "them to the kept side first"
            )
    partner_join_columns: Set[str] = set()
    for left_key, right_key in join.equi_keys:
        if left_key not in group_keys:
            raise TransformError(
                f"join column {left_key} is not a grouping column"
            )
        partner_join_columns.add(right_key[1])
    for predicate in join.residuals:
        if partner_alias in predicate.aliases():
            raise TransformError(
                "residual predicates touch the partner relation"
            )
    primary_key = catalog.primary_key(partner.table_name)
    if not primary_key or not set(primary_key) <= partner_join_columns:
        raise TransformError(
            "the partner's join columns do not cover its primary key "
            "(each group must match at most one partner row)"
        )

    pushed = GroupByNode(
        join.left,
        group_keys=group.group_keys,
        aggregates=group.aggregates,
        having=group.having,  # the HAVING clause is pushed down too
        method=group.method,
    )
    return JoinNode(
        pushed,
        partner,
        method=join.method,
        equi_keys=join.equi_keys,
        residuals=join.residuals,
        projection=group.projection,
        index_name=join.index_name,
    )
