"""View matching: which materialized views can answer a query block?

The legality conditions follow Cohen & Nutt's rewriting framework for
aggregate queries using views, specialized to this model's dialect
(conjunctive predicates, no NULLs, bag semantics):

1. **Same SPJ scope** — the block joins the same multiset of base
   tables as the view body. Matching enumerates alias bijections that
   respect table names (a view over ``emp e`` matches a query over
   ``emp e2``).
2. **Predicate subsumption** — every view predicate, translated through
   the alias bijection, appears among the query's conjuncts (up to
   comparison flipping and ``=``/``!=`` operand order). The query may
   have *extra* predicates, but only over the view's grouping columns
   (directly or through an equi-join equivalence class); those become
   residual filters over the backing table. A query predicate over a
   non-grouping column would need row-level data the view aggregated
   away — the view is ineligible, never wrong.
3. **Grouping refinement** — every query grouping column resolves to a
   view grouping column (again up to equivalences), so query groups are
   unions of view groups and can be rebuilt by *coalescing* partials.
4. **Decomposable aggregates** — the query's aggregates decompose
   (``decompose_aggregates``), and every partial they need is stored by
   the view. Views whose own aggregates are holistic never match.

A successful match yields a :class:`ViewMatch` with everything
``views.rewrite`` needs to build the backing-table plan. Stale views
are skipped (the lazy-refresh hook in ``db.py`` freshens relevant views
before optimization, so skipping only matters for direct optimizer
use).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import (
    COMPARISON_FLIP,
    ColumnRef,
    Comparison,
    Expression,
    FieldKey,
)
from ..algebra.query import EquivalenceClasses, QueryBlock
from ..trace import traced
from ..transforms.coalescing import (
    DecomposedAggregates,
    decompose_aggregates,
)
from .registry import MaterializedView

_MAX_BIJECTIONS = 24
"""Cap on alias bijections tried per (block, view) pair; self-join
views beyond 4 copies of one table stop being enumerated exhaustively."""


@dataclass(frozen=True)
class ViewMatch:
    """One legal rewrite of a query block onto a materialized view."""

    view: MaterializedView
    key_resolution: Dict[FieldKey, str]
    """Query-space column key -> backing-table column, for every
    grouping column and residual-predicate column the rewrite needs."""
    group_columns: Tuple[Tuple[FieldKey, str], ...]
    """Per query GROUP BY item: (query key, backing column)."""
    residuals: Tuple[Expression, ...]
    """Query predicates not subsumed by the view (still in query space;
    the rewrite substitutes backing columns)."""
    decomposed: DecomposedAggregates
    """The query's aggregates decomposed into partials/coalescers."""
    partial_columns: Dict[str, str]
    """Query partial name (``__p0``...) -> backing partial column."""
    exact_grouping: bool
    """True when the query's groups coincide with the view's groups, so
    each backing row is one result group and no re-grouping is needed."""


@traced("views.match")
def match_view(
    block: QueryBlock, view: MaterializedView
) -> Optional[ViewMatch]:
    if not view.is_decomposable or view.stale:
        return None
    if not block.is_grouped:
        # The view collapsed rows; an ungrouped block needs them back.
        return None
    if len(block.relations) != len(view.block.relations):
        return None
    if sorted(ref.table for ref in block.relations) != sorted(
        ref.table for ref in view.block.relations
    ):
        return None
    decomposed = decompose_aggregates(block.aggregates)
    if decomposed is None:
        return None
    for bijection in _alias_bijections(view.block, block):
        match = _match_under(block, view, bijection, decomposed)
        if match is not None:
            return match
    return None


def _alias_bijections(
    view_block: QueryBlock, block: QueryBlock
) -> List[Dict[str, str]]:
    """Table-name-respecting bijections: view alias -> query alias."""
    view_groups: Dict[str, List[str]] = {}
    for ref in view_block.relations:
        view_groups.setdefault(ref.table, []).append(ref.alias)
    query_groups: Dict[str, List[str]] = {}
    for ref in block.relations:
        query_groups.setdefault(ref.table, []).append(ref.alias)

    per_table: List[List[List[Tuple[str, str]]]] = []
    total = 1
    for table, view_aliases in sorted(view_groups.items()):
        query_aliases = query_groups.get(table, [])
        if len(query_aliases) != len(view_aliases):
            return []
        pairings = [
            list(zip(view_aliases, permutation))
            for permutation in itertools.permutations(query_aliases)
        ]
        total *= len(pairings)
        if total > _MAX_BIJECTIONS:
            pairings = pairings[:1]
        per_table.append(pairings)

    bijections: List[Dict[str, str]] = []
    for choice in itertools.product(*per_table):
        mapping: Dict[str, str] = {}
        for pairs in choice:
            mapping.update(dict(pairs))
        bijections.append(mapping)
        if len(bijections) >= _MAX_BIJECTIONS:
            break
    return bijections


def _rename(expression: Expression, alias_map: Dict[str, str]) -> Expression:
    mapping = {
        key: ColumnRef(alias_map[key[0]], key[1])
        for key in expression.columns()
        if key[0] in alias_map
    }
    return expression.substitute(mapping) if mapping else expression


def _rename_call(
    call: AggregateCall, alias_map: Dict[str, str]
) -> AggregateCall:
    if call.arg is None:
        return call
    return AggregateCall(call.func_name, _rename(call.arg, alias_map))


def _normalize(predicate: Expression) -> Expression:
    """Canonical spelling for set comparison: flip ``>``/``>=`` to
    ``<``/``<=`` and order commutative operands deterministically."""
    if not isinstance(predicate, Comparison):
        return predicate
    left, right, op = predicate.left, predicate.right, predicate.op
    if op in (">", ">="):
        op = COMPARISON_FLIP[op]
        left, right = right, left
    if op in ("=", "!=") and right.display() < left.display():
        left, right = right, left
    return Comparison(op, left, right)


def _match_under(
    block: QueryBlock,
    view: MaterializedView,
    bijection: Dict[str, str],
    decomposed: DecomposedAggregates,
) -> Optional[ViewMatch]:
    mapped_predicates = [
        _rename(p, bijection) for p in view.block.predicates
    ]
    query_normalized = {_normalize(p) for p in block.predicates}
    view_normalized = {_normalize(p) for p in mapped_predicates}
    if not view_normalized <= query_normalized:
        return None
    residuals = tuple(
        p for p in block.predicates if _normalize(p) not in view_normalized
    )

    # View grouping columns translated into query space.
    view_keys: Dict[FieldKey, str] = {}
    for column_name, ref in view.key_columns:
        view_keys[(bijection[ref.alias], ref.name)] = column_name

    equivalences = EquivalenceClasses(block.predicates)

    def resolve(key: FieldKey) -> Optional[str]:
        direct = view_keys.get(key)
        if direct is not None:
            return direct
        for member in sorted(equivalences.members(key), key=str):
            if member in view_keys:
                return view_keys[member]
        return None

    key_resolution: Dict[FieldKey, str] = {}
    group_columns: List[Tuple[FieldKey, str]] = []
    for ref in block.group_by:
        column = resolve(ref.key)
        if column is None:
            return None
        group_columns.append((ref.key, column))
        key_resolution[ref.key] = column
    for predicate in residuals:
        for key in predicate.columns():
            column = resolve(key)
            if column is None:
                return None
            key_resolution[key] = column

    # Every partial the query needs must be stored by the view. COUNT
    # partials are interchangeable regardless of argument: with no
    # NULLs in the model, count(x) = count(y) = count(*).
    view_partials = [
        (column, _rename_call(call, bijection))
        for column, call in (view.partials or ())
    ]
    partial_columns: Dict[str, str] = {}
    for partial_name, partial_call in decomposed.partials:
        column = _find_partial(partial_call, view_partials)
        if column is None:
            return None
        partial_columns[partial_name] = column

    resolved_columns = {column for _, column in group_columns}
    exact = resolved_columns == {column for column, _ in view.key_columns}
    return ViewMatch(
        view=view,
        key_resolution=key_resolution,
        group_columns=tuple(group_columns),
        residuals=residuals,
        decomposed=decomposed,
        partial_columns=partial_columns,
        exact_grouping=exact,
    )


def _find_partial(
    wanted: AggregateCall,
    available: Sequence[Tuple[str, AggregateCall]],
) -> Optional[str]:
    for column, call in available:
        if call == wanted:
            return column
    if wanted.func_name == "count":
        for column, call in available:
            if call.func_name == "count":
                return column
    return None
