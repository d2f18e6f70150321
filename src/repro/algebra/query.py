"""The logical query model: SPJ blocks, aggregate views, canonical form.

The paper's target class (Figure 3) is a join among base tables
``B1..Bn`` and aggregate views ``Q1..Qm``, optionally followed by an
outer group-by ``G0`` with a HAVING clause. Each aggregate view is a
single-block query ``G(V)``: a select-project-join expression ``V`` with
a group-by operator ``G`` (Section 2).

:class:`QueryBlock` models one single-block query (grouped or not);
:class:`AggregateView` is a named, grouped block; :class:`CanonicalQuery`
is the full Figure 3 form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..errors import BindError, PlanError
from .aggregates import AggregateCall
from .expressions import (
    ColumnRef,
    Expression,
    FieldKey,
    equijoin_sides,
)

JOIN_UNIT_KINDS = ("left", "semi", "anti")
SUBQUERY_KINDS = ("scalar", "in", "exists")


@dataclass(frozen=True)
class TableRef:
    """A reference to a stored table under an alias (``emp e``)."""

    table: str
    alias: str

    def __post_init__(self) -> None:
        if not self.table or not self.alias:
            raise PlanError("table reference needs a table name and alias")


@dataclass(frozen=True)
class QueryBlock:
    """A single-block query: SPJ plus an optional group-by/HAVING.

    - ``relations``: the base tables joined by the block (the paper's V).
    - ``predicates``: WHERE conjuncts over the relations' columns.
    - ``group_by``: grouping columns; empty for a pure SPJ block.
    - ``aggregates``: ``(output_name, AggregateCall)`` pairs. Aggregate
      outputs are referenced downstream as unqualified columns
      (``ColumnRef(None, output_name)``).
    - ``having``: conjuncts over grouping columns and aggregate outputs.
    - ``select``: ``(output_name, Expression)`` pairs defining the output
      columns; for grouped blocks each source must be a grouping column
      or an aggregate output (SQL semantics, Section 2).
    """

    relations: Tuple[TableRef, ...]
    predicates: Tuple[Expression, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[Tuple[str, AggregateCall], ...] = ()
    having: Tuple[Expression, ...] = ()
    select: Tuple[Tuple[str, Expression], ...] = ()

    def __post_init__(self) -> None:
        if not self.relations:
            raise PlanError("a query block needs at least one relation")
        aliases = [ref.alias for ref in self.relations]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aliases in block: {aliases}")
        if self.having and not self.is_grouped:
            raise PlanError("HAVING requires a GROUP BY or an aggregate")

    @property
    def is_grouped(self) -> bool:
        """Grouping columns or aggregates: a block with aggregates and
        no GROUP BY is grouped on nothing (one group over the whole
        input, none over an empty one)."""
        return bool(self.group_by) or bool(self.aggregates)

    @property
    def aliases(self) -> FrozenSet[str]:
        return frozenset(ref.alias for ref in self.relations)

    def alias_map(self) -> Dict[str, str]:
        """alias -> table name."""
        return {ref.alias: ref.table for ref in self.relations}

    def aggregate_output_keys(self) -> FrozenSet[FieldKey]:
        """Field keys of the aggregate outputs (alias is always None)."""
        return frozenset((None, name) for name, _ in self.aggregates)

    def validate(self) -> None:
        """Check SQL semantics: grouped-select discipline, alias scoping."""
        aliases = self.aliases
        for predicate in self.predicates:
            unknown = predicate.aliases() - aliases
            if unknown:
                raise BindError(
                    f"WHERE predicate {predicate.display()} references "
                    f"unknown aliases {sorted(unknown)}"
                )
        for reference in self.group_by:
            if reference.alias is not None and reference.alias not in aliases:
                raise BindError(
                    f"grouping column {reference.display()} references an "
                    "unknown alias"
                )
        group_keys = {reference.key for reference in self.group_by}
        agg_keys = self.aggregate_output_keys()
        if self.is_grouped:
            for output_name, source in self.select:
                for key in source.columns():
                    if key not in group_keys and key not in agg_keys:
                        raise BindError(
                            f"selected column {key} must be a grouping "
                            "column or an aggregate output (SQL semantics)"
                        )
            for predicate in self.having:
                for key in predicate.columns():
                    if key not in group_keys and key not in agg_keys:
                        raise BindError(
                            f"HAVING column {key} must be a grouping column "
                            "or an aggregate output"
                        )


@dataclass(frozen=True)
class AggregateView:
    """A named aggregate view: ``alias`` is how the outer query refers to
    it; ``block`` must be grouped (that is what makes it *aggregate*)."""

    alias: str
    block: QueryBlock

    def __post_init__(self) -> None:
        if not self.block.is_grouped:
            raise PlanError(
                f"view {self.alias!r} has no GROUP BY; flatten it instead "
                "(traditional view merging applies to SPJ views)"
            )

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.block.select)

    def output_source(self, name: str) -> Expression:
        """The inner expression a view output column refers to."""
        for output_name, source in self.block.select:
            if output_name == name:
                return source
        raise BindError(f"view {self.alias!r} has no output column {name!r}")

    def aggregated_outputs(self) -> FrozenSet[str]:
        """View output columns whose source is an aggregate (the
        "aggregated columns" pull-up must defer predicates on)."""
        agg_keys = self.block.aggregate_output_keys()
        result: Set[str] = set()
        for output_name, source in self.block.select:
            if source.columns() & agg_keys:
                result.add(output_name)
        return frozenset(result)


@dataclass(frozen=True)
class JoinUnit:
    """A non-inner join attached to the outer block.

    ``alias`` is the joined side: a base table when ``table`` is given,
    otherwise the alias of an :class:`AggregateView` in the enclosing
    query. ``kind`` is one of ``left`` (LEFT OUTER), ``semi`` (IN /
    EXISTS flattening) or ``anti`` (NOT IN / NOT EXISTS flattening).
    ``on`` holds the join condition's conjuncts; for a ``left`` unit
    unmatched probe rows survive NULL-padded, for ``semi``/``anti`` the
    output schema is the probe side only.

    ``filters`` are conjuncts over the unit's own columns, applied to
    the joined side *before* matching (a flattened subquery's local
    WHERE). ``null_aware`` marks the anti-join produced by ``NOT IN``,
    whose ``on`` is the membership key plus correlation keys: the
    membership equality first, then the correlation equalities, all
    between plain columns. Per correlation group — the inner rows
    whose correlation keys equal the probe row's — an empty group
    keeps the probe row, a NULL among the group's membership values
    drops every unmatched row of the group, and a NULL probe value
    drops its row whenever its group is non-empty (SQL three-valued
    logic).
    """

    alias: str
    kind: str
    table: Optional[TableRef] = None
    on: Tuple[Expression, ...] = ()
    filters: Tuple[Expression, ...] = ()
    null_aware: bool = False

    def __post_init__(self) -> None:
        if self.kind not in JOIN_UNIT_KINDS:
            raise PlanError(f"unknown join unit kind {self.kind!r}")
        if not self.alias:
            raise PlanError("a join unit needs an alias")
        if self.table is not None and self.table.alias != self.alias:
            raise PlanError("join unit alias must match its table alias")
        if self.null_aware and self.kind != "anti":
            raise PlanError("null_aware applies to anti joins only")


@dataclass(frozen=True)
class SubquerySpec:
    """A WHERE-clause subquery lowered by the binder, not yet flattened.

    The binder renames the inner block's aliases with an ``{alias}__``
    prefix so they can never collide with outer aliases. The
    decorrelation pass flattens every spec into views / join units; the
    reference evaluator runs it unflattened, as the oracle.

    - ``kind``: ``scalar`` (comparison with an aggregate subquery),
      ``in`` (membership), or ``exists``.
    - ``negate``: NOT IN / NOT EXISTS.
    - ``op`` / ``outer``: for ``scalar``, the comparison operator and
      outer-side expression (normalized to ``outer op (subquery)``);
      for ``in``, ``outer`` is the left operand of the membership test.
    - ``relations`` / ``local_predicates``: the inner FROM and its
      uncorrelated WHERE conjuncts (renamed aliases).
    - ``correlations``: ``(inner_column, outer_column)`` equality pairs.
    - ``value``: the inner select item for ``in``.
    - ``aggregate``: the aggregate call for ``scalar``.
    """

    alias: str
    kind: str
    negate: bool = False
    op: Optional[str] = None
    outer: Optional[Expression] = None
    relations: Tuple[TableRef, ...] = ()
    local_predicates: Tuple[Expression, ...] = ()
    correlations: Tuple[Tuple[ColumnRef, ColumnRef], ...] = ()
    value: Optional[Expression] = None
    aggregate: Optional[AggregateCall] = None

    def __post_init__(self) -> None:
        if self.kind not in SUBQUERY_KINDS:
            raise PlanError(f"unknown subquery kind {self.kind!r}")
        if not self.relations:
            raise PlanError("a subquery spec needs at least one relation")


@dataclass(frozen=True)
class CanonicalQuery:
    """The Figure 3 form: base tables + aggregate views, joined, with an
    optional outer group-by ``G0`` and HAVING.

    ``order_by`` lists ``(output_name, descending)`` pairs over the
    SELECT outputs and ``limit`` keeps the first N ordered rows; both
    are presentation-level (applied above the optimized plan) and
    orthogonal to the paper's transformations.
    """

    base_tables: Tuple[TableRef, ...] = ()
    views: Tuple[AggregateView, ...] = ()
    predicates: Tuple[Expression, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[Tuple[str, AggregateCall], ...] = ()
    having: Tuple[Expression, ...] = ()
    select: Tuple[Tuple[str, Expression], ...] = ()
    order_by: Tuple[Tuple[str, bool], ...] = ()
    limit: Optional[int] = None
    joins: Tuple[JoinUnit, ...] = ()
    subqueries: Tuple[SubquerySpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.base_tables and not self.views:
            raise PlanError("a query needs at least one table or view")
        aliases = [ref.alias for ref in self.base_tables] + [
            view.alias for view in self.views
        ] + [unit.alias for unit in self.joins if unit.table is not None]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aliases in query: {aliases}")
        for unit in self.joins:
            if unit.table is None and unit.alias not in {
                view.alias for view in self.views
            }:
                raise PlanError(
                    f"join unit {unit.alias!r} names no view in the query"
                )

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by)

    @property
    def aliases(self) -> FrozenSet[str]:
        return (
            frozenset(ref.alias for ref in self.base_tables)
            | frozenset(view.alias for view in self.views)
            | frozenset(
                unit.alias for unit in self.joins if unit.table is not None
            )
        )

    @property
    def view_aliases(self) -> FrozenSet[str]:
        return frozenset(view.alias for view in self.views)

    @property
    def tables(self) -> FrozenSet[str]:
        """Every stored table the query reads: its FROM list, its
        views' and subqueries' FROM lists and its joined tables."""
        tables = {ref.table for ref in self.base_tables}
        for view in self.views:
            tables.update(ref.table for ref in view.block.relations)
        for unit in self.joins:
            if unit.table is not None:
                tables.add(unit.table.table)
        for spec in self.subqueries:
            tables.update(ref.table for ref in spec.relations)
        return frozenset(tables)

    def view(self, alias: str) -> AggregateView:
        for view in self.views:
            if view.alias == alias:
                return view
        raise BindError(f"no view with alias {alias!r}")


# ----------------------------------------------------------------------
# Column equivalence classes
# ----------------------------------------------------------------------


class EquivalenceClasses:
    """Union-find over column field keys induced by equi-join predicates.

    Used by the minimal-invariant-set computation (Section 4.1): a
    grouping column sourced from a removable relation is acceptable when
    an equivalent column exists on the retained side (``e.dno = d.dno``
    makes the two interchangeable as grouping columns).
    """

    def __init__(self, predicates: Iterable[Expression] = ()):
        self._parent: Dict[FieldKey, FieldKey] = {}
        for predicate in predicates:
            sides = equijoin_sides(predicate)
            if sides is not None:
                self.union(*sides)

    def _find(self, key: FieldKey) -> FieldKey:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self._find(parent)
        self._parent[key] = root
        return root

    def union(self, a: FieldKey, b: FieldKey) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def equivalent(self, a: FieldKey, b: FieldKey) -> bool:
        return self._find(a) == self._find(b)

    def members(self, key: FieldKey) -> Set[FieldKey]:
        root = self._find(key)
        return {
            candidate
            for candidate in self._parent
            if self._find(candidate) == root
        }

    def representative_in(
        self, key: FieldKey, aliases: FrozenSet[str]
    ) -> Optional[FieldKey]:
        """An equivalent key whose alias lies in *aliases*, if any."""
        if key[0] in aliases:
            return key
        for candidate in sorted(self.members(key), key=str):
            if candidate[0] in aliases:
                return candidate
        return None


def rename_block_aliases(
    block: QueryBlock, alias_map: Dict[str, str]
) -> QueryBlock:
    """Rewrite a block's relation aliases everywhere (relations,
    predicates, grouping columns, aggregate arguments, HAVING, select).

    Used when instantiating a view under an outer alias: the view body's
    internal aliases are made globally unique so the same view can be
    referenced twice in one query.
    """

    def rename_expr(expression: Expression) -> Expression:
        mapping = {
            key: ColumnRef(alias_map.get(key[0], key[0]), key[1])
            for key in expression.columns()
            if key[0] in alias_map
        }
        return expression.substitute(mapping) if mapping else expression

    return QueryBlock(
        relations=tuple(
            TableRef(ref.table, alias_map.get(ref.alias, ref.alias))
            for ref in block.relations
        ),
        predicates=tuple(rename_expr(p) for p in block.predicates),
        group_by=tuple(
            ColumnRef(alias_map.get(c.alias, c.alias), c.name)
            for c in block.group_by
        ),
        aggregates=tuple(
            (
                name,
                AggregateCall(
                    call.func_name,
                    rename_expr(call.arg) if call.arg is not None else None,
                ),
            )
            for name, call in block.aggregates
        ),
        having=tuple(rename_expr(p) for p in block.having),
        select=tuple(
            (name, rename_expr(source)) for name, source in block.select
        ),
    )
