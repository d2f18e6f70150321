"""Binder: parsed SQL to the canonical query form of Figure 3.

Responsibilities:

- resolve table/view names and (possibly unqualified) column references;
- instantiate WITH / catalog views, flattening aggregate-free SPJ views
  into the outer block (the traditional reduction, Section 3) and
  turning grouped views into :class:`AggregateView`s;
- lower explicit JOIN clauses: INNER/CROSS joins are sugar for the
  comma form, LEFT OUTER joins become :class:`JoinUnit`s on the
  canonical query;
- lower WHERE-clause subqueries (scalar comparisons, IN / NOT IN,
  EXISTS / NOT EXISTS, correlated or not) into neutral
  :class:`SubquerySpec`s; the decorrelation pass
  (``repro.transforms.decorrelate``) later flattens them into aggregate
  views and semi/anti join units (Kim's join-aggregate transformation,
  Section 1);
- name aggregate outputs and enforce SQL's grouped-select discipline
  (Section 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import (
    COMPARISON_FLIP,
    ColumnRef,
    Comparison,
    Expression,
    FieldKey,
    Not,
    collect_parameters,
    conjuncts,
    equijoin_sides,
)
from ..algebra.query import (
    AggregateView,
    CanonicalQuery,
    JoinUnit,
    QueryBlock,
    SubquerySpec,
    TableRef,
    rename_block_aliases,
)
from ..catalog.catalog import Catalog
from ..errors import BindError, UnsupportedFeatureError
from ..trace import traced
from .ast import (
    AggregateExpr,
    ExistsExpr,
    InSubqueryExpr,
    JoinClauseAst,
    SelectStmt,
    SubqueryExpr,
    SubqueryPredicate,
    ViewDefAst,
)
from .parser import parse_select


@traced("sql.bind")
def bind_sql(sql: str, catalog: Catalog) -> CanonicalQuery:
    """Parse and bind one SQL statement against *catalog*."""
    return Binder(catalog).bind(parse_select(sql))


class _Scope:
    """Name-resolution scope: alias -> available column names."""

    def __init__(self) -> None:
        self.columns: Dict[str, Set[str]] = {}
        # flattened SPJ view outputs: (alias, name) -> inner expression
        self.substitutions: Dict[FieldKey, Expression] = {}

    def add_alias(self, alias: str, columns: Sequence[str]) -> None:
        if alias in self.columns:
            raise BindError(f"duplicate alias {alias!r}")
        self.columns[alias] = set(columns)

    def resolve(self, reference: ColumnRef) -> Expression:
        if reference.alias is not None:
            substituted = self.substitutions.get(reference.key)
            if substituted is not None:
                return substituted
            available = self.columns.get(reference.alias)
            if available is None:
                raise BindError(f"unknown alias {reference.alias!r}")
            if reference.name not in available:
                raise BindError(
                    f"alias {reference.alias!r} has no column "
                    f"{reference.name!r}"
                )
            return reference
        matches = [
            alias
            for alias, names in self.columns.items()
            if reference.name in names
        ]
        if not matches:
            raise BindError(f"unknown column {reference.name!r}")
        if len(matches) > 1:
            raise BindError(
                f"ambiguous column {reference.name!r} "
                f"(candidates: {sorted(matches)})"
            )
        return self.resolve(ColumnRef(matches[0], reference.name))


class Binder:
    """Binds parsed statements to :class:`CanonicalQuery`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._generated = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def bind(self, stmt: SelectStmt) -> CanonicalQuery:
        view_defs: Dict[str, ViewDefAst] = {}
        for name in self.catalog.view_names():
            definition = self.catalog.view(name)
            if isinstance(definition, ViewDefAst):
                view_defs[name] = definition
        for view in stmt.with_views:
            if view.name in view_defs:
                raise BindError(f"view {view.name!r} defined twice")
            view_defs[view.name] = view

        scope = _Scope()
        base_tables: List[TableRef] = []
        agg_views: List[AggregateView] = []
        predicates: List[Expression] = []
        join_units: List[JoinUnit] = []
        subquery_specs: List[SubquerySpec] = []

        for table_ast in stmt.from_tables:
            alias = table_ast.alias or table_ast.name
            if table_ast.name in view_defs:
                self._instantiate_view(
                    view_defs[table_ast.name],
                    alias,
                    scope,
                    base_tables,
                    agg_views,
                    predicates,
                )
            elif self.catalog.has_table(table_ast.name):
                table = self.catalog.table(table_ast.name)
                scope.add_alias(alias, [c.name for c in table.columns])
                base_tables.append(TableRef(table_ast.name, alias))
            else:
                raise BindError(f"unknown table or view {table_ast.name!r}")

        # JOIN clauses: INNER/CROSS are sugar for the comma form (ON
        # conjuncts join WHERE); LEFT becomes a join unit. All aliases
        # enter scope before any ON expression is resolved.
        inner_on: List[Expression] = []
        left_clauses: List[Tuple[JoinClauseAst, str]] = []
        for clause in stmt.joins:
            alias = clause.table.alias or clause.table.name
            if clause.kind in ("inner", "cross"):
                if clause.table.name in view_defs:
                    self._instantiate_view(
                        view_defs[clause.table.name],
                        alias,
                        scope,
                        base_tables,
                        agg_views,
                        predicates,
                    )
                elif self.catalog.has_table(clause.table.name):
                    table = self.catalog.table(clause.table.name)
                    scope.add_alias(alias, [c.name for c in table.columns])
                    base_tables.append(TableRef(clause.table.name, alias))
                else:
                    raise BindError(
                        f"unknown table or view {clause.table.name!r}"
                    )
                if clause.on is not None:
                    inner_on.append(clause.on)
            else:  # left
                if clause.table.name in view_defs:
                    raise UnsupportedFeatureError(
                        "LEFT JOIN against a view is not supported; join a "
                        "base table"
                    )
                if not self.catalog.has_table(clause.table.name):
                    raise BindError(
                        f"unknown table or view {clause.table.name!r}"
                    )
                table = self.catalog.table(clause.table.name)
                scope.add_alias(alias, [c.name for c in table.columns])
                left_clauses.append((clause, alias))
        for on_expression in inner_on:
            for predicate in conjuncts(on_expression):
                predicates.append(self._resolve(predicate, scope))
        for clause, alias in left_clauses:
            on = tuple(
                self._resolve(predicate, scope)
                for predicate in conjuncts(clause.on)
            )
            join_units.append(
                JoinUnit(
                    alias=alias,
                    kind="left",
                    table=TableRef(clause.table.name, alias),
                    on=on,
                )
            )

        # WHERE: resolve, then lower subqueries to specs
        for predicate in conjuncts(stmt.where):
            resolved = self._resolve(predicate, scope, allow_subquery=True)
            plain, spec = self._lower_predicate(resolved, scope)
            predicates.extend(plain)
            if spec is not None:
                subquery_specs.append(spec)

        group_by, aggregates, having, select = self._bind_projection(
            stmt, scope
        )
        order_by = self._bind_order_by(stmt, scope, select)
        query = CanonicalQuery(
            base_tables=tuple(base_tables),
            views=tuple(agg_views),
            predicates=tuple(predicates),
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            select=select,
            order_by=order_by,
            limit=stmt.limit,
            joins=tuple(join_units),
            subqueries=tuple(subquery_specs),
        )
        self._validate_outer(query)
        return query

    def _bind_order_by(self, stmt: SelectStmt, scope: _Scope, select):
        """Resolve ORDER BY items to SELECT output names.

        Ordering is presentation-level, so it must reference the query's
        outputs — by output name, or by the column a SELECT item copies.
        """
        if not stmt.order_by:
            return ()
        output_names = {name for name, _ in select}
        by_source = {}
        for name, source in select:
            if isinstance(source, ColumnRef):
                by_source.setdefault(source.key, name)
        resolved = []
        for expression, descending in stmt.order_by:
            if not isinstance(expression, ColumnRef):
                raise UnsupportedFeatureError(
                    "ORDER BY supports plain column references only"
                )
            if expression.alias is None and expression.name in output_names:
                resolved.append((expression.name, descending))
                continue
            target = self._resolve(expression, scope)
            if isinstance(target, ColumnRef) and target.key in by_source:
                resolved.append((by_source[target.key], descending))
                continue
            raise UnsupportedFeatureError(
                f"ORDER BY column {expression.display()} must be one of "
                "the selected outputs"
            )
        return tuple(resolved)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def bind_view_block(
        self, definition: ViewDefAst, instance_alias: str
    ) -> QueryBlock:
        """Bind a view body to a QueryBlock with uniquified aliases and
        outputs renamed to the view's declared column names."""
        body = definition.body
        if body.with_views:
            raise UnsupportedFeatureError("nested WITH inside a view body")
        if body.joins:
            raise UnsupportedFeatureError(
                "explicit JOIN clauses inside a view body are not "
                "supported; use the comma form"
            )
        if body.order_by or body.limit is not None:
            raise UnsupportedFeatureError(
                "ORDER BY / LIMIT inside a view body has no effect on the "
                "view's (bag) semantics and is rejected"
            )
        inner_scope = _Scope()
        relations: List[TableRef] = []
        for table_ast in body.from_tables:
            alias = table_ast.alias or table_ast.name
            if not self.catalog.has_table(table_ast.name):
                raise UnsupportedFeatureError(
                    f"view {definition.name!r} references {table_ast.name!r}, "
                    "which is not a base table (views over views are out of "
                    "scope)"
                )
            table = self.catalog.table(table_ast.name)
            inner_scope.add_alias(alias, [c.name for c in table.columns])
            relations.append(TableRef(table_ast.name, alias))

        where = [
            self._resolve(p, inner_scope) for p in conjuncts(body.where)
        ]
        group_refs: List[ColumnRef] = []
        for expression in body.group_by:
            resolved = self._resolve(expression, inner_scope)
            if not isinstance(resolved, ColumnRef):
                raise UnsupportedFeatureError(
                    "GROUP BY expressions (non-columns) are not supported"
                )
            group_refs.append(resolved)

        if len(body.select_items) != len(definition.column_names):
            raise BindError(
                f"view {definition.name!r} declares "
                f"{len(definition.column_names)} columns but selects "
                f"{len(body.select_items)}"
            )

        aggregates: List[Tuple[str, AggregateCall]] = []
        select: List[Tuple[str, Expression]] = []
        for output_name, item in zip(
            definition.column_names, body.select_items
        ):
            resolved = self._resolve(
                item.expression, inner_scope, allow_aggregates=True
            )
            if isinstance(resolved, AggregateExpr):
                call = AggregateCall(resolved.func_name, resolved.arg)
                aggregates.append((output_name, call))
                select.append((output_name, ColumnRef(None, output_name)))
            else:
                select.append((output_name, resolved))

        having: List[Expression] = []
        if body.having is not None:
            having_scope = _HavingRewriter(aggregates, self)
            for predicate in conjuncts(body.having):
                resolved = self._resolve(
                    predicate, inner_scope, allow_aggregates=True
                )
                having.append(having_scope.rewrite(resolved))
            aggregates = having_scope.aggregates

        if aggregates and not group_refs:
            # SQL's scalar aggregate yields one row over an empty input;
            # a block grouped on nothing yields none, which only
            # decorrelation's views rely on.
            raise UnsupportedFeatureError(
                f"view {definition.name!r} aggregates without GROUP BY "
                "(scalar aggregation), which is not supported in a view"
            )
        block = QueryBlock(
            relations=tuple(relations),
            predicates=tuple(where),
            group_by=tuple(group_refs),
            aggregates=tuple(aggregates),
            having=tuple(having),
            select=tuple(select),
        )
        block.validate()
        # Uniquify inner aliases so one view can be referenced twice.
        alias_map = {
            ref.alias: f"{instance_alias}__{ref.alias}"
            for ref in block.relations
        }
        return rename_block_aliases(block, alias_map)

    def _instantiate_view(
        self,
        definition: ViewDefAst,
        alias: str,
        scope: _Scope,
        base_tables: List[TableRef],
        agg_views: List[AggregateView],
        predicates: List[Expression],
    ) -> None:
        block = self.bind_view_block(definition, alias)
        if block.is_grouped:
            scope.add_alias(alias, definition.column_names)
            agg_views.append(AggregateView(alias=alias, block=block))
            return
        # SPJ view: flatten into the outer block (traditional reduction).
        scope.add_alias(alias, definition.column_names)
        for output_name, source in block.select:
            scope.substitutions[(alias, output_name)] = source
        base_tables.extend(block.relations)
        predicates.extend(block.predicates)

    # ------------------------------------------------------------------
    # Expression resolution
    # ------------------------------------------------------------------

    def _resolve(
        self,
        expression: Expression,
        scope: _Scope,
        allow_subquery: bool = False,
        allow_aggregates: bool = False,
    ) -> Expression:
        """*expression* with every column reference resolved in *scope*.
        Subqueries stay for :meth:`_lower_predicate` (each has its own
        scope); an aggregate's argument resolves with neither allowed."""
        if isinstance(expression, ColumnRef):
            return scope.resolve(expression)
        if isinstance(expression, SubqueryPredicate) and not allow_subquery:
            raise UnsupportedFeatureError(
                "subqueries are only supported in the WHERE clause"
            )
        if isinstance(expression, AggregateExpr):
            if not allow_aggregates:
                raise BindError(
                    f"aggregate {expression.display()} is only allowed in "
                    "a SELECT item or HAVING, and not inside another "
                    "aggregate"
                )
            return expression.map_children(
                lambda child: self._resolve(child, scope)
            )
        return expression.map_children(
            lambda child: self._resolve(
                child, scope, allow_subquery, allow_aggregates
            )
        )

    # ------------------------------------------------------------------
    # Subquery lowering (to neutral specs; flattening happens in
    # transforms.decorrelate, which has the optimizer options in hand)
    # ------------------------------------------------------------------

    def _lower_predicate(
        self, predicate: Expression, scope: _Scope
    ) -> Tuple[List[Expression], Optional[SubquerySpec]]:
        """Split a resolved WHERE conjunct into plain predicates and an
        optional subquery spec."""
        if isinstance(predicate, InSubqueryExpr):
            if _contains_subquery(predicate.item):
                raise UnsupportedFeatureError(
                    "the left operand of IN (subquery) cannot itself "
                    "contain a subquery"
                )
            spec = self._lower_subquery_block(
                predicate.stmt,
                scope,
                kind="in",
                negate=predicate.negate,
                outer=predicate.item,
            )
            return [], spec
        if isinstance(predicate, ExistsExpr):
            return [], self._lower_subquery_block(
                predicate.stmt, scope, kind="exists"
            )
        if isinstance(predicate, Not) and isinstance(
            predicate.item, ExistsExpr
        ):
            return [], self._lower_subquery_block(
                predicate.item.stmt, scope, kind="exists", negate=True
            )
        if isinstance(predicate, Not) and isinstance(
            predicate.item, InSubqueryExpr
        ):
            inner = predicate.item
            return [], self._lower_subquery_block(
                inner.stmt,
                scope,
                kind="in",
                negate=not inner.negate,
                outer=inner.item,
            )
        if not isinstance(predicate, Comparison):
            self._reject_stray_subquery(predicate)
            return [predicate], None
        left_sub = isinstance(predicate.left, SubqueryExpr)
        right_sub = isinstance(predicate.right, SubqueryExpr)
        if not (left_sub or right_sub):
            self._reject_stray_subquery(predicate)
            return [predicate], None
        if left_sub and right_sub:
            raise UnsupportedFeatureError(
                "comparisons between two subqueries are not supported"
            )
        subquery = predicate.right if right_sub else predicate.left
        outer_side = predicate.left if right_sub else predicate.right
        assert isinstance(subquery, SubqueryExpr)
        if _contains_subquery(outer_side):
            raise UnsupportedFeatureError(
                "comparisons between two subqueries are not supported"
            )
        op = predicate.op if right_sub else COMPARISON_FLIP[predicate.op]
        spec = self._lower_subquery_block(
            subquery.stmt, scope, kind="scalar", outer=outer_side, op=op
        )
        return [], spec

    def _reject_stray_subquery(self, predicate: Expression) -> None:
        """Subqueries are only supported as a top-level AND-ed conjunct
        (one side of a comparison, an IN/EXISTS test, or the NOT of
        one); anywhere else (inside OR, arithmetic, IS NULL) must fail
        at bind time, not at execution."""
        if isinstance(predicate, SubqueryExpr):
            raise UnsupportedFeatureError(
                "a subquery must appear on one side of a comparison"
            )
        if _contains_subquery(predicate):
            raise UnsupportedFeatureError(
                f"WHERE conjunct {predicate.display()}: subqueries are only "
                "supported as a top-level AND-ed conjunct (one side of a "
                "comparison, [NOT] IN or [NOT] EXISTS), not inside OR, "
                "arithmetic or IS [NOT] NULL"
            )

    def _lower_subquery_block(
        self,
        stmt: SelectStmt,
        outer_scope: _Scope,
        kind: str,
        negate: bool = False,
        outer: Optional[Expression] = None,
        op: Optional[str] = None,
    ) -> SubquerySpec:
        """Bind one WHERE-clause subquery body to a neutral
        :class:`SubquerySpec` with uniquified inner aliases."""
        if (
            stmt.with_views
            or stmt.group_by
            or stmt.having is not None
            or stmt.order_by
            or stmt.limit is not None
            or stmt.joins
        ):
            raise UnsupportedFeatureError(
                "subqueries must be simple single-block SELECTs (no WITH/"
                "GROUP BY/HAVING/ORDER BY/LIMIT/JOIN inside a subquery)"
            )

        inner_scope = _Scope()
        relations: List[TableRef] = []
        for table_ast in stmt.from_tables:
            alias = table_ast.alias or table_ast.name
            if not self.catalog.has_table(table_ast.name):
                raise UnsupportedFeatureError(
                    "subqueries may only reference base tables"
                )
            table = self.catalog.table(table_ast.name)
            inner_scope.add_alias(alias, [c.name for c in table.columns])
            relations.append(TableRef(table_ast.name, alias))

        local: List[Expression] = []
        correlations: List[Tuple[ColumnRef, ColumnRef]] = []
        for predicate in conjuncts(stmt.where):
            split = self._split_correlation(
                predicate, inner_scope, outer_scope
            )
            if split is None:
                local.append(self._resolve(predicate, inner_scope))
            else:
                correlations.append(split)

        value: Optional[Expression] = None
        aggregate: Optional[AggregateCall] = None
        if kind == "scalar":
            if len(stmt.select_items) != 1:
                raise UnsupportedFeatureError(
                    "a scalar subquery must select exactly one value"
                )
            agg_item = stmt.select_items[0].expression
            if not isinstance(agg_item, AggregateExpr):
                raise UnsupportedFeatureError(
                    "only aggregate scalar subqueries are supported"
                )
            arg = (
                self._resolve(agg_item.arg, inner_scope)
                if agg_item.arg is not None
                else None
            )
            aggregate = AggregateCall(agg_item.func_name, arg)
        elif kind == "in":
            if len(stmt.select_items) != 1:
                raise UnsupportedFeatureError(
                    "IN (subquery) must select exactly one value"
                )
            item = stmt.select_items[0].expression
            if isinstance(item, AggregateExpr) or _contains_subquery(item):
                raise UnsupportedFeatureError(
                    "IN (subquery) must select a plain (non-aggregate) value"
                )
            value = self._resolve(item, inner_scope)

        spec_alias = self._fresh_name("sq")
        alias_map = {
            ref.alias: f"{spec_alias}__{ref.alias}" for ref in relations
        }

        def rename(expression: Expression) -> Expression:
            mapping = {
                key: ColumnRef(alias_map[key[0]], key[1])
                for key in expression.columns()
                if key[0] in alias_map
            }
            return (
                expression.substitute(mapping) if mapping else expression
            )

        return SubquerySpec(
            alias=spec_alias,
            kind=kind,
            negate=negate,
            op=op,
            outer=outer,
            relations=tuple(
                TableRef(ref.table, alias_map[ref.alias])
                for ref in relations
            ),
            local_predicates=tuple(rename(p) for p in local),
            correlations=tuple(
                (rename(inner), outer_ref)
                for inner, outer_ref in correlations
            ),
            value=rename(value) if value is not None else None,
            aggregate=(
                AggregateCall(
                    aggregate.func_name,
                    rename(aggregate.arg)
                    if aggregate.arg is not None
                    else None,
                )
                if aggregate is not None
                else None
            ),
        )

    def _split_correlation(
        self,
        predicate: Expression,
        inner_scope: _Scope,
        outer_scope: _Scope,
    ) -> Optional[Tuple[ColumnRef, ColumnRef]]:
        """If *predicate* is an equality correlating an inner column with
        an outer column, return ``(inner_ref, outer_ref)``; else None."""
        sides = equijoin_sides(predicate)
        if sides is None:
            return None
        resolved: List[Tuple[str, ColumnRef]] = []
        for key in sides:
            reference = ColumnRef(*key)
            try:
                inner = inner_scope.resolve(reference)
                resolved.append(("inner", inner))  # type: ignore[arg-type]
                continue
            except BindError:
                pass
            outer = outer_scope.resolve(reference)
            if not isinstance(outer, ColumnRef):
                raise UnsupportedFeatureError(
                    "correlation through a flattened view output is not "
                    "supported"
                )
            resolved.append(("outer", outer))
        kinds = {kind for kind, _ in resolved}
        if kinds == {"inner"}:
            return None
        if kinds == {"outer"}:
            raise BindError(
                "subquery predicate references only outer columns"
            )
        inner_ref = next(ref for kind, ref in resolved if kind == "inner")
        outer_ref = next(ref for kind, ref in resolved if kind == "outer")
        if not isinstance(inner_ref, ColumnRef):
            raise UnsupportedFeatureError(
                "correlation columns must be plain columns"
            )
        return inner_ref, outer_ref

    # ------------------------------------------------------------------
    # Outer projection / grouping
    # ------------------------------------------------------------------

    def _bind_projection(self, stmt: SelectStmt, scope: _Scope):
        group_refs: List[ColumnRef] = []
        for expression in stmt.group_by:
            resolved = self._resolve(expression, scope)
            if not isinstance(resolved, ColumnRef):
                raise UnsupportedFeatureError(
                    "GROUP BY expressions (non-columns) are not supported"
                )
            group_refs.append(resolved)

        aggregates: List[Tuple[str, AggregateCall]] = []

        def intern_aggregate(agg: AggregateExpr, hint: Optional[str]) -> str:
            call = AggregateCall(agg.func_name, agg.arg)
            for name, existing in aggregates:
                if existing == call:
                    return name
            name = hint or self._aggregate_name(agg, aggregates)
            if any(name == existing for existing, _ in aggregates):
                name = self._fresh_name(name)
            aggregates.append((name, call))
            return name

        select: List[Tuple[str, Expression]] = []
        for position, item in enumerate(stmt.select_items):
            resolved = self._resolve(
                item.expression, scope, allow_aggregates=True
            )
            if isinstance(resolved, AggregateExpr):
                name = intern_aggregate(resolved, item.output_name)
                select.append((name, ColumnRef(None, name)))
            else:
                name = item.output_name or self._output_name(
                    resolved, position
                )
                if any(name == existing for existing, _ in select):
                    name = self._fresh_name(name)
                select.append((name, resolved))

        having: List[Expression] = []
        if stmt.having is not None:
            for predicate in conjuncts(stmt.having):
                resolved = self._resolve(
                    predicate, scope, allow_aggregates=True
                )
                having.append(
                    _replace_aggregates(resolved, intern_aggregate)
                )

        if aggregates and not group_refs:
            raise UnsupportedFeatureError(
                "aggregates without GROUP BY (scalar aggregation) are not "
                "supported at the outer block"
            )
        return (
            tuple(group_refs),
            tuple(aggregates),
            tuple(having),
            tuple(select),
        )

    def _validate_outer(self, query: CanonicalQuery) -> None:
        self._reject_non_predicate_parameters(query)
        if not query.is_grouped:
            return
        group_keys = {reference.key for reference in query.group_by}
        agg_keys = {(None, name) for name, _ in query.aggregates}
        for name, source in query.select:
            for key in source.columns():
                if key not in group_keys and key not in agg_keys:
                    raise BindError(
                        f"selected column {key} must be a grouping column or "
                        "aggregate output (SQL semantics)"
                    )
        for predicate in query.having:
            for key in predicate.columns():
                if key not in group_keys and key not in agg_keys:
                    raise BindError(
                        f"HAVING column {key} must be a grouping column or "
                        "aggregate output"
                    )

    @staticmethod
    def _reject_non_predicate_parameters(query: CanonicalQuery) -> None:
        """Parameters (``$n``) stand for literal *values* in predicates;
        a parameter in a SELECT item or aggregate argument — of the
        outer block, a view, or a scalar subquery — would have no type
        until EXECUTE, so the plan's schema could not be built."""
        places = [(f"SELECT item {name!r}", e) for name, e in query.select]
        places += [
            ("an aggregate argument", call.arg)
            for _, call in query.aggregates
        ]
        for view in query.views:
            places += [
                (f"view {view.alias!r} SELECT item {name!r}", e)
                for name, e in view.block.select
            ]
            places += [
                (f"an aggregate argument of view {view.alias!r}", call.arg)
                for _, call in view.block.aggregates
            ]
        places += [
            ("a scalar subquery's aggregate argument", spec.aggregate.arg)
            for spec in query.subqueries
            if spec.aggregate is not None
        ]
        for place, expression in places:
            if expression is not None and collect_parameters(expression):
                raise BindError(
                    f"parameter in {place}: parameters may only appear "
                    "in WHERE/HAVING predicates"
                )

    # ------------------------------------------------------------------
    # Name generation
    # ------------------------------------------------------------------

    def _fresh_name(self, stem: str) -> str:
        self._generated += 1
        return f"{stem}_{self._generated}"

    @staticmethod
    def _aggregate_name(agg: AggregateExpr, existing) -> str:
        if isinstance(agg.arg, ColumnRef):
            return f"{agg.func_name}_{agg.arg.name}"
        if agg.arg is None:
            return f"{agg.func_name}_all"
        return f"{agg.func_name}_{len(existing)}"

    @staticmethod
    def _output_name(expression: Expression, position: int) -> str:
        if isinstance(expression, ColumnRef):
            return expression.name
        return f"col_{position}"


class _HavingRewriter:
    """Replaces AggregateExprs in a view's HAVING clause with references
    to (possibly newly added) aggregate outputs."""

    def __init__(self, aggregates, binder: Binder):
        self.aggregates: List[Tuple[str, AggregateCall]] = list(aggregates)
        self._binder = binder

    def rewrite(self, expression: Expression) -> Expression:
        def intern(agg: AggregateExpr, hint: Optional[str]) -> str:
            call = AggregateCall(agg.func_name, agg.arg)
            for name, existing in self.aggregates:
                if existing == call:
                    return name
            name = hint or Binder._aggregate_name(agg, self.aggregates)
            if any(name == existing for existing, _ in self.aggregates):
                name = self._binder._fresh_name(name)
            self.aggregates.append((name, call))
            return name

        return _replace_aggregates(expression, intern)


def _contains_subquery(expression: Expression) -> bool:
    return isinstance(expression, SubqueryPredicate) or any(
        map(_contains_subquery, expression.children)
    )


def _replace_aggregates(expression: Expression, intern) -> Expression:
    """Replace every AggregateExpr with its output reference."""
    if isinstance(expression, AggregateExpr):
        return ColumnRef(None, intern(expression, None))
    return expression.map_children(
        lambda child: _replace_aggregates(child, intern)
    )
