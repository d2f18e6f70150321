"""Render a canonical query back to SQL text.

The inverse of the binder, up to alias uniquification: the emitted SQL
re-binds to a semantically equivalent canonical query. Used for
debugging, for displaying what a transformation did to a query, and in
the round-trip property tests.
"""

from __future__ import annotations

from typing import List

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    IsNull,
    Literal,
    Not,
    Or,
)
from ..algebra.query import (
    AggregateView,
    CanonicalQuery,
    JoinUnit,
    QueryBlock,
    SubquerySpec,
    TableRef,
)
from ..catalog.schema import RID_COLUMN
from ..errors import UnsupportedFeatureError
from .ast import UnboundExpression


def expression_to_sql(expression: Expression) -> str:
    """SQL text of one scalar expression."""
    if isinstance(expression, ColumnRef):
        if expression.name == RID_COLUMN:
            raise UnsupportedFeatureError(
                "the hidden row id has no SQL spelling; unparse before "
                "pull-up introduces surrogate keys"
            )
        return expression.display()
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return repr(value)
    if isinstance(expression, Comparison):
        return (
            f"({expression_to_sql(expression.left)} {expression.op} "
            f"{expression_to_sql(expression.right)})"
        )
    if isinstance(expression, Arith):
        return (
            f"({expression_to_sql(expression.left)} {expression.op} "
            f"{expression_to_sql(expression.right)})"
        )
    if isinstance(expression, And):
        return " and ".join(
            expression_to_sql(item) for item in expression.items
        )
    if isinstance(expression, Or):
        return (
            "("
            + " or ".join(expression_to_sql(item) for item in expression.items)
            + ")"
        )
    if isinstance(expression, Not):
        return f"not {expression_to_sql(expression.item)}"
    if isinstance(expression, IsNull):
        suffix = "is not null" if expression.negate else "is null"
        return f"({expression_to_sql(expression.item)} {suffix})"
    if isinstance(expression, _AggregatePlaceholder):
        return aggregate_to_sql(expression.call)
    if isinstance(expression, FuncCall):
        raise UnsupportedFeatureError(
            f"scalar function {expression.func_name!r} has no SQL spelling"
        )
    raise UnsupportedFeatureError(
        f"cannot unparse expression type {type(expression).__name__}"
    )


def aggregate_to_sql(call: AggregateCall) -> str:
    """SQL text of one aggregate call."""
    if call.arg is None:
        return f"{call.func_name}(*)"
    return f"{call.func_name}({expression_to_sql(call.arg)})"


def block_to_sql(block: QueryBlock) -> str:
    """The SELECT text of one single-block query (no trailing newline)."""
    select_parts: List[str] = []
    aggregate_map = dict(block.aggregates)
    for name, source in block.select:
        if (
            isinstance(source, ColumnRef)
            and source.alias is None
            and source.name in aggregate_map
        ):
            select_parts.append(aggregate_to_sql(aggregate_map[source.name]))
        else:
            select_parts.append(expression_to_sql(source))
    from_parts = [f"{ref.table} {ref.alias}" for ref in block.relations]
    lines = [
        "select " + ", ".join(select_parts),
        "from " + ", ".join(from_parts),
    ]
    if block.predicates:
        lines.append(
            "where "
            + " and ".join(
                expression_to_sql(predicate)
                for predicate in block.predicates
            )
        )
    if block.group_by:
        lines.append(
            "group by "
            + ", ".join(ref.display() for ref in block.group_by)
        )
    if block.having:
        lines.append(
            "having "
            + " and ".join(
                expression_to_sql(_inline_aggregates(p, aggregate_map))
                for p in block.having
            )
        )
    return "\n".join(lines)


def _inline_aggregates(expression: Expression, aggregate_map):
    """Replace aggregate-output references with their calls so HAVING
    unparsing reads ``having avg(e.sal) > 5`` rather than a made-up
    column name."""
    mapping = {}
    for key in expression.columns():
        alias, name = key
        if alias is None and name in aggregate_map:
            mapping[key] = _AggregatePlaceholder(aggregate_map[name])
    return expression.substitute(mapping) if mapping else expression


class _AggregatePlaceholder(UnboundExpression):
    """Unparse-only wrapper rendering as the aggregate call."""

    VALUES = ("call",)

    def __init__(self, call: AggregateCall):
        self.call = call

    def display(self):
        return self.call.display()


def view_to_sql(view: AggregateView) -> str:
    """The WITH-clause definition text of one aggregate view.

    The binder uniquifies a view body's inner aliases by prefixing the
    instance alias (``r3__r1``); emitting them verbatim would compound
    on every re-bind (``r3__r3__r1``), so the prefix is stripped here —
    the emitted text re-binds (and re-mangles) to the same structure,
    making unparse a fixed point."""
    names = ", ".join(name for name, _ in view.block.select)
    body = block_to_sql(_strip_block_prefix(view.block, f"{view.alias}__"))
    body = body.replace("\n", "\n    ")
    return f"{view.alias}({names}) as (\n    {body}\n)"


def _strip_block_prefix(block: QueryBlock, prefix: str) -> QueryBlock:
    """A copy of *block* with the binder's ``{alias}__`` inner-alias
    mangling undone on every component."""

    def strip_expr(expression: Expression) -> Expression:
        return _strip_alias_prefix(expression, prefix)

    def strip_call(call: AggregateCall) -> AggregateCall:
        if call.arg is None:
            return call
        return AggregateCall(call.func_name, strip_expr(call.arg))

    return QueryBlock(
        relations=tuple(
            TableRef(
                ref.table,
                ref.alias[len(prefix):]
                if ref.alias.startswith(prefix)
                else ref.alias,
            )
            for ref in block.relations
        ),
        predicates=tuple(strip_expr(p) for p in block.predicates),
        group_by=tuple(strip_expr(c) for c in block.group_by),
        aggregates=tuple(
            (name, strip_call(call)) for name, call in block.aggregates
        ),
        having=tuple(strip_expr(p) for p in block.having),
        select=tuple(
            (name, strip_expr(source)) for name, source in block.select
        ),
    )


def _strip_alias_prefix(expression: Expression, prefix: str) -> Expression:
    """Undo the binder's ``{spec_alias}__`` inner-alias mangling so the
    emitted subquery re-binds (and re-mangles) cleanly."""
    mapping = {}
    for alias, name in expression.columns():
        if alias is not None and alias.startswith(prefix):
            mapping[(alias, name)] = ColumnRef(alias[len(prefix):], name)
    return expression.substitute(mapping) if mapping else expression


def subquery_to_sql(spec: SubquerySpec) -> str:
    """The WHERE-conjunct text of one subquery spec."""
    prefix = f"{spec.alias}__"

    def strip(expression: Expression) -> str:
        return expression_to_sql(_strip_alias_prefix(expression, prefix))

    from_parts = ", ".join(
        f"{ref.table} "
        + (
            ref.alias[len(prefix):]
            if ref.alias.startswith(prefix)
            else ref.alias
        )
        for ref in spec.relations
    )
    conjuncts = [strip(predicate) for predicate in spec.local_predicates]
    conjuncts += [
        f"({strip(inner)} = {expression_to_sql(outer)})"
        for inner, outer in spec.correlations
    ]
    where = " where " + " and ".join(conjuncts) if conjuncts else ""
    if spec.kind == "scalar":
        assert spec.aggregate is not None and spec.op is not None
        if spec.aggregate.arg is None:
            item = f"{spec.aggregate.func_name}(*)"
        else:
            item = f"{spec.aggregate.func_name}({strip(spec.aggregate.arg)})"
        body = f"(select {item} from {from_parts}{where})"
        return f"({expression_to_sql(spec.outer)} {spec.op} {body})"
    if spec.kind == "in":
        assert spec.value is not None and spec.outer is not None
        body = f"(select {strip(spec.value)} from {from_parts}{where})"
        keyword = "not in" if spec.negate else "in"
        return f"({expression_to_sql(spec.outer)} {keyword} {body})"
    # EXISTS cares only about emptiness; the binder never kept the
    # original select item, and ``select 1`` re-binds identically.
    keyword = "not exists" if spec.negate else "exists"
    return f"{keyword} (select 1 from {from_parts}{where})"


def _unit_to_sql(unit: JoinUnit) -> str:
    """The JOIN-clause text of one join unit."""
    if unit.kind != "left" or unit.table is None or unit.filters:
        # semi/anti and view-backed units exist only after
        # decorrelation; their SQL spelling is the subquery they came
        # from, which the flattening discarded.
        raise UnsupportedFeatureError(
            f"a {unit.kind} join unit has no SQL spelling"
        )
    condition = " and ".join(
        expression_to_sql(predicate) for predicate in unit.on
    )
    return f"left join {unit.table.table} {unit.alias} on {condition}"


def query_to_sql(query: CanonicalQuery) -> str:
    """SQL text of a canonical query.

    View instances are emitted as WITH definitions named after their
    aliases and referenced once each, which re-binds to the same
    canonical structure (modulo the binder's alias uniquification).
    """
    lines: List[str] = []
    if query.views:
        definitions = ",\n".join(view_to_sql(view) for view in query.views)
        lines.append("with " + definitions)
    aggregate_map = dict(query.aggregates)
    select_parts = []
    for name, source in query.select:
        if (
            isinstance(source, ColumnRef)
            and source.alias is None
            and source.name in aggregate_map
        ):
            rendered = aggregate_to_sql(aggregate_map[source.name])
        else:
            rendered = expression_to_sql(source)
        select_parts.append(f"{rendered} as {name}")
    lines.append("select " + ", ".join(select_parts))
    from_parts = [f"{ref.table} {ref.alias}" for ref in query.base_tables]
    from_parts.extend(f"{view.alias} {view.alias}" for view in query.views)
    from_line = "from " + ", ".join(from_parts)
    for unit in query.joins:
        from_line += " " + _unit_to_sql(unit)
    lines.append(from_line)
    where_parts = [expression_to_sql(p) for p in query.predicates]
    where_parts.extend(subquery_to_sql(spec) for spec in query.subqueries)
    if where_parts:
        lines.append("where " + " and ".join(where_parts))
    if query.group_by:
        lines.append(
            "group by " + ", ".join(ref.display() for ref in query.group_by)
        )
    if query.having:
        lines.append(
            "having "
            + " and ".join(
                expression_to_sql(_inline_aggregates(p, aggregate_map))
                for p in query.having
            )
        )
    if query.order_by:
        lines.append(
            "order by "
            + ", ".join(
                name + (" desc" if descending else "")
                for name, descending in query.order_by
            )
        )
    if query.limit is not None:
        lines.append(f"limit {query.limit}")
    return "\n".join(lines)
