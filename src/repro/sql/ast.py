"""Abstract syntax for the supported SQL dialect.

Scalar expressions reuse the algebra's :class:`Expression` classes
directly (the parser emits :class:`ColumnRef`, :class:`Comparison`, ...),
with four parse-only kinds that the binder eliminates, all
:class:`UnboundExpression` s speaking the same expression protocol:

- :class:`AggregateExpr` — an aggregate call appearing in a SELECT or
  HAVING position; the binder turns it into a named aggregate output.
- :class:`SubqueryExpr` — a parenthesized SELECT used as a scalar in a
  comparison; the binder unnests it (Kim's transformation) into an
  aggregate view.
- :class:`InSubqueryExpr` / :class:`ExistsExpr` — ``[NOT] IN`` and
  ``EXISTS`` over a SELECT, lowered to semi / anti join units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..algebra.expressions import Expression
from ..errors import BindError


@dataclass(frozen=True)
class TableRefAst:
    """``name [AS] alias`` in a FROM list; *name* may be a table or view."""

    name: str
    alias: Optional[str]


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry: an expression with an optional output name."""

    expression: Expression
    output_name: Optional[str]


@dataclass(frozen=True)
class JoinClauseAst:
    """An explicit ``[kind] JOIN table [alias] ON expr`` clause.

    The FROM clause is a flat sequence: comma-separated table refs, each
    optionally followed by JOIN clauses. As in SQLite, comma and JOIN
    bind with equal precedence, left-associative — the left side of each
    JOIN clause is everything parsed before it. ``kind`` is ``inner``,
    ``left`` or ``cross`` (CROSS JOIN carries no ON).
    """

    kind: str
    table: TableRefAst
    on: Optional[Expression]


@dataclass(frozen=True)
class SelectStmt:
    """A (possibly nested) SELECT statement."""

    select_items: Tuple[SelectItem, ...]
    from_tables: Tuple[TableRefAst, ...]
    where: Optional[Expression]
    group_by: Tuple[Expression, ...]
    having: Optional[Expression]
    with_views: Tuple["ViewDefAst", ...] = ()
    order_by: Tuple[Tuple[Expression, bool], ...] = ()  # (expr, desc)
    limit: Optional[int] = None
    joins: Tuple[JoinClauseAst, ...] = ()


@dataclass(frozen=True)
class ViewDefAst:
    """``WITH name(col, ...) AS (select)``."""

    name: str
    column_names: Tuple[str, ...]
    body: SelectStmt


class UnboundExpression(Expression):
    """A kind that never reaches a plan: the four parse-time kinds
    below, which the binder eliminates, and the unparser's aggregate
    placeholder. Evaluating or typing one is a typed error."""

    def bind(self, schema):
        raise BindError(self._unbound())

    def dtype(self, schema):
        raise BindError(self._unbound())

    def _unbound(self) -> str:
        return (
            f"{type(self).__name__} {self.display()} must be eliminated "
            "by the binder before it is typed or evaluated"
        )


class AggregateExpr(UnboundExpression):
    """Parse-time aggregate call: ``func(expr)`` or ``count(*)``.

    Exists only between parser and binder; the binder replaces it with a
    reference to a named aggregate output column.
    """

    VALUES = ("func_name",)
    OPERANDS = ("arg",)

    def __init__(self, func_name: str, arg: Optional[Expression]):
        self.func_name = func_name
        self.arg = arg

    def display(self) -> str:
        inner = self.arg.display() if self.arg is not None else "*"
        return f"{self.func_name}({inner})"


class SubqueryPredicate(UnboundExpression):
    """Base of the parse-time kinds that hold a nested SELECT
    (``stmt``, a plain value: its columns resolve in its own scope).
    The binder lowers each to a
    :class:`repro.algebra.query.SubquerySpec`."""


class SubqueryExpr(SubqueryPredicate):
    """Parse-time scalar subquery. The binder unnests it."""

    VALUES = ("stmt",)

    def __init__(self, stmt: SelectStmt):
        self.stmt = stmt

    def display(self) -> str:
        return "(subquery)"


class InSubqueryExpr(SubqueryPredicate):
    """Parse-time ``expr [NOT] IN (SELECT ...)``."""

    VALUES = ("stmt", "negate")
    OPERANDS = ("item",)

    def __init__(self, item: Expression, stmt: SelectStmt, negate: bool):
        self.item = item
        self.stmt = stmt
        self.negate = negate

    def display(self) -> str:
        word = "not in" if self.negate else "in"
        return f"{self.item.display()} {word} (subquery)"


class ExistsExpr(SubqueryPredicate):
    """Parse-time ``EXISTS (SELECT ...)`` (negation arrives wrapped in
    :class:`repro.algebra.expressions.Not`)."""

    VALUES = ("stmt",)

    def __init__(self, stmt: SelectStmt):
        self.stmt = stmt

    def display(self) -> str:
        return "exists (subquery)"
