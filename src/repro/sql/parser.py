"""Recursive-descent parser for the supported SQL dialect.

One grammar, one cursor class: the command statements (CREATE, INSERT,
PREPARE, EXECUTE, EXPLAIN, ...) are productions on a subclass of this
module's ``_Parser`` in :mod:`repro.sql.ddl`, over the same token stream
and with the same ``literal`` production.

Grammar (informal)::

    statement   := (query | command) [";"] EOF
                   (commands are listed in repro.sql.ddl)
    query       := [WITH view ("," view)*] select
    view        := name "(" name ("," name)* ")" AS "(" select ")"
    select      := SELECT [ALL] item ("," item)*
                   FROM from_item ("," from_item)*
                   [WHERE expr] [GROUP BY column ("," column)*]
                   [HAVING expr]
    from_item   := table join_clause*
    join_clause := [INNER] JOIN table ON expr
                 | LEFT [OUTER] JOIN table ON expr
                 | CROSS JOIN table
    item        := expr [AS name]
    table       := name [[AS] name]
    expr        := or-expr with the usual precedence:
                   OR < AND < NOT < comparison < additive < multiplicative
    comparison  := additive [IS [NOT] NULL | [NOT] BETWEEN ... |
                   [NOT] IN "(" (select | expr-list) ")" | op additive]
    primary     := literal | "$" digits | column
                 | aggregate "(" (expr | "*") ")"
                 | EXISTS "(" select ")" | "(" expr ")" | "(" select ")"
    literal     := ["-"] number | string | TRUE | FALSE | NULL
                   (spelled the same in SELECT, INSERT and EXECUTE;
                   NULL is a value only in INSERT and EXECUTE — a query
                   tests for it with IS [NOT] NULL; lexical rules are
                   in repro.sql.lexer)

As in SQLite, comma and JOIN bind with equal precedence and associate
left: ``A, B LEFT JOIN C ON e`` joins C against everything before it.
``RIGHT`` and ``FULL OUTER`` joins are rejected with a positioned
error.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..algebra.aggregates import known_aggregates
from ..algebra.expressions import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
)
from ..errors import SqlSyntaxError
from .ast import (
    AggregateExpr,
    ExistsExpr,
    InSubqueryExpr,
    JoinClauseAst,
    SelectItem,
    SelectStmt,
    SubqueryExpr,
    TableRefAst,
    ViewDefAst,
)
from .lexer import Token, syntax_error, tokenize

_KEYWORD_VALUES = {"true": True, "false": False, "null": None}


def parse_select(sql: str) -> SelectStmt:
    """Parse one SELECT statement (with optional WITH clause)."""
    parser = _Parser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.expect_eof()
    return statement


def _number(text: str) -> Any:
    return int(text) if text.isdigit() else float(text)


class _Parser:
    def __init__(self, tokens: List[Token], sql: str):
        self._tokens = tokens
        self._sql = sql
        self._position = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != "eof":
            self._position += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.current
        found = token.text or "<end of input>"
        return syntax_error(
            f"{message} (found {found!r})", self._sql, token.offset
        )

    def accept_keyword(self, word: str) -> bool:
        token = self._tokens[self._position]
        if token.kind == "keyword" and token.text == word:
            self._position += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}")

    def accept_word(self, word: str) -> bool:
        """Accept *word* whether or not it is reserved (most of the
        command statements' words are not)."""
        token = self._tokens[self._position]
        if token.kind in ("name", "keyword") and token.text.lower() == word:
            self._position += 1
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            raise self.error(f"expected {word.upper()}")

    def accept_punct(self, char: str) -> bool:
        token = self._tokens[self._position]
        if token.kind == "punctuation" and token.text == char:
            self._position += 1
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise self.error(f"expected {char!r}")

    def expect_name(self) -> str:
        token = self._tokens[self._position]
        if token.kind != "name":
            raise self.error("expected an identifier")
        self._position += 1
        return token.text

    def expect_eof(self) -> None:
        """One optional ``;`` ends a statement of any kind."""
        self.accept_punct(";")
        if self.current.kind != "eof":
            raise self.error("unexpected trailing input")

    def listed(self, item, or_empty: bool = False) -> tuple:
        """``"(" item ("," item)* ")"`` for a production of this cursor."""
        self.expect_punct("(")
        if or_empty and self.accept_punct(")"):
            return ()
        items = [item()]
        while self.accept_punct(","):
            items.append(item())
        self.expect_punct(")")
        return tuple(items)

    def literal(self) -> Any:
        """The one literal production, as a plain Python value."""
        token = self.current
        if token.kind == "number":
            value = _number(token.text)
        elif token.kind == "string":
            value = token.text
        elif token.kind == "keyword" and token.text in _KEYWORD_VALUES:
            value = _KEYWORD_VALUES[token.text]
        elif self.accept_punct("-"):
            if self.current.kind != "number":
                raise self.error("expected a number after '-'")
            value = -_number(self.current.text)
        else:
            raise self.error("expected a literal value")
        self.advance()
        return value

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> SelectStmt:
        views: List[ViewDefAst] = []
        if self.accept_keyword("with"):
            views.append(self.parse_view_def())
            while self.accept_punct(","):
                views.append(self.parse_view_def())
        select = self.parse_select_body()
        return SelectStmt(
            select_items=select.select_items,
            from_tables=select.from_tables,
            where=select.where,
            group_by=select.group_by,
            having=select.having,
            with_views=tuple(views),
            order_by=select.order_by,
            limit=select.limit,
            joins=select.joins,
        )

    def parse_view_def(self) -> ViewDefAst:
        name = self.expect_name()
        column_names = self.listed(self.expect_name)
        self.expect_keyword("as")
        self.expect_punct("(")
        body = self.parse_select_body()
        self.expect_punct(")")
        return ViewDefAst(
            name=name, column_names=column_names, body=body
        )

    def parse_select_body(self) -> SelectStmt:
        self.expect_keyword("select")
        if self.current.is_keyword("distinct"):
            raise self.error("SELECT DISTINCT is not supported")
        self.accept_keyword("all")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        self.expect_keyword("from")
        tables = [self.parse_table_ref()]
        joins: List[JoinClauseAst] = []
        while True:
            if self.accept_punct(","):
                tables.append(self.parse_table_ref())
                continue
            clause = self.parse_join_clause()
            if clause is None:
                break
            joins.append(clause)
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expression()
        group_by: List[Expression] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_primary())
            while self.accept_punct(","):
                group_by.append(self.parse_primary())
        having = None
        if self.accept_keyword("having"):
            having = self.parse_expression()
        order_by = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept_keyword("limit"):
            token = self.current
            if token.kind != "number" or not token.text.isdigit():
                raise self.error("LIMIT expects an integer")
            self.advance()
            limit = int(token.text)
        return SelectStmt(
            select_items=tuple(items),
            from_tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            joins=tuple(joins),
        )

    def parse_join_clause(self) -> Optional[JoinClauseAst]:
        token = self.current
        if token.is_keyword("right"):
            raise self.error(
                "RIGHT [OUTER] JOIN is not supported; swap the sides and "
                "use LEFT JOIN"
            )
        if token.is_keyword("full"):
            raise self.error("FULL [OUTER] JOIN is not supported")
        if token.is_keyword("left"):
            self.advance()
            self.accept_keyword("outer")
            self.expect_keyword("join")
            table = self.parse_table_ref()
            self.expect_keyword("on")
            return JoinClauseAst("left", table, self.parse_expression())
        if token.is_keyword("cross"):
            self.advance()
            self.expect_keyword("join")
            return JoinClauseAst("cross", self.parse_table_ref(), None)
        if token.is_keyword("inner") or token.is_keyword("join"):
            if token.is_keyword("inner"):
                self.advance()
            self.expect_keyword("join")
            table = self.parse_table_ref()
            self.expect_keyword("on")
            return JoinClauseAst("inner", table, self.parse_expression())
        return None

    def parse_order_item(self):
        expression = self.parse_primary()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return (expression, descending)

    def parse_select_item(self) -> SelectItem:
        expression = self.parse_expression()
        output_name: Optional[str] = None
        if self.accept_keyword("as"):
            output_name = self.expect_name()
        elif self.current.kind == "name":
            output_name = self.advance().text
        return SelectItem(expression=expression, output_name=output_name)

    def parse_table_ref(self) -> TableRefAst:
        name = self.expect_name()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_name()
        elif self.current.kind == "name":
            alias = self.advance().text
        return TableRefAst(name=name, alias=alias)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        items = [self.parse_and()]
        while self.accept_keyword("or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(items)

    def parse_and(self) -> Expression:
        items = [self.parse_not()]
        while self.accept_keyword("and"):
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else And(items)

    def parse_not(self) -> Expression:
        if self.accept_keyword("not"):
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        left = self.parse_additive()
        if self.accept_keyword("is"):
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negate=negated)
        negate = False
        if self.current.is_keyword("not"):
            following = self._tokens[self._position + 1]
            if following.is_keyword("between") or following.is_keyword("in"):
                self.advance()
                negate = True
            else:
                raise self.error("expected BETWEEN or IN after NOT here")
        if self.accept_keyword("between"):
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            expression: Expression = And(
                [
                    Comparison(">=", left, low),
                    Comparison("<=", left, high),
                ]
            )
            return Not(expression) if negate else expression
        if self.accept_keyword("in"):
            self.expect_punct("(")
            if self.current.is_keyword("select"):
                stmt = self.parse_select_body()
                self.expect_punct(")")
                return InSubqueryExpr(left, stmt, negate)
            values = [self.parse_expression()]
            while self.accept_punct(","):
                values.append(self.parse_expression())
            self.expect_punct(")")
            expression = (
                Or([Comparison("=", left, value) for value in values])
                if len(values) > 1
                else Comparison("=", left, values[0])
            )
            return Not(expression) if negate else expression
        if negate:
            raise self.error("expected BETWEEN or IN after NOT")
        if self.current.kind == "op":
            op = self.advance().text
            right = self.parse_additive()
            return Comparison(op, left, right)
        return left

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while self.current.kind == "punctuation" and self.current.text in (
            "+",
            "-",
        ):
            op = self.advance().text
            right = self.parse_multiplicative()
            left = Arith(op, left, right)
        return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while self.current.kind == "punctuation" and self.current.text in (
            "*",
            "/",
        ):
            op = self.advance().text
            right = self.parse_unary()
            left = Arith(op, left, right)
        return left

    def parse_unary(self) -> Expression:
        if self.current.kind == "punctuation" and self.current.text == "-":
            self.advance()
            inner = self.parse_unary()
            if isinstance(inner, Literal) and isinstance(
                inner.value, (int, float)
            ):
                return Literal(-inner.value)
            return Arith("-", Literal(0), inner)
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.current
        if (
            token.kind in ("number", "string")
            or token.is_keyword("true")
            or token.is_keyword("false")
        ):
            return Literal(self.literal())
        if token.kind == "param":
            self.advance()
            return Parameter(int(token.text))
        if token.is_keyword("exists"):
            self.advance()
            self.expect_punct("(")
            if not self.current.is_keyword("select"):
                raise self.error("EXISTS expects a (SELECT ...) subquery")
            stmt = self.parse_select_body()
            self.expect_punct(")")
            return ExistsExpr(stmt)
        if token.kind == "punctuation" and token.text == "(":
            self.advance()
            if self.current.is_keyword("select"):
                stmt = self.parse_select_body()
                self.expect_punct(")")
                return SubqueryExpr(stmt)
            inner = self.parse_expression()
            self.expect_punct(")")
            return inner
        if token.kind == "name":
            return self.parse_name_expression()
        raise self.error("expected an expression")

    def parse_name_expression(self) -> Expression:
        name = self.expect_name()
        # aggregate call?
        if (
            self.current.kind == "punctuation"
            and self.current.text == "("
            and name.lower() in known_aggregates()
        ):
            self.advance()
            if self.accept_punct("*"):
                self.expect_punct(")")
                return AggregateExpr(name.lower(), None)
            arg = self.parse_expression()
            self.expect_punct(")")
            return AggregateExpr(name.lower(), arg)
        # qualified or bare column
        if self.accept_punct("."):
            column = self.expect_name()
            return ColumnRef(name, column)
        return ColumnRef(None, name)
