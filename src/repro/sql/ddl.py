"""The command statements: DDL, DML, and the session and EXPLAIN
statements, as productions on the query parser's cursor.

The paper's scope is query optimization, so the data-definition layer
is deliberately small: enough to build and populate a database from SQL
scripts and the interactive shell.

A statement's kind is decided once, by its first word, matched exactly
and case-insensitively against ``_PRODUCTIONS`` *before* anything is
tokenized. A command word selects a production below; any other text is
a query, left to :func:`repro.sql.parser.parse_select` (so ``creates
table`` fails with ``expected SELECT``). Grammar::

    command      := (create_table | create_index | create_mview | drop
                     | refresh | analyze | insert | prepare | execute
                     | deallocate | explain) [";"] EOF
    create_table := CREATE TABLE name "(" column ("," column)*
                    ["," PRIMARY KEY "(" names ")"] ")"
    column       := name type [NULL | NOT NULL | PRIMARY KEY]
    create_index := CREATE INDEX name ON table "(" names ")"
    create_mview := CREATE MATERIALIZED VIEW name AS query
    drop         := DROP (TABLE | INDEX | MATERIALIZED VIEW) name
    refresh      := REFRESH MATERIALIZED VIEW name
    analyze      := ANALYZE [name]
    insert       := INSERT INTO name VALUES row ("," row)*
    row          := "(" literal ("," literal)* ")"
    prepare      := PREPARE name AS query
    execute      := EXECUTE name ["(" [literal ("," literal)*] ")"]
    deallocate   := DEALLOCATE name
    explain      := EXPLAIN [ANALYZE] (query | execute)

``query``, ``literal`` and the ``;`` terminator are
:mod:`repro.sql.parser`'s. A query inside a command is parsed from the
command's own tokens, so its errors are positioned in the *statement*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..trace import traced
from .ast import SelectStmt
from .lexer import first_word, tokenize
from .parser import _Parser

_TYPE_WORDS = {
    "int", "integer", "float", "double", "str", "string", "text",
    "bool", "boolean", "date",
}


@dataclass(frozen=True)
class CreateTableStmt:
    """Parsed CREATE TABLE.

    ``nullable`` lists the columns declared with an explicit NULL
    marker; every other column is NOT NULL (the paper's default).
    """

    name: str
    columns: Tuple[Tuple[str, str], ...]  # (column, type name)
    primary_key: Tuple[str, ...] = ()
    nullable: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateIndexStmt:
    """Parsed CREATE INDEX."""

    name: str
    table: str
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class InsertStmt:
    """Parsed INSERT INTO ... VALUES."""

    table: str
    rows: Tuple[Tuple[Any, ...], ...]


@dataclass(frozen=True)
class CreateMaterializedViewStmt:
    """Parsed CREATE MATERIALIZED VIEW name AS <select>.

    Binding happens against the catalog when the statement executes
    (the view subsystem owns that)."""

    name: str
    body_sql: str
    body: SelectStmt


@dataclass(frozen=True)
class RefreshMaterializedViewStmt:
    """Parsed REFRESH MATERIALIZED VIEW name."""

    name: str


@dataclass(frozen=True)
class DropMaterializedViewStmt:
    """Parsed DROP MATERIALIZED VIEW name."""

    name: str


@dataclass(frozen=True)
class AnalyzeStmt:
    """Parsed ANALYZE [table]: collect statistics now, for one table
    (a materialized view name analyzes its backing) or all of them."""

    table: Optional[str] = None


@dataclass(frozen=True)
class DropTableStmt:
    """Parsed DROP TABLE name."""

    name: str


@dataclass(frozen=True)
class DropIndexStmt:
    """Parsed DROP INDEX name."""

    name: str




@dataclass(frozen=True)
class PrepareStmt:
    """Parsed PREPARE name AS <select>."""

    name: str
    body_sql: str
    body: SelectStmt


@dataclass(frozen=True)
class ExecuteStmt:
    """Parsed EXECUTE name[(values)]; the values are plain Python
    values, ``$1`` first."""

    name: str
    values: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class DeallocateStmt:
    """Parsed DEALLOCATE name."""

    name: str


@dataclass(frozen=True)
class ExplainStmt:
    """Parsed EXPLAIN [ANALYZE] <select> | EXECUTE name[(values)]. A
    query stays text: the session plans it like any query text (plan
    cache included). An EXECUTE body explains that prepared statement's
    plan."""

    body_sql: str  # "" for an EXECUTE body
    analyze: bool = False
    execute: Optional[ExecuteStmt] = None


DdlStatement = object  # union of the statement dataclasses


@traced("sql.parse")
def maybe_parse_ddl(sql: str) -> Optional[DdlStatement]:
    """Parse *sql* as a command statement, or return None if its first
    word is not a command word (i.e. it is a query)."""
    production = _PRODUCTIONS.get(first_word(sql))
    if production is None:
        return None
    parser = _StatementParser(tokenize(sql), sql)
    parser.advance()  # the command word
    statement = production(parser)
    parser.expect_eof()
    return statement


class _StatementParser(_Parser):
    """The command productions; each starts after the command word."""

    def query_text(self) -> Tuple[SelectStmt, str]:
        """Parse the query that starts here; also its source text."""
        start = self.current.offset
        body = self.parse_statement()
        return body, self._sql[start : self.current.offset].rstrip()

    # ------------------------------------------------------------------

    def create(self) -> DdlStatement:
        if self.accept_word("table"):
            return self._create_table()
        if self.accept_word("index"):
            name = self.expect_name()
            self.expect_word("on")
            return CreateIndexStmt(
                name=name, table=self.expect_name(), columns=self.listed(self.expect_name)
            )
        if self.accept_word("materialized"):
            shape = "expected CREATE MATERIALIZED VIEW <name> AS <select>"
            if not self.accept_word("view") or self.current.kind != "name":
                raise self.error(shape)
            name = self.advance().text
            if not self.accept_word("as") or self.current.kind == "eof":
                raise self.error(shape)
            body, body_sql = self.query_text()
            return CreateMaterializedViewStmt(name, body_sql, body)
        raise self.error(
            "expected TABLE, INDEX, or MATERIALIZED VIEW after CREATE"
        )

    def drop(self) -> DdlStatement:
        if self.accept_word("table"):
            return DropTableStmt(name=self.expect_name())
        if self.accept_word("index"):
            return DropIndexStmt(name=self.expect_name())
        if self.accept_word("materialized"):
            self.expect_word("view")
            return DropMaterializedViewStmt(name=self.expect_name())
        raise self.error(
            "expected TABLE, INDEX, or MATERIALIZED VIEW after DROP"
        )

    def refresh(self) -> RefreshMaterializedViewStmt:
        self.expect_word("materialized")
        self.expect_word("view")
        return RefreshMaterializedViewStmt(name=self.expect_name())

    def analyze(self) -> AnalyzeStmt:
        if self.current.kind == "name":
            return AnalyzeStmt(table=self.expect_name())
        return AnalyzeStmt()

    def insert(self) -> InsertStmt:
        self.expect_word("into")
        table = self.expect_name()
        self.expect_word("values")
        rows = [self.listed(self.literal)]
        while self.accept_punct(","):
            rows.append(self.listed(self.literal))
        return InsertStmt(table=table, rows=tuple(rows))

    def prepare(self) -> PrepareStmt:
        name = self.expect_name()
        self.expect_word("as")
        body, body_sql = self.query_text()
        return PrepareStmt(name, body_sql, body)

    def execute(self) -> ExecuteStmt:
        name = self.expect_name()
        if self.current.kind == "punctuation" and self.current.text == "(":
            return ExecuteStmt(name, self.listed(self.literal, or_empty=True))
        return ExecuteStmt(name)

    def deallocate(self) -> DeallocateStmt:
        return DeallocateStmt(name=self.expect_name())

    def explain(self) -> ExplainStmt:
        analyze = self.accept_word("analyze")
        if self.accept_word("execute"):
            return ExplainStmt("", analyze, self.execute())
        return ExplainStmt(self.query_text()[1], analyze)

    def _create_table(self) -> CreateTableStmt:
        name = self.expect_name()
        self.expect_punct("(")
        columns: List[Tuple[str, str]] = []
        primary_key: List[str] = []
        nullable: List[str] = []
        while True:
            if self.accept_word("primary"):
                self.expect_word("key")
                primary_key.extend(self.listed(self.expect_name))
            else:
                column = self.expect_name()
                type_token = self.current
                type_name = type_token.text.lower()
                if (
                    type_token.kind not in ("name", "keyword")
                    or type_name not in _TYPE_WORDS
                ):
                    raise self.error(
                        f"expected a column type "
                        f"({', '.join(sorted(_TYPE_WORDS))})"
                    )
                self.advance()
                if self.accept_word("null"):
                    nullable.append(column)
                elif self.accept_word("not"):
                    self.expect_word("null")  # NOT NULL is the default
                elif self.accept_word("primary"):
                    self.expect_word("key")
                    primary_key.append(column)
                columns.append((column, type_name))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        if not columns:
            raise self.error("a table needs at least one column")
        return CreateTableStmt(
            name=name,
            columns=tuple(columns),
            primary_key=tuple(primary_key),
            nullable=tuple(nullable),
        )


_PRODUCTIONS = {
    "create": _StatementParser.create,
    "drop": _StatementParser.drop,
    "refresh": _StatementParser.refresh,
    "analyze": _StatementParser.analyze,
    "insert": _StatementParser.insert,
    "prepare": _StatementParser.prepare,
    "execute": _StatementParser.execute,
    "deallocate": _StatementParser.deallocate,
    "explain": _StatementParser.explain,
}
