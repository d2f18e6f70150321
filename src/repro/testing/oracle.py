"""Differential-testing oracles: SQLite and the brute-force evaluator.

Layer one is :class:`SqliteOracle`, a stdlib-``sqlite3`` in-memory
database replaying the same script. The generated dialect is designed
to mean the same thing in both systems (see ``sqlgen``), so queries
pass to SQLite **verbatim**; only DDL/DML is translated:

- ``CREATE TABLE`` — types map int→INTEGER, float→REAL, str→TEXT. No
  constraints are forwarded: SQLite's ``INTEGER PRIMARY KEY`` aliases
  the rowid (changing semantics), and NOT NULL enforcement is this
  engine's job, not the oracle's.
- ``CREATE INDEX`` — dropped; indexes cannot change SQLite's answers.
- ``INSERT`` — re-emitted with placeholders from the parsed rows.
- ``CREATE MATERIALIZED VIEW`` — becomes a plain ``CREATE VIEW``: a
  live view is exactly the always-fresh semantics the engine promises
  for queries that name a materialized view.
- ``REFRESH MATERIALIZED VIEW`` — a no-op (views are always fresh).

Layer two is the brute-force reference evaluator
(:meth:`repro.db.Database.reference`), used for constructs SQLite
cannot mirror — the holistic aggregates ``stddev`` (population form;
SQLite has none built in) and ``median``.

Result comparison is bag equality with float tolerance and NULL
awareness, shared with the reference module's :func:`rows_equal_bag`.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..sql.ddl import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateMaterializedViewStmt,
    CreateTableStmt,
    InsertStmt,
    RefreshMaterializedViewStmt,
    maybe_parse_ddl,
)
from .sqlgen import HOLISTIC_AGGREGATES, Stmt

_SQLITE_TYPES = {
    "int": "INTEGER",
    "integer": "INTEGER",
    "float": "REAL",
    "double": "REAL",
    "str": "TEXT",
    "string": "TEXT",
    "text": "TEXT",
}

# Indexes cannot change SQLite's answers, its views are always fresh,
# and it keeps its own statistics.
_NO_OPS = (CreateIndexStmt, RefreshMaterializedViewStmt, AnalyzeStmt)

_HOLISTIC_RE = re.compile(
    r"\b(" + "|".join(HOLISTIC_AGGREGATES) + r")\s*\(", re.IGNORECASE
)


class OracleError(ReproError):
    """The oracle could not be set up or could not run a statement."""


def needs_reference(sql: str) -> bool:
    """True when *sql* uses a construct SQLite cannot mirror, so the
    brute-force evaluator must serve as the oracle instead."""
    return _HOLISTIC_RE.search(sql) is not None


class SqliteOracle:
    """An in-memory SQLite database mirroring one fuzz script."""

    def __init__(self) -> None:
        try:
            self.connection = sqlite3.connect(":memory:")
        except sqlite3.Error as error:  # pragma: no cover - env-specific
            raise OracleError(f"cannot open SQLite oracle: {error}")

    def close(self) -> None:
        self.connection.close()

    # -- statement replay ----------------------------------------------

    def apply(self, stmt: Stmt) -> None:
        """Replay one non-query statement."""
        try:
            self._apply(stmt)
        except OracleError:
            raise
        except (sqlite3.Error, ReproError) as error:
            raise OracleError(
                f"oracle failed on {stmt.kind} statement: {error}"
            )

    def _apply(self, stmt: Stmt) -> None:
        parsed = maybe_parse_ddl(stmt.sql)
        if isinstance(parsed, _NO_OPS):
            return
        if isinstance(parsed, CreateMaterializedViewStmt):
            self.connection.execute(
                f"create view {parsed.name} as {parsed.body_sql}"
            )
            return
        if isinstance(parsed, CreateTableStmt):
            columns = ", ".join(
                f"{name} {_SQLITE_TYPES[type_name]}"
                for name, type_name in parsed.columns
            )
            self.connection.execute(
                f"CREATE TABLE {parsed.name} ({columns})"
            )
            return
        if isinstance(parsed, InsertStmt):
            width = len(parsed.rows[0])
            holes = ", ".join(["?"] * width)
            self.connection.executemany(
                f"INSERT INTO {parsed.table} VALUES ({holes})",
                list(parsed.rows),
            )
            return
        raise OracleError(f"oracle cannot replay kind {stmt.kind!r}")

    # -- queries -------------------------------------------------------

    def query(self, sql: str) -> List[Tuple[Any, ...]]:
        """Run one generated query verbatim."""
        try:
            return [
                tuple(row)
                for row in self.connection.execute(sql).fetchall()
            ]
        except sqlite3.Error as error:
            raise OracleError(f"oracle failed on query: {error}")


def oracle_rows(
    sqlite_oracle: Optional[SqliteOracle],
    reference_db,
    sql: str,
) -> Tuple[str, List[Tuple[Any, ...]]]:
    """(oracle name, rows) for one query: SQLite when it can mirror the
    SQL, the brute-force reference evaluator otherwise."""
    if sqlite_oracle is not None and not needs_reference(sql):
        return "sqlite", sqlite_oracle.query(sql)
    return "reference", list(reference_db.reference(sql).rows)


__all__ = [
    "OracleError",
    "SqliteOracle",
    "needs_reference",
    "oracle_rows",
]
