"""Append-only heap tables with logical pagination.

Rows are held in memory but grouped into fixed-size pages; every scan
charges one read per page to the :class:`~repro.storage.IOCounter`. The
row's position doubles as its hidden row-id (``_rid``), which pull-up uses
as a surrogate key when no primary key is declared (Section 3).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import Column
from ..errors import SchemaError
from .iocounter import IOCounter
from .page import pages_for, rows_per_page


class HeapTable:
    """A stored relation: named, typed columns and an ordered bag of rows."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        # Columns never change after construction, so the payload width
        # is fixed: page counts (``Catalog.stats`` reads one per call)
        # stay O(1).
        self.row_width: int = sum(column.dtype.width for column in columns)
        """Payload bytes per stored tuple."""
        self.rows: List[Tuple[Any, ...]] = []
        self._column_index = {
            column.name: position for position, column in enumerate(columns)
        }

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_pages(self) -> int:
        return pages_for(len(self.rows), self.row_width)

    @property
    def rows_per_page(self) -> int:
        return rows_per_page(self.row_width)

    def column_position(self, name: str) -> int:
        position = self._column_index.get(name)
        if position is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return position

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row; returns its row-id."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(row)}"
            )
        validated = tuple(
            column.dtype.validate(value, nullable=column.nullable)
            for column, value in zip(self.columns, row)
        )
        self.rows.append(validated)
        return len(self.rows) - 1

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)

    def replace_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Replace the table's contents copy-on-write: validate into a
        FRESH list, then publish it with one attribute assignment.

        The previously published row list is never mutated, so any
        reader that captured it (a :class:`TableSnapshot`, an in-flight
        scan generator) keeps seeing the old contents in full. This is
        how destructive rewrites (matview refresh) coexist with
        concurrent snapshot reads; plain :meth:`insert` is already safe
        for snapshot readers because appends never move existing rows.
        """
        fresh: List[Tuple[Any, ...]] = []
        for row in rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"table {self.name!r} expects {len(self.columns)} "
                    f"values, got {len(row)}"
                )
            fresh.append(
                tuple(
                    column.dtype.validate(value, nullable=column.nullable)
                    for column, value in zip(self.columns, row)
                )
            )
        self.rows = fresh

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def scan(
        self, io: IOCounter, include_rid: bool = False
    ) -> Iterator[Tuple[Any, ...]]:
        """Full scan, charging one page read per page of rows."""
        per_page = self.rows_per_page
        if not self.rows:
            io.read_pages(1)  # header page of an empty table
            return
        for start in range(0, len(self.rows), per_page):
            io.read_pages(1)
            chunk = self.rows[start : start + per_page]
            if include_rid:
                for offset, row in enumerate(chunk):
                    yield row + (start + offset,)
            else:
                yield from chunk

    def scan_pages(
        self, io: IOCounter, include_rid: bool = False
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Full scan yielding one page's rows at a time.

        Charges exactly the page reads :meth:`scan` charges; the batch
        executor consumes pages so its per-batch loops touch the row
        list with C-speed slices instead of one ``yield`` per tuple.
        """
        per_page = self.rows_per_page
        if not self.rows:
            io.read_pages(1)  # header page of an empty table
            return
        for start in range(0, len(self.rows), per_page):
            io.read_pages(1)
            chunk = self.rows[start : start + per_page]
            if include_rid:
                yield [
                    row + (start + offset,)
                    for offset, row in enumerate(chunk)
                ]
            else:
                yield chunk

    def scan_page_columns(
        self, io: IOCounter, include_rid: bool = False
    ) -> Iterator[Tuple[List[Any], int]]:
        """Full scan yielding one page at a time in *column-major* form:
        ``(columns, row_count)`` with one sequence per column.

        Charges exactly the page reads :meth:`scan` charges. The
        transpose is a single C-speed ``zip`` per page, and the hidden
        ``_rid`` column is a ``range`` — never materialized unless a
        consumer actually gathers it.
        """
        per_page = self.rows_per_page
        if not self.rows:
            io.read_pages(1)  # header page of an empty table
            return
        for start in range(0, len(self.rows), per_page):
            io.read_pages(1)
            chunk = self.rows[start : start + per_page]
            columns: List[Any] = list(zip(*chunk))
            if include_rid:
                columns.append(range(start, start + len(chunk)))
            yield columns, len(chunk)

    def fetch(
        self, io: IOCounter, rid: int, last_page: Optional[int] = None
    ) -> Tuple[Tuple[Any, ...], int]:
        """Fetch one row by row-id, charging a page read unless the row
        lives on *last_page* (the page the caller just touched).

        Returns ``(row, page_number)`` so callers can thread the page hint
        through consecutive fetches — the standard unclustered-index
        charging discipline.
        """
        if not 0 <= rid < len(self.rows):
            raise SchemaError(f"row id {rid} out of range for {self.name!r}")
        page_number = rid // self.rows_per_page
        if page_number != last_page:
            io.read_pages(1)
        return self.rows[rid], page_number

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapTable({self.name!r}, rows={self.num_rows}, "
            f"pages={self.num_pages})"
        )
