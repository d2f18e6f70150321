"""Append-only heap tables: column-major storage with logical pagination.

A table is one append-only list per column, published together as one
tuple. Rows are grouped into fixed-size logical pages; every scan
charges one read per page to the :class:`~repro.storage.IOCounter`
whatever subset of columns it slices. The row's position doubles as its
hidden row-id (``_rid``), which pull-up uses as a surrogate key when no
primary key is declared (Section 3).

:class:`PagedColumns` writes the page walk once, over ``(columns,
visible row count)``; :class:`HeapTable` (the live table) and
``TableSnapshot`` (a captured prefix of it) differ only in where that
pair comes from. Row tuples are never stored: the row-at-a-time access
paths (``scan`` / ``scan_pages`` / ``fetch``) assemble them on demand
from the same column slices the columnar engine consumes directly.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import Column
from ..errors import SchemaError
from .iocounter import IOCounter
from .page import pages_for, rows_per_page

Columns = Tuple[List[Any], ...]
"""One list per stored column. Published lists only ever grow by
appends at the tail; a prefix ``[:count]`` never changes."""


class PagedColumns:
    """The access paths over published columns: full scans in page
    units, fetch by row-id, and their IO charges."""

    name: str
    row_width: int
    rows_per_page: int

    def visible(self) -> Tuple[Columns, int]:
        """The published columns and how many of their rows readers of
        this object may see."""
        raise NotImplementedError

    @property
    def num_rows(self) -> int:
        return self.visible()[1]

    @property
    def num_pages(self) -> int:
        return pages_for(self.num_rows, self.row_width)

    def scan_page_columns(
        self,
        io: IOCounter,
        include_rid: bool = False,
        positions: Optional[Sequence[int]] = None,
        batch_rows: int = 1,
    ) -> Iterator[Tuple[List[Any], int]]:
        """Full scan in *column-major* form: yields ``(columns,
        row_count)`` per run of whole pages, each run the fewest pages
        holding at least *batch_rows* rows (one page by default).

        ``columns`` has one slot per table column (plus the hidden
        ``_rid`` last when *include_rid*); only the slots named in
        *positions* are filled (all of them when it is ``None``), each
        with one slice of the stored column — the other columns are not
        touched. ``_rid`` is a ``range``, never materialized unless a
        consumer gathers it. Every page of a run is charged before the
        run is yielded, so the total is one read per page whatever the
        run length or the column subset.
        """
        columns, count = self.visible()
        if not count:
            io.read_pages(1)  # header page of an empty table
            return
        width = len(columns)
        if positions is None:
            positions = range(width + include_rid)
        stored = [p for p in positions if p < width]
        want_rid = include_rid and width in positions
        per_page = self.rows_per_page
        step = per_page * -(-batch_rows // per_page)
        for start in range(0, count, step):
            stop = min(start + step, count)
            io.read_pages(-(-(stop - start) // per_page))
            run: List[Any] = [None] * (width + include_rid)
            for position in stored:
                run[position] = columns[position][start:stop]
            if want_rid:
                run[width] = range(start, stop)
            yield run, stop - start

    def scan_pages(
        self, io: IOCounter, include_rid: bool = False
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Full scan yielding one page's rows at a time, assembled from
        the page's column slices (one C-speed ``zip``); charges exactly
        what :meth:`scan_page_columns` charges."""
        for columns, _ in self.scan_page_columns(io, include_rid):
            yield list(zip(*columns))

    def scan(
        self, io: IOCounter, include_rid: bool = False
    ) -> Iterator[Tuple[Any, ...]]:
        """Full scan, charging one page read per page of rows."""
        for page in self.scan_pages(io, include_rid):
            yield from page

    def fetch(
        self, io: IOCounter, rid: int, last_page: Optional[int] = None
    ) -> Tuple[Tuple[Any, ...], int]:
        """Fetch one row by row-id, charging a page read unless the row
        lives on *last_page* (the page the caller just touched).

        Returns ``(row, page_number)`` so callers can thread the page hint
        through consecutive fetches — the standard unclustered-index
        charging discipline.
        """
        columns, count = self.visible()
        if not 0 <= rid < count:
            raise SchemaError(f"row id {rid} out of range for {self.name!r}")
        page_number = rid // self.rows_per_page
        if page_number != last_page:
            io.read_pages(1)
        return tuple(column[rid] for column in columns), page_number

    def fetch_columns(
        self,
        io: IOCounter,
        rids: Sequence[int],
        include_rid: bool = False,
        positions: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Any], int]:
        """Fetch many rows by row-id in column-major form: one
        ``(columns, row_count)`` run shaped like
        :meth:`scan_page_columns`'s, gathering only *positions*.

        Charges what threading :meth:`fetch` through *rids* in order
        charges: one read each time the page changes.
        """
        columns, count = self.visible()
        per_page = self.rows_per_page
        pages = 0
        last_page = None
        for rid in rids:
            if not 0 <= rid < count:
                raise SchemaError(
                    f"row id {rid} out of range for {self.name!r}"
                )
            page_number = rid // per_page
            if page_number != last_page:
                pages += 1
                last_page = page_number
        io.read_pages(pages)
        width = len(columns)
        if positions is None:
            positions = range(width + include_rid)
        run: List[Any] = [None] * (width + include_rid)
        for position in positions:
            if position < width:
                run[position] = list(map(columns[position].__getitem__, rids))
            elif include_rid:
                run[width] = rids
        return run, len(rids)

    def row_slice(
        self, start: int = 0, stop: Optional[int] = None
    ) -> List[Tuple[Any, ...]]:
        """Rows ``[start:stop]`` of the visible prefix as tuples,
        assembled now; charges nothing (not an access path — for
        callers that already hold the rows' cost, like the delta log
        of an insert, and for oracles and tests)."""
        columns, count = self.visible()
        stop = count if stop is None else min(stop, count)
        return list(zip(*[column[start:stop] for column in columns]))


class HeapTable(PagedColumns):
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
        self.rows_per_page: int = rows_per_page(self.row_width)
        self._data: Columns = tuple([] for _ in columns)
        self._column_index = {
            column.name: position for position, column in enumerate(columns)
        }

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def visible(self) -> Tuple[Columns, int]:
        # Appends extend the columns first to last, so the last column's
        # length is a row count every column already holds: a reader
        # racing the writer never sees a ragged row.
        data = self._data
        return data, len(data[-1])

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """Every row as a tuple, assembled on each read — a read-only
        view for oracles and tests; no production path calls it."""
        return self.row_slice()

    def column_position(self, name: str) -> int:
        position = self._column_index.get(name)
        if position is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return position

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _validated(self, rows: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """*rows* as fresh per-column lists of canonical values; raises
        before anything is published if any row is malformed."""
        width = len(self.columns)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"table {self.name!r} expects {width} values, "
                    f"got {len(row)}"
                )
        fresh = []
        for column, values in zip(
            self.columns, zip(*rows) if rows else [()] * width
        ):
            validate, nullable = column.dtype.validate, column.nullable
            fresh.append([validate(value, nullable=nullable) for value in values])
        return fresh

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row; returns its row-id."""
        self.insert_many([row])
        return self.num_rows - 1

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> None:
        """Validate every row, then append them all — or, if any row is
        malformed, raise having appended none."""
        for stored, fresh in zip(self._data, self._validated(rows)):
            stored.extend(fresh)

    def replace_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Replace the table's contents copy-on-write: validate into
        FRESH columns, then publish them with one attribute assignment.

        The previously published columns are never mutated, so any
        reader that captured them (a :class:`TableSnapshot`, an
        in-flight scan generator) keeps seeing the old contents in full.
        This is how destructive rewrites (matview refresh) coexist with
        concurrent snapshot reads; plain :meth:`insert_many` is already
        safe for snapshot readers because appends never move existing
        rows.
        """
        self._data = tuple(self._validated(rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapTable({self.name!r}, rows={self.num_rows}, "
            f"pages={self.num_pages})"
        )
