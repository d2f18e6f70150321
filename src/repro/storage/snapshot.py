"""Copy-on-write table snapshots: stable reads under a concurrent writer.

The serving layer (``repro.server``) lets many reader sessions execute
while one writer inserts or refreshes materialized views. Readers never
take locks during execution; instead each query captures a
:class:`DatabaseSnapshot` — per table, the *published columns tuple*
plus the row count visible at capture time, O(1) whatever the table's
size — and scans that, not the live table.

Two storage-layer disciplines make the capture sound:

- **Appends never move rows.** ``HeapTable.insert_many`` only extends
  the column lists, first column to last, and the visible row count is
  the length of the *last* one. A snapshot ``(columns, count)`` pair
  therefore keeps denoting exactly the pre-insert prefix: pages sliced
  from ``column[:count]`` are identical before and after any number of
  concurrent appends, and no reader sees a row some column does not
  hold yet (CPython's GIL keeps list reads/extends internally
  consistent).
- **Destructive rewrites publish, never mutate.**
  ``HeapTable.replace_rows`` (matview refresh) validates into fresh
  column lists and swings the table's columns tuple in one assignment;
  the captured tuple is frozen history. ``OrderedIndex`` likewise
  publishes its ``(keys, rids)`` arrays as one tuple per rebuild.

IO charging mirrors the live access paths exactly: a snapshot scan of N
visible rows charges the same page reads a live scan of an N-row table
would, so estimated-vs-executed IO comparisons stay meaningful under
concurrency.

This extends the zero-copy aliasing contract of the columnar engine
(``engine/batch.py``): storage never rewrites a published prefix, and
what it hands out are slices of it — fresh lists the consumer owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .index import OrderedIndex, probe_equal
from .iocounter import IOCounter
from .table import Columns, HeapTable, PagedColumns


@dataclass(frozen=True)
class IndexSnapshot:
    """One index's published ``(keys, rids)`` arrays at capture time.

    Probes replay :class:`OrderedIndex`'s charging discipline (height
    page reads per traversal plus extra leaf pages) against the captured
    arrays, and drop any rid at or beyond the owning table snapshot's
    visible row count — entries a concurrent writer's index rebuild
    added for rows this snapshot cannot see.
    """

    name: str
    column_names: Tuple[str, ...]
    keys: Sequence[Tuple[Any, ...]]
    rids: Sequence[int]
    entries_per_page: int
    height: int

    def lookup_rids(self, io: IOCounter, key: Sequence[Any]) -> List[int]:
        return probe_equal(
            io, self.keys, self.rids, key, self.height, self.entries_per_page
        )


class TableSnapshot(PagedColumns):
    """A stable view of one table: the published columns and the row
    count visible at capture time. Every access path (``scan_page_columns``
    / ``scan_pages`` / ``scan`` / ``fetch`` / ``fetch_columns``) and its
    charging is :class:`PagedColumns`'s, shared with :class:`HeapTable`;
    index probes go through the captured :class:`IndexSnapshot` s."""

    def __init__(
        self,
        name: str,
        data: Columns,
        row_count: int,
        rows_per_page: int,
        row_width: int,
        indexes: Mapping[str, IndexSnapshot],
    ):
        self.name = name
        self.data = data
        self.row_count = row_count
        self.rows_per_page = rows_per_page
        self.row_width = row_width
        self.indexes = dict(indexes)

    @classmethod
    def capture(
        cls,
        table: HeapTable,
        indexes: Mapping[str, OrderedIndex],
        previous: Optional["TableSnapshot"] = None,
    ) -> "TableSnapshot":
        """What readers of *table* may see now. *previous* — an earlier
        capture of the same table name — is returned instead of a new
        object when it already holds exactly that: the same published
        columns tuple and visible count, and for the same index names
        the same published key arrays (appends change the count,
        ``replace_rows`` the tuple, an index build the arrays)."""
        data, row_count = table.visible()
        if (
            previous is not None
            and previous.data is data
            and previous.row_count == row_count
            and len(previous.indexes) == len(indexes)
        ):
            captured = previous.indexes
            for index_name, index in indexes.items():
                snap = captured.get(index_name)
                if snap is None or snap.keys is not index.snapshot_data()[0]:
                    break
            else:
                return previous
        index_snaps: Dict[str, IndexSnapshot] = {}
        for index_name, index in indexes.items():
            keys, rids = index.snapshot_data()
            index_snaps[index_name] = IndexSnapshot(
                name=index_name,
                column_names=index.column_names,
                keys=keys,
                rids=rids,
                entries_per_page=index.entries_per_page,
                height=index.height,
            )
        return cls(
            name=table.name,
            data=data,
            row_count=row_count,
            rows_per_page=table.rows_per_page,
            row_width=table.row_width,
            indexes=index_snaps,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def visible(self) -> Tuple[Columns, int]:
        return self.data, self.row_count

    # ------------------------------------------------------------------
    # Index probes
    # ------------------------------------------------------------------

    def index(self, index_name: str) -> Optional[IndexSnapshot]:
        return self.indexes.get(index_name)

    def index_lookup_rids(
        self, io: IOCounter, index: IndexSnapshot, key: Sequence[Any]
    ) -> List[int]:
        """Probe a captured index, keeping the rids this snapshot can
        see (a captured index may already list rows appended after the
        table was captured — checked on the matches' maximum, so the
        usual probe returns the one list the index sliced)."""
        rids = index.lookup_rids(io, key)
        count = self.row_count
        if rids and max(rids) >= count:
            return [rid for rid in rids if rid < count]
        return rids

    def index_lookup_rows(
        self,
        io: IOCounter,
        index: IndexSnapshot,
        key: Sequence[Any],
        include_rid: bool = False,
    ) -> Iterator[Tuple[Any, ...]]:
        """Probe a captured index and fetch the visible matching rows
        through this snapshot (unclustered-index charging)."""
        last_page: Optional[int] = None
        for rid in self.index_lookup_rids(io, index, key):
            row, last_page = self.fetch(io, rid, last_page)
            yield row + (rid,) if include_rid else row


class DatabaseSnapshot:
    """All tables' snapshots, captured atomically with respect to the
    single writer (the caller holds the database write lock during
    capture — capture itself is O(tables), no row copying)."""

    def __init__(self, tables: Dict[str, TableSnapshot], epoch: int):
        self.tables = tables
        self.epoch = epoch

    def table(self, name: str) -> Optional[TableSnapshot]:
        return self.tables.get(name)
