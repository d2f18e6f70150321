"""Ordered (B-tree-style) secondary indexes.

The index stores ``(key, rid)`` entries in key order. IO is charged the
way a B-tree would: a root-to-leaf traversal of ``height`` page reads,
then one read per leaf page of matching entries. Fetching the indexed
rows through :meth:`HeapTable.fetch` charges data-page reads separately
(unclustered-index discipline).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from .iocounter import IOCounter
from .page import PAGE_SIZE
from .table import HeapTable

_ENTRY_OVERHEAD = 8  # rid + slot bookkeeping per index entry


def probe_equal(
    io: IOCounter,
    keys: Sequence[Tuple[Any, ...]],
    rids: Sequence[int],
    key: Sequence[Any],
    height: int,
    entries_per_page: int,
) -> List[int]:
    """One equality probe of a published ``(keys, rids)`` pair: the
    matching rids as one fresh list, charged the way a B-tree would —
    the descent (paid even by a key that can equal nothing), plus every
    further leaf page the matches spill onto."""
    lo, hi = equal_range(keys, key)
    io.read_pages(height)
    if hi > lo:
        extra_leaves = (hi - 1) // entries_per_page - lo // entries_per_page
        if extra_leaves:
            io.read_pages(extra_leaves)
    return rids[lo:hi]


def equal_range(
    keys: Sequence[Tuple[Any, ...]], key: Sequence[Any]
) -> Tuple[int, int]:
    """``[lo, hi)`` of the sorted *keys* equal to *key*. A key holding
    NULL, or a value the indexed type does not order against (``'x'``
    probing an int column), equals no entry: the range is empty, as the
    same comparison is false on a heap scan."""
    probe = tuple(key)
    if None in probe:
        return 0, 0
    try:
        lo = bisect.bisect_left(keys, probe)
        return lo, bisect.bisect_right(keys, probe, lo)
    except TypeError:
        return 0, 0


class OrderedIndex:
    """An ordered index over one or more columns of a heap table."""

    def __init__(self, name: str, table: HeapTable, column_names: Sequence[str]):
        if not column_names:
            raise SchemaError("an index needs at least one column")
        self.name = name
        self.table = table
        self.column_names: Tuple[str, ...] = tuple(column_names)
        self._positions = [
            table.column_position(column) for column in self.column_names
        ]
        key_width = sum(
            table.columns[position].dtype.width for position in self._positions
        )
        self.entries_per_page = max(
            2, PAGE_SIZE // (key_width + _ENTRY_OVERHEAD)
        )
        # entries: parallel arrays of keys and rids, sorted by key,
        # published with the height computed from them as ONE tuple
        # ``((keys, rids), height)`` so a rebuild is atomic
        # with respect to concurrent readers: a reader that unpacked it
        # sees a matched pair of arrays, never new keys with old rids
        # (immutable-after-publish; the arrays are never mutated once
        # assigned).
        self._published: Tuple[
            Tuple[List[Tuple[Any, ...]], List[int]], int
        ] = (([], []), 1)
        self.build()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def build(self) -> None:
        """(Re)build the index from the table's current rows."""
        # NULL never compares equal to anything, so NULL-keyed rows can
        # never satisfy an index probe; leaving them out keeps the key
        # list totally ordered for bisect.
        columns, count = self.table.visible()
        keys = zip(*[columns[p][:count] for p in self._positions])
        pairs = sorted(
            (key, rid) for rid, key in enumerate(keys) if None not in key
        )
        leaf_pages = max(1, math.ceil(len(pairs) / self.entries_per_page))
        self._published = (
            ([key for key, _ in pairs], [rid for _, rid in pairs]),
            max(1, math.ceil(math.log(leaf_pages + 1, 16)) + 1),
        )

    def snapshot_data(self) -> Tuple[List[Tuple[Any, ...]], List[int]]:
        """The current (keys, rids) pair — safe to hold across rebuilds
        (rebuilds publish a fresh pair, they never mutate this one)."""
        return self._published[0]

    # ------------------------------------------------------------------
    # Shape (computed once per build, not per read)
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Root-to-leaf page reads for one traversal."""
        return self._published[1]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def lookup_rids(self, io: IOCounter, key: Sequence[Any]) -> List[int]:
        """Rids of rows whose indexed columns equal *key* (charges IO;
        a key that can equal nothing still pays the descent)."""
        # one read: keys/rids/height stay matched
        (keys, rids), height = self._published
        return probe_equal(
            io, keys, rids, key, height, self.entries_per_page
        )

    def lookup_rows(
        self, io: IOCounter, key: Sequence[Any], include_rid: bool = False
    ) -> Iterator[Tuple[Any, ...]]:
        """Rows matching *key*, fetched through the heap (charges IO)."""
        last_page: Optional[int] = None
        for rid in self.lookup_rids(io, key):
            row, last_page = self.table.fetch(io, rid, last_page)
            yield row + (rid,) if include_rid else row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        columns = ", ".join(self.column_names)
        return f"OrderedIndex({self.name!r} on {self.table.name}({columns}))"
