"""Shared helpers of the streaming batch pipeline: the column-batch
representation and the few per-row accessors it still needs.

Operators exchange **column batches** (:class:`ColumnBatch`: one stdlib
list/tuple per column). Column-major layout makes key extraction free
(a join/group key *is* its column), makes projection a zero-copy column
pick (:meth:`ColumnBatch.project`), and lets the compiled kernels in
:mod:`repro.engine.kernels` run fused scan→filter→project loops with no
per-row Python function calls. Where an operator is inherently per-row
(the index-NLJ probe), :func:`projector` precompiles that work into a
C-speed accessor over row tuples (:data:`RowBatch`).

Columns are any indexable sequences: lists (a scan's columns are
slices of the stored, column-major table — ``storage/table.py`` — so
no transpose happens on the way in), tuples (what :func:`take` gathers
and ``zip(*rows)`` produce), or ``range`` objects (the synthesized
``_rid`` column is a ``range`` — never materialized unless selected).
``array.array`` columns would also satisfy the protocol, but object
lists win in CPython for these workloads: typed arrays re-box every
element on access, which costs more than the pointer-width list slots
they would save.

``DEFAULT_BATCH_SIZE`` is the pipeline's rows per batch.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

DEFAULT_BATCH_SIZE = 1024
"""Rows per pipeline batch (see DESIGN.md, "Streaming batch execution")."""

RowBatch = List[Tuple[Any, ...]]

Column = Sequence[Any]
"""One column of a batch: any indexable sequence (list/tuple/range)."""


class ColumnBatch:
    """A column-major batch: one sequence per column, equal lengths.

    The batch never owns its columns — operators share column references
    freely (projection and rename are zero-copy picks), and only filters
    and computed projections allocate new columns.

    **Aliasing contract.** Because pass-through is zero-copy, the same
    column object may be referenced by *several* live batches at once —
    a pruned join projection, a rename, and the scan that produced the
    column can all alias one list. Two rules keep this sound:

    1. An operator must never mutate a column it *received* (no
       ``column[i] = ...``, ``sort()``, ``append()`` on inputs). New
       values always go into freshly allocated columns.
    2. An operator may mutate a column only while it provably holds the
       sole reference — e.g. the accumulators inside
       :class:`ColumnBatchBuilder` and :func:`concat_columns`, or row
       lists built by a private ``to_rows``/collect pass (the sort-merge
       join sorts *those*, never a received column).

    Violating rule 1 would corrupt sibling consumers retroactively and
    is exactly the class of bug projection pruning makes likelier (more
    sharing, fewer defensive copies); the regression tests in
    ``tests/test_batch_aliasing.py`` pin the contract.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[Column], length: int):
        self.columns: List[Column] = list(columns)
        self.length = length

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[Any, ...]], width: int) -> "ColumnBatch":
        """Transpose row tuples into columns (one C-speed ``zip`` pass)."""
        if not rows:
            return cls([() for _ in range(width)], 0)
        return cls(list(zip(*rows)), len(rows))

    def to_rows(self) -> RowBatch:
        """Transpose back to row tuples (one C-speed ``zip`` pass)."""
        if not self.length:
            return []
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def column(self, position: int) -> Column:
        return self.columns[position]

    def project(self, positions: Sequence[int]) -> "ColumnBatch":
        """Cheap column slicing: pick/reorder columns without copying."""
        columns = self.columns
        return ColumnBatch([columns[p] for p in positions], self.length)

    def take(self, sel: Sequence[int]) -> "ColumnBatch":
        """Gather the selected row indices from every column."""
        return ColumnBatch([take(c, sel) for c in self.columns], len(sel))


def take(column: Column, sel: Sequence[int]) -> Column:
    """Gather one column through a selection vector.

    Uses a C-level :func:`operator.itemgetter` bulk fetch — measurably
    faster than an interpreted listcomp on large gathers. The result is
    a tuple, which is a perfectly good column (columns are any indexable
    sequence)."""
    if len(sel) > 1:
        return itemgetter(*sel)(column)
    if sel:
        return (column[sel[0]],)
    return ()


def concat_columns(
    batches: Sequence[ColumnBatch], width: int
) -> Tuple[List[List[Any]], int]:
    """Concatenate batches into one column set (per-column ``extend``)."""
    columns: List[List[Any]] = [[] for _ in range(width)]
    total = 0
    for batch in batches:
        total += batch.length
        for accumulator, column in zip(columns, batch.columns):
            accumulator.extend(column)
    return columns, total


class ColumnBatchBuilder:
    """Accumulates column chunks and hands out full column batches.

    Producers ``extend`` with per-column chunks and drain whole batches
    once ``full``.
    """

    __slots__ = ("columns", "length", "size", "width")

    def __init__(self, size: int, width: int):
        self.size = size
        self.width = width
        self.columns: List[List[Any]] = [[] for _ in range(width)]
        self.length = 0

    def extend(self, columns: Sequence[Column], length: int) -> None:
        self.length += length
        for accumulator, column in zip(self.columns, columns):
            accumulator.extend(column)

    @property
    def full(self) -> bool:
        return self.length >= self.size

    def drain(self) -> ColumnBatch:
        batch = ColumnBatch(self.columns, self.length)
        self.columns = [[] for _ in range(self.width)]
        self.length = 0
        return batch


def projector(
    positions: Sequence[int], source_width: int
) -> Optional[Callable[[Tuple[Any, ...]], Tuple[Any, ...]]]:
    """A compiled projection, or ``None`` for the identity projection.

    ``None`` lets callers skip the per-row copy when an operator's
    projection keeps every source column in order (common for scans
    that output the full table row).
    """
    positions = list(positions)
    if positions == list(range(source_width)):
        return None
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)

