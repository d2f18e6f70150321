"""ANALYZE: collect per-table and per-column statistics.

The collected shape (Selinger basics plus distribution detail):

- ``row_count`` / ``page_count`` / ``row_width`` — exact, O(1) from the
  heap; never sampled.
- per column: distinct count (exact on small tables, Duj1-estimated
  from a block sample on large ones), null count, average payload
  width, min/max over **non-null** values, a most-common-value list,
  and an equi-depth histogram over the non-MCV numeric values.

NULL handling is deliberate: NULL is not a value. It never enters the
distinct set (the seed stub counted it, inflating NDV), never enters
min/max (the seed let ``min()`` raise ``TypeError`` on the first
NULL-bearing numeric column and silently dropped the range), and is
tracked separately as ``null_count`` so the estimator can discount
equality/range/join selectivities by the non-null fraction.

MCVs follow the Postgres rule: a value is "common" only when its
frequency is at least ``MCV_MIN_RATIO`` (2x) the column average
(``1/ndv``). Uniform columns therefore store no MCVs at all, and every
estimate reduces exactly to the classic System R formula — skew pays
for its own bookkeeping.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..storage.page import pages_for
from ..storage.table import HeapTable
from .config import StatsConfig
from .histogram import EquiDepthHistogram, build_histogram
from .sample import estimate_ndv, sample_pages, sampled_values, scale_count

DEFAULT_CONFIG = StatsConfig()

MCV_MIN_RATIO = 2.0
"""A value qualifies as an MCV only when its frequency is at least this
multiple of the column's average frequency (``1/ndv``); keeps uniform
columns MCV-free so their estimates match the System R formulas
exactly."""


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column.

    Field order up to ``max_value`` is part of the public API (callers
    construct ``ColumnStats(n_distinct, min_value, max_value)``
    positionally); new fields append after it with defaults.

    ``mcvs`` holds ``(value, fraction)`` pairs, fractions relative to
    the **non-null** row count, sorted by descending frequency.
    ``histogram`` covers the numeric non-null values *excluding* MCVs,
    so the two compose without double counting.
    """

    n_distinct: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    null_count: int = 0
    avg_width: float = 0.0
    mcvs: Tuple[Tuple[Any, float], ...] = ()
    histogram: Optional[EquiDepthHistogram] = None

    @property
    def spread(self) -> Optional[float]:
        """Numeric range width, or ``None`` for non-numeric columns."""
        if isinstance(self.min_value, (int, float)) and isinstance(
            self.max_value, (int, float)
        ):
            return float(self.max_value) - float(self.min_value)
        return None

    @property
    def mcv_total_fraction(self) -> float:
        return sum(fraction for _, fraction in self.mcvs)

    def null_fraction(self, row_count: int) -> float:
        if row_count <= 0:
            return 0.0
        return min(1.0, self.null_count / row_count)


@dataclass(frozen=True)
class TableStats:
    """Statistics of one stored table.

    ``sampled`` records whether column statistics came from a block
    sample; ``pages_scanned`` is the exact number of heap pages that
    ANALYZE read to build them (the sublinearity
    ``tests/test_statistics.py::TestStaleness`` asserts on).
    """

    row_count: int
    page_count: int
    row_width: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    sampled: bool = False
    pages_scanned: int = 0

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _value_width(value: Any, default: int) -> int:
    if isinstance(value, str):
        return len(value)
    return default


def _column_stats(
    declared_width: int,
    values,
    total_rows: int,
    sampled: bool,
    config: StatsConfig,
) -> ColumnStats:
    sample_size = len(values)
    counter: Counter = Counter(values)
    null_sample = counter.pop(None, 0)
    width_sum = sum(
        _value_width(value, declared_width) * count
        for value, count in counter.items()
    )
    non_null_sample = sample_size - null_sample
    null_count = (
        scale_count(null_sample, sample_size, total_rows)
        if sampled
        else null_sample
    )
    if not counter:
        return ColumnStats(n_distinct=0, null_count=null_count)
    avg_width = width_sum / non_null_sample

    if sampled:
        singletons = sum(1 for count in counter.values() if count == 1)
        total_non_null = max(non_null_sample, total_rows - null_count)
        ndv = estimate_ndv(
            len(counter), singletons, non_null_sample, total_non_null
        )
    else:
        ndv = len(counter)

    try:
        low, high = min(counter), max(counter)
    except TypeError:  # mixed un-orderable values; range unknown
        low = high = None

    # MCVs: values at least MCV_MIN_RATIO times as frequent as average.
    mcvs: Tuple[Tuple[Any, float], ...] = ()
    if config.mcv_entries > 0 and ndv > 1:
        threshold = MCV_MIN_RATIO / ndv
        common = [
            (value, count / non_null_sample)
            for value, count in counter.most_common(config.mcv_entries)
            if count / non_null_sample >= threshold
        ]
        mcvs = tuple(common)

    histogram: Optional[EquiDepthHistogram] = None
    if config.histogram_buckets > 0:
        mcv_values = {value for value, _ in mcvs}
        numeric = sorted(
            value
            for value in counter
            if _is_numeric(value) and value not in mcv_values
        )
        if numeric and len(numeric) == len(counter) - len(mcv_values):
            expanded = [
                float(value)
                for value in numeric
                for _ in range(counter[value])
            ]
            histogram = build_histogram(expanded, config.histogram_buckets)

    return ColumnStats(
        n_distinct=ndv,
        min_value=low,
        max_value=high,
        null_count=null_count,
        avg_width=avg_width,
        mcvs=mcvs,
        histogram=histogram,
    )


def analyze_table(
    table: HeapTable, config: StatsConfig = DEFAULT_CONFIG
) -> TableStats:
    """Collect statistics for *table*.

    Tables at most ``config.full_scan_pages`` pages are scanned exactly;
    larger ones are block-sampled down to
    ``max(min_sample_pages, sample_fraction × pages)`` pages, making
    ANALYZE sublinear in table size. Row and page counts are always
    exact — only column-level statistics are estimated.
    """
    columns, total_rows = table.visible()
    total_pages = pages_for(total_rows, table.row_width)
    if total_pages <= config.full_scan_pages:
        samples = [column[:total_rows] for column in columns]
        sampled = False
        pages_scanned = total_pages
    else:
        pages = sample_pages(table.name, total_pages, config)
        samples = [
            sampled_values(column, total_rows, pages, table.rows_per_page)
            for column in columns
        ]
        sampled = len(pages) < total_pages
        pages_scanned = len(pages)

    column_stats: Dict[str, ColumnStats] = {}
    for column, values in zip(table.columns, samples):
        column_stats[column.name] = _column_stats(
            column.dtype.width, values, total_rows, sampled, config
        )
    return TableStats(
        row_count=total_rows,
        page_count=total_pages,
        row_width=table.row_width,
        columns=column_stats,
        sampled=sampled,
        pages_scanned=pages_scanned,
    )


__all__ = [
    "ColumnStats",
    "TableStats",
    "analyze_table",
    "DEFAULT_CONFIG",
]
