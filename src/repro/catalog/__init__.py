"""Catalog: table schemas, keys, statistics, and name resolution.

The catalog is the optimizer's source of truth: cardinalities, page
counts, per-column distinct values and ranges (Selinger-style statistics),
and declared primary/foreign keys. Keys matter beyond uniqueness here —
the pull-up transformation (Section 3, Definition 1) grows the grouping
columns by a key of the pulled-through relation, and skips that when the
join is a foreign-key join into the relation's primary key.
"""

from .schema import Column, Field, RowSchema
from ..stats.collect import ColumnStats, TableStats, analyze_table
from .catalog import Catalog, ForeignKey, TableInfo

__all__ = [
    "Column",
    "Field",
    "RowSchema",
    "ColumnStats",
    "TableStats",
    "analyze_table",
    "Catalog",
    "ForeignKey",
    "TableInfo",
]
