"""Execution context and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..catalog.catalog import Catalog
from ..catalog.schema import RowSchema
from ..cost.params import CostParams
from ..storage.iocounter import IOCounter
from ..storage.page import pages_for
from ..storage.snapshot import DatabaseSnapshot
from .batch import DEFAULT_BATCH_SIZE
from .metrics import ExecutionMetrics


@dataclass
class ExecutionContext:
    """Everything a physical operator needs: catalog, IO counter, knobs.

    ``batch_size`` is the streaming pipeline's rows-per-batch knob;
    ``metrics`` collects per-operator counters (created by the executor
    on first use, accumulating if the context is reused).
    ``kernels_compiled`` counts kernel instantiations for this context
    — the observability counter behind ``repro --stats`` (cached source
    still counts: the counter tracks kernels built, not code objects
    compiled). ``parameters`` are the values this execution gives the
    plan's ``$n`` placeholders, ``$1`` first
    (:meth:`~repro.algebra.expressions.Parameter.value`).
    """

    catalog: Catalog
    io: IOCounter
    params: CostParams = field(default_factory=CostParams)
    batch_size: int = DEFAULT_BATCH_SIZE
    metrics: Optional[ExecutionMetrics] = None
    kernels_compiled: int = 0
    # When set, scans and index probes read this stable snapshot
    # instead of the live catalog tables — the serving layer's
    # readers-don't-block-writer discipline (storage/snapshot.py).
    # Costing and schema lookups still go through ``catalog``, which
    # is safe: the single writer only appends or publishes.
    snapshot: Optional["DatabaseSnapshot"] = None
    parameters: Tuple[Any, ...] = ()

    def storage_for(self, table_name: str):
        """The object scans should read *table_name*'s rows from: its
        snapshot if this execution pinned one (and the table existed at
        capture time), else the live heap table."""
        if self.snapshot is not None:
            captured = self.snapshot.table(table_name)
            if captured is not None:
                return captured
        return self.catalog.table(table_name)


@dataclass
class Result:
    """A materialized (in Python memory) intermediate or final result."""

    schema: RowSchema
    rows: List[Tuple[Any, ...]]

    def __post_init__(self) -> None:
        # cached (row_count, pages) pair; pages_for is hot in the join
        # spill-charging paths, and a Result's width never changes
        self._pages_cache: Optional[Tuple[int, int]] = None

    @property
    def pages(self) -> int:
        """Pages this result would occupy if spilled/materialized.

        Cached per row count (appending rows invalidates the cache)."""
        count = len(self.rows)
        cached = self._pages_cache
        if cached is None or cached[0] != count:
            cached = (count, pages_for(count, self.schema.width))
            self._pages_cache = cached
        return cached[1]

    def column(self, alias, name) -> List[Any]:
        """Convenience accessor: all values of one output column."""
        position = self.schema.index_of(alias, name)
        return [row[position] for row in self.rows]

    def as_dicts(self) -> List[dict]:
        """Rows as ``{display_name: value}`` dicts (for examples/docs)."""
        names = [field.display() for field in self.schema]
        return [dict(zip(names, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)
