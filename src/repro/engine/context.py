"""Execution context and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..catalog.catalog import Catalog
from ..catalog.schema import RowSchema
from ..cost.params import CostParams
from ..storage.iocounter import IOCounter
from ..storage.snapshot import DatabaseSnapshot
from .metrics import ExecutionMetrics


@dataclass
class ExecutionContext:
    """Everything a physical operator needs: catalog, IO counter, knobs.

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

    def __len__(self) -> int:
        return len(self.rows)
