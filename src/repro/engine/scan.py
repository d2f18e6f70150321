"""Streaming execution of table scans (heap and index access paths).

The scan is the canonical fused pipeline stage: one per-batch loop
applies selection (while scanning, before projection — so a filter may
reference columns the scan does not output) and projection through
precompiled accessors, emitting fixed-size batches. Storage is
column-major: the scan slices only the columns it reads. Page IO is
charged by the storage layer: one read per heap page, or for an index
probe the B-tree descent, its further leaves and one read per data page
change among the matching rids.

A scan may also apply a hash join's runtime key filter: the build
side's key dict, which the join above puts in its ``Run`` slot before
it pulls this scan's first batch. The scan keeps, after its own
selection, only the rows whose key is in it (``filtered`` counts the
rest); it reads the same pages either way.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator

from ..algebra.plan import ScanNode
from ..catalog.schema import table_row_schema
from ..errors import ExecutionError
from .batch import DEFAULT_BATCH_SIZE, ColumnBatch, ColumnBatchBuilder, take
from ..storage.snapshot import TableSnapshot
from .context import ExecutionContext
from .kernels import SelectionProgram
from .metrics import OperatorMetrics


def _index_rids(plan: ScanNode, context: ExecutionContext, storage):
    """The rids matching the scan's index probe — through the pinned
    snapshot's captured index when one is in effect, the live index
    otherwise. Charges the index pages; fetching the rows charges the
    data pages, identically either way."""
    pinned = isinstance(storage, TableSnapshot)
    if pinned:
        index = storage.index(plan.index_name)
    else:
        info = context.catalog.info(plan.table_name)
        index = info.indexes.get(plan.index_name)
    if index is None:
        raise ExecutionError(
            f"index {plan.index_name!r} not found on {plan.table_name!r}"
        )
    key = plan.probe_key(context.parameters)
    if pinned:
        return storage.index_lookup_rids(context.io, index, key)
    return index.lookup_rids(context.io, key)


def scan_columns(plan: ScanNode, compiler):
    """The fused columnar scan→filter→project loop.

    Storage is column-major, so the scan asks it for exactly the
    columns the filter reads and the scan outputs, in runs of whole
    pages holding at least one batch of rows (an index scan: the
    matching rids gathered in one run). Per run: one compiled selection
    kernel pass over the filter's columns, then a gather of only the
    *output* columns through the selection vector. No row tuples exist
    at any point; a run no filter thins out goes downstream as it was
    sliced, and only the survivors of thinned runs are copied into a
    batch builder.
    """
    table = compiler.catalog.table(plan.table_name)
    full_schema = table_row_schema(plan.alias, table.columns, include_rid=True)
    selection = SelectionProgram(plan.filters, full_schema, compiler)
    positions = [
        full_schema.index_of(field.alias, field.name) for field in plan.schema
    ]
    needed = sorted(set(positions).union(selection.used))
    width = len(positions)
    key_filter = compiler.claim_key_filter(plan)
    if key_filter is not None:
        key_position = full_schema.index_of(*key_filter.key)

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        context = run.context
        storage = context.storage_for(plan.table_name)
        select = selection.arm(context).run
        # read when the scan starts: a join fills it before that
        keys = None if key_filter is None else run.key_filters[key_filter.slot]
        if plan.index_name is None:
            source = storage.scan_page_columns(
                context.io,
                include_rid=True,
                positions=needed,
                batch_rows=DEFAULT_BATCH_SIZE,
            )
        else:
            source = []
            rids = _index_rids(plan, context, storage)
            metrics.matches = len(rids)
            if rids:  # the matching rows, gathered as one run
                source.append(
                    storage.fetch_columns(
                        context.io, rids, include_rid=True, positions=needed
                    )
                )
        out = ColumnBatchBuilder(DEFAULT_BATCH_SIZE, width)
        for columns, count in source:
            metrics.rows_in += count
            sel = select(columns, count)
            if keys is not None:
                column = columns[key_position]
                rows = range(count) if sel is None else sel
                kept = list(
                    compress(
                        rows,
                        map(
                            keys.__contains__,
                            column if sel is None else take(column, sel),
                        ),
                    )
                )
                if len(kept) < len(rows):
                    metrics.filtered += len(rows) - len(kept)
                    sel = kept
            if sel is None:
                picked = [columns[p] for p in positions]
            elif sel:
                picked = [take(columns[p], sel) for p in positions]
                count = len(sel)
            else:
                continue
            metrics.cells += count * width
            if out.length or (sel is not None and count < out.size):
                out.extend(picked, count)
                if out.full:
                    yield out.drain()
            else:
                # An untouched run is a whole batch (or the scan's
                # last); so is a thinned one that still fills a batch.
                yield ColumnBatch(picked, count)
        if out.length:
            yield out.drain()

    return open
