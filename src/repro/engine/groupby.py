"""Streaming execution of group-by, sort and limit.

The group-by table and the sort buffer are pipeline breakers (filter,
project and rename run in the executor's fused chain, not here). Both
group-by methods run the one fused hash kernel; the method picks only
the charge (see :func:`group_by_columns`). A hash group-by over an
inner join it may fold (``executor._fold_path``) reads the join's left
rows and, per row, the partial state its key hit on the build side:
its kernel weights probe-side arguments by the hit's count and merges
build-side ones from the hit (``kernels.KERNEL_KINDS``) — the join
emits no rows, so this is the one input no join emitter serves.
``LimitNode`` drains its child completely while emitting only the
first N rows: the cost model charges a limit its child's full cost, and
the two change together or not at all.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterator, List, Tuple

from ..algebra.plan import GroupByNode, LimitNode, SortNode
from ..datatypes import NullOrdered
from ..storage.page import pages_for
from .batch import DEFAULT_BATCH_SIZE, ColumnBatch, take
from .kernels import ComputeProgram, SelectionProgram, groupby_kernels
from .metrics import OperatorMetrics, charge_spill
from .spill import external_sort_extra_io, hash_group_extra_io


def group_by_columns(plan: GroupByNode, compiler):
    """Columnar group-by: key columns feed the fused accumulate kernel
    directly (key extraction is free), aggregate arguments are computed
    as whole columns, and HAVING + projection run as one selection
    kernel + column gather over the finalized group columns.

    Folded (``compiler.fold``), its input is the join's left batches
    and their hits (:class:`~repro.engine.join.FoldedBatch`): keys and
    probe-side arguments are the left rows', each row stands for its
    hit's count of joined rows, and rows in and the spill charge read
    those joined rows, as they would unfolded.

    Groups come out in first-occurrence order. A sort-method group-by's
    input is ordered on the group keys, so that is key order — the
    order its plan promises — and the method differs from hash only in
    the charge: hash pays the cost model's spill formula over the
    input's and the group table's actual pages; sort pays nothing here,
    its input arriving ordered.
    """
    fold = compiler.fold(plan)
    merges = None
    if fold is None:
        child = compiler.child(plan.child)
    else:  # aggregating at the join: its left rows and their hits
        child = compiler.fold_child(fold)
        merges = fold.merges
    child_schema = plan.child.schema
    key_positions = [
        child_schema.index_of(alias, name) for alias, name in plan.group_keys
    ]
    # per aggregate: the argument this group-by computes (none for
    # COUNT(*), nor for one merged from the join's partial states)
    arguments = [
        None if merges is not None and merges[j] is not None else call.arg
        for j, (_, call) in enumerate(plan.aggregates)
    ]
    internal = plan.internal_schema
    out_positions = [
        internal.index_of(alias, name) for alias, name in plan.projection
    ]
    hashed = plan.method == "hash"
    having_program = SelectionProgram(plan.having, internal, compiler)
    arg_expressions = [arg for arg in arguments if arg is not None]
    arg_program = ComputeProgram(arg_expressions, child_schema, compiler)
    arg_slots = []  # per aggregate: index into the computed columns
    slot = 0
    for arg in arguments:
        if arg is None:
            arg_slots.append(None)
        else:
            arg_slots.append(slot)
            slot += 1
    # A group-by on nothing runs the kernels over one constant key
    # column, dropped after finalizing: one group, none on no input.
    keyless = not key_positions
    update, finalize = groupby_kernels(
        len(key_positions) or 1, plan.aggregates, compiler, merges
    )

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        context = run.context
        having = having_program.arm(context)
        compute_args = arg_program.arm(context).run
        table: Dict[Any, List[Any]] = {}
        count = 0
        for batch in child(run):
            n = batch.length
            rows = len(batch)  # a folded batch: the joined rows
            count += rows
            metrics.rows_in += rows
            columns = batch.columns
            if fold is not None:
                columns = fold.view(columns, fold.probe_columns)
            keys = [columns[p] for p in key_positions] or [repeat(None, n)]
            computed = compute_args(columns, n) if arg_expressions else ()
            args = [
                computed[s] if s is not None else None for s in arg_slots
            ]
            if fold is None:
                update(keys, args, table)
            else:
                update(keys, args, table, batch.hits)
        if hashed:
            charge_spill(
                context.io,
                metrics,
                hash_group_extra_io(
                    pages_for(count, child_schema.width),
                    pages_for(len(table), internal.width),
                    context.params.memory_pages,
                ),
            )
        internal_columns = list(finalize(table.items()))[keyless:]
        groups = metrics.groups = len(table)
        metrics.cells += groups * len(internal_columns)
        sel = having.run(internal_columns, groups)
        if sel is not None:
            out_columns = [
                take(internal_columns[p], sel) for p in out_positions
            ]
            metrics.cells += len(sel) * len(out_positions)
            groups = len(sel)
        else:
            out_columns = [internal_columns[p] for p in out_positions]
        for start in range(0, groups, DEFAULT_BATCH_SIZE):
            end = min(start + DEFAULT_BATCH_SIZE, groups)
            yield ColumnBatch(
                [column[start:end] for column in out_columns], end - start
            )

    return open


def sort_columns(plan: SortNode, compiler):
    """Columnar sort: pre-ordered inputs stream through untouched; the
    general case transposes to rows for the stable multi-pass sort and
    charges the external sort's spill over the input's actual pages."""
    child = compiler.child(plan.child)
    child_order = (
        getattr(plan.child.props, "order", ()) if plan.child.props else ()
    )
    ascending_only = not any(plan.descending)
    preordered = ascending_only and tuple(
        child_order[: len(plan.keys)]
    ) == tuple(plan.keys)
    schema = plan.child.schema
    key_specs = [
        (schema.index_of(*key), descending)
        for key, descending in zip(plan.keys, plan.descending)
    ]
    width = len(schema)

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        context = run.context
        if preordered:
            for batch in child(run):
                metrics.rows_in += batch.length
                yield batch
            return
        rows: List[Tuple[Any, ...]] = []
        for batch in child(run):
            rows.extend(batch.to_rows())
        metrics.rows_in = len(rows)
        charge_spill(
            context.io,
            metrics,
            external_sort_extra_io(
                pages_for(len(rows), schema.width),
                context.params.memory_pages,
            ),
        )
        for position, descending in reversed(key_specs):
            rows.sort(
                key=lambda row: NullOrdered(row[position]),
                reverse=descending,
            )
        for start in range(0, len(rows), DEFAULT_BATCH_SIZE):
            chunk = rows[start : start + DEFAULT_BATCH_SIZE]
            yield ColumnBatch.from_rows(chunk, width)

    return open


def limit_columns(plan: LimitNode, compiler):
    """Columnar limit: emit the first N rows via column slices; the
    child is still drained in full so its IO and actuals stay complete."""
    child = compiler.child(plan.child)
    count = plan.count

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        remaining = count
        for batch in child(run):
            metrics.rows_in += batch.length
            if remaining > 0:
                if batch.length <= remaining:
                    remaining -= batch.length
                    yield batch
                else:
                    head = ColumnBatch(
                        [column[:remaining] for column in batch.columns],
                        remaining,
                    )
                    remaining = 0
                    yield head
            # keep draining: the cost model charges the whole child

    return open
