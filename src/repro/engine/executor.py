"""Streaming batch executor: drives plan trees as one columnar pipeline.

Operators exchange :class:`~repro.engine.batch.ColumnBatch` column sets
and run compiled kernels (:mod:`repro.engine.kernels`). Maximal
filter→project→rename chains fuse into ONE per-batch loop carrying a
lazy selection vector — no intermediate batch is materialized between
fused operators, and each fused operator still gets its own
:class:`~repro.engine.metrics.OperatorMetrics` (rows and batches are
exact; wall-clock is attributed to the chain head, and members carry
the ``fused`` flag that ``explain``/``--stats`` render).

Page IO is charged to ``context.io``. The seed's row-at-a-time
interpreter lives on in :mod:`repro.engine.rowexec` as the differential
baseline: both produce identical row streams and identical page IO.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, List

from ..algebra.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    SortNode,
    SubqueryMarkNode,
)
from ..errors import ExecutionError, ReproError
from .batch import ColumnBatch, take
from .context import ExecutionContext, Result
from .groupby import group_by_columns, limit_columns, sort_columns
from .join import join_columns
from .kernels import ComputeProgram, SelectionProgram, gather_virtual
from .marks import mark_columns
from .metrics import ExecutionMetrics, OperatorMetrics
from .scan import scan_columns

ENGINES = ("batch", "rowexec")
"""The executor names ``Database.query`` and ``Session`` accept: the
columnar pipeline below (production) and the row-at-a-time
:mod:`~repro.engine.rowexec` differential baseline."""


def check_engine(name: str) -> None:
    """Raise the one typed error for an executor name not in ENGINES."""
    if name not in ENGINES:
        known = ", ".join(map(repr, ENGINES))
        raise ReproError(f"unknown engine {name!r} (choose from {known})")


_COLUMN_BUILDERS = {
    ScanNode: scan_columns,
    JoinNode: join_columns,
    SubqueryMarkNode: mark_columns,
    GroupByNode: group_by_columns,
    SortNode: sort_columns,
    LimitNode: limit_columns,
}

_FUSABLE = (FilterNode, ProjectNode, RenameNode)

_SENTINEL = object()


def execute_plan(plan: PlanNode, context: ExecutionContext) -> Result:
    """Execute an operator tree and return the materialized result.

    Page IO is charged to ``context.io`` as execution proceeds; wrap the
    call in ``context.io.measure()`` to attribute IO to one query. Each
    node's actual output cardinality is recorded on ``node.actual_rows``
    and its full counters on ``node.op_metrics``, so
    ``explain(plan, analyze=True)`` can show estimates next to actuals.
    """
    if context.metrics is None:
        context.metrics = ExecutionMetrics()
    rows = []
    for batch in build_pipeline(plan, context):
        rows.extend(batch.to_rows())
    context.metrics.kernels_compiled = context.kernels_compiled
    return Result(schema=plan.schema, rows=rows)


def build_pipeline(
    plan: PlanNode, context: ExecutionContext, depth: int = 0
) -> Iterator[ColumnBatch]:
    """Build the metered batch generator for *plan* (pre-order setup:
    kernel compilation and child pipeline construction happen eagerly,
    row flow is lazy)."""
    if isinstance(plan, _FUSABLE):
        return _fused_chain(plan, context, depth)
    builder = _COLUMN_BUILDERS.get(type(plan))
    if builder is None:
        for node_type, candidate in _COLUMN_BUILDERS.items():
            if isinstance(plan, node_type):
                builder = candidate
                break
    if builder is None:
        raise ExecutionError(
            f"cannot execute node type {type(plan).__name__}"
        )

    metrics = OperatorMetrics(
        label=plan.describe(), depth=depth, width=len(plan.schema)
    )
    if context.metrics is not None:
        context.metrics.register(metrics)
    plan.op_metrics = metrics

    def run(child: PlanNode) -> Iterator[ColumnBatch]:
        child_batches = build_pipeline(child, context, depth + 1)
        if child.op_metrics is not None:
            metrics.children.append(child.op_metrics)
        return child_batches

    generator = builder(plan, context, metrics, run)
    return _metered(plan, generator, metrics)


class _Stage:
    """One member of a fused unary chain, with its compiled program."""

    __slots__ = ("kind", "program", "positions", "width", "metrics", "is_head")

    def __init__(self, node: PlanNode, context: ExecutionContext):
        child_schema = node.child.schema
        self.width = len(child_schema)
        if isinstance(node, FilterNode):
            self.kind = "filter"
            self.program = SelectionProgram(
                node.predicates, child_schema, context
            )
            self.positions = ()
        elif isinstance(node, ProjectNode):
            self.kind = "project"
            self.program = ComputeProgram(
                [expression for _, _, expression in node.outputs],
                child_schema,
                context,
            )
            self.positions = ()
        else:
            self.kind = "rename"
            self.program = None
            self.positions = tuple(node.positions)
        self.metrics: OperatorMetrics = None  # type: ignore[assignment]
        self.is_head = False


def _fused_chain(
    plan: PlanNode, context: ExecutionContext, depth: int
) -> Iterator[ColumnBatch]:
    """Fuse the maximal filter/project/rename chain rooted at *plan*
    into one per-batch loop.

    The loop threads ``(columns, count, sel)`` through the chain —
    ``sel`` is a pending selection vector, applied lazily so a filter
    followed by a projection gathers each referenced column exactly
    once, and unreferenced columns are never touched. A projection is
    the rematerialization point (it computes new columns); rename is
    zero-copy under a pending selection.

    Every member keeps its own metrics (exact rows in/out and batches;
    inclusive time lands on the chain head) and is flagged ``fused``.
    """
    chain: List[PlanNode] = [plan]
    node = plan.child
    while isinstance(node, _FUSABLE):
        chain.append(node)
        node = node.child

    fused = len(chain) > 1
    for i, member in enumerate(chain):
        member_metrics = OperatorMetrics(
            label=member.describe(),
            depth=depth + i,
            fused=fused,
            width=len(member.schema),
        )
        if context.metrics is not None:
            context.metrics.register(member_metrics)
        member.op_metrics = member_metrics

    child_batches = build_pipeline(node, context, depth + len(chain))
    head_metrics = chain[0].op_metrics
    if node.op_metrics is not None:
        # the head's inclusive time must subtract the real producer —
        # fused members contribute no time of their own
        head_metrics.children.append(node.op_metrics)

    # stages run bottom-up (deepest chain member first)
    stages = [_Stage(member, context) for member in reversed(chain)]
    for stage, member in zip(stages, reversed(chain)):
        stage.metrics = member.op_metrics
    stages[-1].is_head = True

    def generate() -> Iterator[ColumnBatch]:
        for batch in child_batches:
            columns = batch.columns
            count = batch.length
            sel = None
            emitted = count
            for stage in stages:
                in_rows = len(sel) if sel is not None else count
                stage.metrics.rows_in += in_rows
                if stage.kind == "filter":
                    program = stage.program
                    if sel is None:
                        sel = program.run(columns, count)
                    elif program.active:
                        virtual = gather_virtual(
                            columns, program.used, sel, stage.width
                        )
                        relative = program.run(virtual, len(sel))
                        if relative is not None:
                            sel = [sel[i] for i in relative]
                elif stage.kind == "project":
                    program = stage.program
                    if sel is not None:
                        virtual = gather_virtual(
                            columns, program.used, sel, stage.width
                        )
                        count = len(sel)
                        columns = program.run(virtual, count)
                        sel = None
                    else:
                        columns = program.run(columns, count)
                else:  # rename: pure column pick, selection unaffected
                    columns = [columns[p] for p in stage.positions]
                emitted = len(sel) if sel is not None else count
                if not emitted:
                    break
                if not stage.is_head:
                    stage.metrics.batches += 1
                    stage.metrics.rows_out += emitted
            if not emitted:
                continue
            if sel is not None:
                yield ColumnBatch(
                    [take(column, sel) for column in columns], len(sel)
                )
            else:
                yield ColumnBatch(columns, count)
        for member in chain[1:]:
            member.actual_rows = member.op_metrics.rows_out

    return _metered(plan, generate(), head_metrics)


def _metered(
    plan: PlanNode, generator: Iterator, metrics: OperatorMetrics
) -> Iterator:
    """Wrap an operator's batch generator with row/batch/time counters;
    records ``actual_rows`` when the stream is exhausted."""
    rows_out = 0
    while True:
        started = perf_counter()
        batch = next(generator, _SENTINEL)
        metrics.seconds += perf_counter() - started
        if batch is _SENTINEL:
            break
        metrics.batches += 1
        rows_out += len(batch)
        yield batch
    metrics.rows_out = rows_out
    plan.actual_rows = rows_out
