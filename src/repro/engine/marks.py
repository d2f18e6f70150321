"""Mark-join execution.

A :class:`~repro.algebra.plan.SubqueryMarkNode` keeps or drops each
outer (child) row by consulting the materialized inner subplan under
the row's correlation values. :func:`mark_filter` compiles that
decision once per plan; :func:`mark_columns` feeds it one execution's
rows.

The inner side is deliberately re-scanned per outer row (O(outer x
inner)): a mark join is the *unflattened* fallback for the shapes
decorrelation leaves behind, and its naivety is what flattening saves.
Do not add per-key bucketing here.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Tuple

from ..algebra.expressions import _COMPARISON_OPS, Comparison
from ..algebra.plan import SubqueryMarkNode
from .batch import ColumnBatch
from .context import ExecutionContext
from .kernels import row_closures
from .metrics import OperatorMetrics


def mark_filter(
    plan: SubqueryMarkNode,
) -> Callable[[ExecutionContext, List[Tuple[Any, ...]]], Callable]:
    """Compile the node's keep-or-drop decision: the returned
    ``decide(context, inner_rows)`` gives one execution's ``keep(row)``
    predicate over the inner rows it materialized.

    Mirrors the reference evaluator's ``_apply_mark`` exactly:
    correlation equalities must evaluate to TRUE (an UNKNOWN match is no
    match), membership uses SQL three-valued logic (NOT IN drops on any
    TRUE *or* UNKNOWN verdict), and a scalar aggregate over an empty
    correlation group compares against the accumulator's empty value
    (COUNT = 0, others NULL — so the comparison is UNKNOWN and drops).
    """
    child_schema = plan.child.schema
    inner_schema = plan.inner.schema
    arm_correlations = row_closures(
        [
            Comparison("=", inner_ref, outer_expr)
            for inner_ref, outer_expr in plan.correlations
        ],
        child_schema.concat(inner_schema),
    )
    arm_outer = row_closures([plan.outer], child_schema)
    # IN's membership test is an implicit equality (op is None).
    compare = _COMPARISON_OPS[plan.op or "="]
    function = None
    if plan.kind == "scalar":
        assert plan.aggregate is not None
        function = plan.aggregate.function()
    arm_inner = row_closures(
        [plan.value, plan.aggregate.arg if function is not None else None],
        inner_schema,
    )

    def decide(context, inner_rows):
        correlation_checks = arm_correlations(context)
        (outer_eval,) = arm_outer(context)
        value_eval, arg_eval = arm_inner(context)

        if correlation_checks:

            def candidates(row: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
                return [
                    inner_row
                    for inner_row in inner_rows
                    if all(
                        check(row + inner_row) is True
                        for check in correlation_checks
                    )
                ]

        else:

            def candidates(row: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
                return inner_rows

        def keep(row: Tuple[Any, ...]) -> bool:
            matches = candidates(row)
            if plan.kind == "exists":
                return bool(matches) is not plan.negate
            if plan.kind == "in":
                outer_value = outer_eval(row)
                verdicts = [
                    compare(outer_value, value_eval(inner_row))
                    for inner_row in matches
                ]
                if plan.negate:
                    return not any(v is True or v is None for v in verdicts)
                return any(v is True for v in verdicts)
            accumulator = function.make_accumulator()
            for inner_row in matches:
                accumulator.add(
                    arg_eval(inner_row) if arg_eval is not None else True
                )
            return compare(outer_eval(row), accumulator.value()) is True

        return keep

    return decide


def mark_columns(plan: SubqueryMarkNode, compiler):
    """Columnar mark join: the inner pipeline is materialized once as
    row tuples; the decision is inherently per-row, so each child batch
    transposes once, the keep flags become a selection vector, and
    surviving rows gather column-wise (a full-keep batch passes through
    with no copy)."""
    child = compiler.child(plan.child)
    inner = compiler.child(plan.inner)
    decide = mark_filter(plan)

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        inner_rows = [row for batch in inner(run) for row in batch.to_rows()]
        keep = decide(run.context, inner_rows)
        for batch in child(run):
            metrics.rows_in += batch.length
            sel = [
                i for i, row in enumerate(batch.to_rows()) if keep(row)
            ]
            if not sel:
                continue
            if len(sel) == batch.length:
                yield batch
            else:
                metrics.cells += len(sel) * len(batch.columns)
                yield batch.take(sel)

    return open
