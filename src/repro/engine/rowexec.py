"""Legacy row-at-a-time executor (the pre-batching interpreter).

This is the seed executor kept intact as a second oracle: it fully
materializes a :class:`Result` between every operator and interprets
tuples one at a time. The streaming batch executor
(:mod:`repro.engine.executor`) must produce byte-identical rows and
identical IO charges; the differential tests in
``tests/test_batch_engine.py`` hold it to that.

Do not optimize this module — its value is being the slow, obviously
correct baseline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..algebra.aggregates import Accumulator
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
from ..catalog.schema import RowSchema, table_row_schema
from ..datatypes import NullOrdered, null_ordered_key
from ..errors import ExecutionError
from .context import ExecutionContext, Result
from .metrics import ExecutionMetrics, OperatorMetrics
from .spill import (
    external_sort_extra_io,
    hash_group_extra_io,
    hash_spill_extra_io,
    nlj_blocks,
)


def execute_plan_rows(
    plan: PlanNode, context: ExecutionContext, depth: int = 0
) -> Result:
    """Execute an operator tree one tuple at a time (legacy path).

    Charges exactly the same page IO as the batch executor and records
    each node's actual row count in ``context.metrics`` the same way
    (except the index-NLJ probe side, which the legacy path never
    recorded — the bug the batch executor fixes). A plan holding ``$n``
    placeholders is run as a copy with the values substituted
    (``server.planrewrite.bind_parameters``): this baseline shares no
    parameter plumbing with the engine it checks.
    """
    if context.metrics is None:
        context.metrics = ExecutionMetrics()
    position = len(context.metrics.operators)
    result = _dispatch(
        plan,
        context,
        lambda child, context: execute_plan_rows(child, context, depth + 1),
    )
    metrics = OperatorMetrics(
        plan.describe(),
        depth,
        rows_out=len(result.rows),
        width=len(plan.schema),
        exhausted=True,
    )
    # known only now, listed ahead of the inputs that ran meanwhile
    context.metrics.register(plan, metrics, position)
    return result


def _dispatch(
    plan: PlanNode, context: ExecutionContext, run=execute_plan_rows
) -> Result:
    if isinstance(plan, ScanNode):
        return _execute_scan(plan, context)
    if isinstance(plan, JoinNode):
        return _execute_join(plan, context, run)
    if isinstance(plan, SubqueryMarkNode):
        return _execute_mark(plan, context, run)
    if isinstance(plan, GroupByNode):
        return _execute_group_by(plan, context, run)
    if isinstance(plan, SortNode):
        return _execute_sort(plan, context, run)
    if isinstance(plan, RenameNode):
        return _execute_rename(plan, context, run)
    if isinstance(plan, ProjectNode):
        return _execute_project(plan, context, run)
    if isinstance(plan, FilterNode):
        return _execute_filter(plan, context, run)
    if isinstance(plan, LimitNode):
        return _execute_limit(plan, context, run)
    raise ExecutionError(f"cannot execute node type {type(plan).__name__}")


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


def _execute_scan(plan: ScanNode, context: ExecutionContext) -> Result:
    table = context.catalog.table(plan.table_name)
    storage = context.storage_for(plan.table_name)
    full_schema = table_row_schema(plan.alias, table.columns, include_rid=True)
    checks = [predicate.bind(full_schema) for predicate in plan.filters]
    positions = [
        full_schema.index_of(field.alias, field.name) for field in plan.schema
    ]

    if plan.index_name is not None:
        from .join import _probe_lookup

        info = context.catalog.info(plan.table_name)
        index = info.indexes.get(plan.index_name)
        if index is None:
            raise ExecutionError(
                f"index {plan.index_name!r} not found on {plan.table_name!r}"
            )
        source = _probe_lookup(context, plan, index)(
            context.io, plan.probe_key(), include_rid=True
        )
    else:
        source = storage.scan(context.io, include_rid=True)

    rows: List[Tuple] = []
    for row in source:
        if all(check(row) for check in checks):
            rows.append(tuple(row[position] for position in positions))
    return Result(schema=plan.schema, rows=rows)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


def _execute_join(
    plan: JoinNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    left = run(plan.left, context)
    if plan.kind != "inner":
        return _execute_kind_join(plan, context, run, left)
    combined = plan.left.schema.concat(plan.right.schema)
    residual_checks = [
        predicate.bind(combined) for predicate in plan.residuals
    ]
    positions = [
        combined.index_of(alias, name) for alias, name in plan.projection
    ]

    if plan.method == "inlj":
        joined = _index_nlj(plan, context, left)
    else:
        right = run(plan.right, context)
        if plan.method == "hj":
            joined = _hash_join(plan, context, left, right)
        elif plan.method == "smj":
            joined = _sort_merge_join(plan, context, left, right)
        else:
            joined = _block_nlj(plan, context, left, right)

    rows: List[Tuple] = []
    for row in joined:
        if all(check(row) for check in residual_checks):
            rows.append(tuple(row[position] for position in positions))
    return Result(schema=plan.schema, rows=rows)


def _execute_kind_join(
    plan: JoinNode,
    context: ExecutionContext,
    run: Callable[..., Result],
    left: Result,
) -> Result:
    """Semi / anti / LEFT OUTER joins (hash or block-NLJ cores only).

    The ON condition is the equi keys *plus* the residuals, evaluated
    while matching — a residual that fails means "no match" (padded for
    LEFT, unmatched for semi/anti), never a post-join filter. IO
    charges mirror the inner-join cores of the same method.
    """
    right = run(plan.right, context)
    memory = context.params.memory_pages

    if plan.method == "hj":
        extra = hash_spill_extra_io(right.pages, left.pages, memory)
        if extra:
            context.io.write_pages(extra // 2)
            context.io.read_pages(extra - extra // 2)
    else:  # block NLJ: charge the inner side's rescans
        blocks = nlj_blocks(left.pages, memory)
        inner_is_scan = (
            isinstance(plan.right, ScanNode) and plan.right.index_name is None
        )
        if inner_is_scan:
            inner_pages = context.storage_for(plan.right.table_name).num_pages
            if inner_pages > max(1, memory - 2) and blocks > 1:
                context.io.read_pages((blocks - 1) * inner_pages)
        else:
            inner_pages = right.pages
            if inner_pages > max(1, memory - 2):
                context.io.write_pages(inner_pages)  # materialize the inner
                context.io.read_pages(blocks * inner_pages)

    combined = plan.left.schema.concat(plan.right.schema)
    residual_checks = [
        predicate.bind(combined) for predicate in plan.residuals
    ]
    positions = [
        combined.index_of(alias, name) for alias, name in plan.projection
    ]
    left_positions = _key_positions(
        plan.left.schema, [pair[0] for pair in plan.equi_keys]
    )
    right_positions = _key_positions(
        plan.right.schema, [pair[1] for pair in plan.equi_keys]
    )

    if plan.null_aware:
        # NOT IN anti join over its single key, SQL three-valued logic:
        # any TRUE match drops the probe row, and so does any UNKNOWN
        # (NULL probe against a non-empty inner, or a NULL inner key
        # against an otherwise unmatched probe). An empty inner keeps
        # every probe row.
        keys = [row[right_positions[0]] for row in right.rows]
        inner_nonempty = bool(keys)
        inner_has_null = any(key is None for key in keys)
        key_set = set(key for key in keys if key is not None)
        rows: List[Tuple] = []
        for left_row in left.rows:
            key = left_row[left_positions[0]]
            if inner_nonempty and (
                key is None or inner_has_null or key in key_set
            ):
                continue
            rows.append(tuple(left_row[p] for p in positions))
        return Result(schema=plan.schema, rows=rows)

    if plan.equi_keys:
        buckets: dict = {}
        for right_row in right.rows:
            key = tuple(right_row[p] for p in right_positions)
            if None in key:
                continue  # NULL keys never equi-match
            buckets.setdefault(key, []).append(right_row)

        def candidates(left_row):
            key = tuple(left_row[p] for p in left_positions)
            if None in key:
                return ()
            return buckets.get(key, ())

    else:

        def candidates(left_row):
            return right.rows

    rows = []
    if plan.kind == "left":
        padding = (None,) * len(plan.right.schema)
        for left_row in left.rows:
            matched = False
            for right_row in candidates(left_row):
                row = left_row + right_row
                if all(check(row) for check in residual_checks):
                    rows.append(tuple(row[p] for p in positions))
                    matched = True
            if not matched:
                row = left_row + padding
                rows.append(tuple(row[p] for p in positions))
    else:
        # semi/anti project the left side only (positions < left width)
        want = plan.kind == "semi"
        for left_row in left.rows:
            hit = any(
                all(
                    check(left_row + right_row)
                    for check in residual_checks
                )
                for right_row in candidates(left_row)
            )
            if hit is want:
                rows.append(tuple(left_row[p] for p in positions))
    return Result(schema=plan.schema, rows=rows)


def _execute_mark(
    plan: SubqueryMarkNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Naive mark join: materialize the inner subplan once, then keep or
    drop each child row per the shared mark predicate."""
    from .marks import mark_filter

    child = run(plan.child, context)
    inner = run(plan.inner, context)
    keep = mark_filter(plan)(context, inner.rows)
    rows = [row for row in child.rows if keep(row)]
    return Result(schema=plan.schema, rows=rows)


def _key_positions(
    schema: RowSchema, keys: List[Tuple[Optional[str], str]]
) -> List[int]:
    return [schema.index_of(alias, name) for alias, name in keys]


def _block_nlj(
    plan: JoinNode, context: ExecutionContext, left: Result, right: Result
) -> List[Tuple]:
    """Block nested-loop join; equi keys (if any) checked as predicates."""
    memory = context.params.memory_pages
    blocks = nlj_blocks(left.pages, memory)

    # Charge the inner side's rescans. The first pass was charged when
    # the right child executed (base scan) or is free (still in memory).
    inner_is_scan = (
        isinstance(plan.right, ScanNode) and plan.right.index_name is None
    )
    if inner_is_scan:
        inner_pages = context.storage_for(plan.right.table_name).num_pages
        if inner_pages > max(1, memory - 2) and blocks > 1:
            context.io.read_pages((blocks - 1) * inner_pages)
    else:
        inner_pages = right.pages
        if inner_pages > max(1, memory - 2):
            context.io.write_pages(inner_pages)  # materialize the inner
            context.io.read_pages(blocks * inner_pages)

    left_positions = _key_positions(
        plan.left.schema, [pair[0] for pair in plan.equi_keys]
    )
    right_positions = _key_positions(
        plan.right.schema, [pair[1] for pair in plan.equi_keys]
    )
    rows: List[Tuple] = []
    for left_row in left.rows:
        left_key = tuple(left_row[p] for p in left_positions)
        if None in left_key:
            continue  # NULL keys never equi-join
        for right_row in right.rows:
            if left_key == tuple(right_row[p] for p in right_positions):
                rows.append(left_row + right_row)
    return rows


def _index_nlj(
    plan: JoinNode, context: ExecutionContext, left: Result
) -> List[Tuple]:
    """Index nested-loop join: probe the inner table's index per outer
    row, applying the inner scan's filters to fetched rows."""
    inner = plan.right
    if not isinstance(inner, ScanNode):
        raise ExecutionError("index NLJ requires a base-table inner")
    info = context.catalog.info(inner.table_name)
    index = info.indexes.get(plan.index_name or "")
    if index is None:
        raise ExecutionError(
            f"index {plan.index_name!r} not found on {inner.table_name!r}"
        )

    # The index must be on the inner join columns, in equi-key order.
    inner_join_columns = [name for (_, (_, name)) in plan.equi_keys]
    if list(index.column_names[: len(inner_join_columns)]) != inner_join_columns:
        raise ExecutionError(
            f"index {index.name!r} does not cover join columns "
            f"{inner_join_columns}"
        )

    table = info.table
    inner_full = table_row_schema(inner.alias, table.columns, include_rid=True)
    checks = [predicate.bind(inner_full) for predicate in inner.filters]
    inner_positions = [
        inner_full.index_of(field.alias, field.name) for field in inner.schema
    ]
    left_positions = _key_positions(
        plan.left.schema, [pair[0] for pair in plan.equi_keys]
    )

    from .join import _probe_lookup

    lookup = _probe_lookup(context, inner, index)
    rows: List[Tuple] = []
    for left_row in left.rows:
        probe = tuple(left_row[p] for p in left_positions)
        if None in probe:
            continue  # NULL keys never equi-join
        for inner_row in lookup(context.io, probe, include_rid=True):
            if all(check(inner_row) for check in checks):
                projected = tuple(inner_row[p] for p in inner_positions)
                rows.append(left_row + projected)
    return rows


def _hash_join(
    plan: JoinNode, context: ExecutionContext, left: Result, right: Result
) -> List[Tuple]:
    """Hash join, build side right, probe side left."""
    extra = hash_spill_extra_io(
        right.pages, left.pages, context.params.memory_pages
    )
    if extra:
        context.io.write_pages(extra // 2)
        context.io.read_pages(extra - extra // 2)

    left_positions = _key_positions(
        plan.left.schema, [pair[0] for pair in plan.equi_keys]
    )
    right_positions = _key_positions(
        plan.right.schema, [pair[1] for pair in plan.equi_keys]
    )
    buckets: dict = {}
    for right_row in right.rows:
        key = tuple(right_row[p] for p in right_positions)
        buckets.setdefault(key, []).append(right_row)
    rows: List[Tuple] = []
    for left_row in left.rows:
        key = tuple(left_row[p] for p in left_positions)
        if None in key:
            continue  # NULL keys never equi-join
        for right_row in buckets.get(key, ()):
            rows.append(left_row + right_row)
    return rows


def _sort_merge_join(
    plan: JoinNode, context: ExecutionContext, left: Result, right: Result
) -> List[Tuple]:
    """Sort-merge join; charges sorts unless an input is pre-ordered.

    Sorts into fresh lists: the child ``Result`` objects may be shared
    (cached subplans, pre-ordered sort pass-through), so mutating
    ``result.rows`` in place would corrupt them.
    """
    memory = context.params.memory_pages
    left_keys = [pair[0] for pair in plan.equi_keys]
    right_keys = [pair[1] for pair in plan.equi_keys]
    left_positions = _key_positions(plan.left.schema, left_keys)
    right_positions = _key_positions(plan.right.schema, right_keys)

    # NULL-keyed rows never equi-join and have no place in the key
    # order, so both sides drop them up front (charges stay based on
    # the child's full page count, matching the batch executor).
    left_rows = [
        row
        for row in left.rows
        if None not in _sort_key(row, left_positions)
    ]
    right_rows = [
        row
        for row in right.rows
        if None not in _sort_key(row, right_positions)
    ]
    for result, child, positions in (
        (left, plan.left, left_positions),
        (right, plan.right, right_positions),
    ):
        order = getattr(child.props, "order", ()) if child.props else ()
        keys = left_keys if result is left else right_keys
        if tuple(order[: len(keys)]) != tuple(keys):
            extra = external_sort_extra_io(result.pages, memory)
            if extra:
                context.io.write_pages(extra // 2)
                context.io.read_pages(extra - extra // 2)
            if result is left:
                left_rows.sort(key=lambda row: _sort_key(row, positions))
            else:
                right_rows.sort(key=lambda row: _sort_key(row, positions))
        # pre-ordered inputs merge for free

    rows: List[Tuple] = []
    i = 0
    j = 0
    while i < len(left_rows) and j < len(right_rows):
        left_key = _sort_key(left_rows[i], left_positions)
        right_key = _sort_key(right_rows[j], right_positions)
        if left_key < right_key:
            i += 1
        elif left_key > right_key:
            j += 1
        else:
            # collect the equal-key run on each side, emit the product
            i_end = i
            while (
                i_end < len(left_rows)
                and _sort_key(left_rows[i_end], left_positions) == left_key
            ):
                i_end += 1
            j_end = j
            while (
                j_end < len(right_rows)
                and _sort_key(right_rows[j_end], right_positions) == right_key
            ):
                j_end += 1
            for left_row in left_rows[i:i_end]:
                for right_row in right_rows[j:j_end]:
                    rows.append(left_row + right_row)
            i, j = i_end, j_end
    return rows


def _sort_key(row: Tuple, positions: List[int]) -> Tuple[Any, ...]:
    return tuple(row[p] for p in positions)


# ----------------------------------------------------------------------
# Group-by, sort, and the pipelined operators
# ----------------------------------------------------------------------


def _execute_group_by(
    plan: GroupByNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Group the child's rows (hash or sorted-run) and apply HAVING."""
    child = run(plan.child, context)
    child_schema = plan.child.schema
    key_positions = [
        child_schema.index_of(alias, name) for alias, name in plan.group_keys
    ]
    arg_evaluators = [
        call.arg.bind(child_schema) if call.arg is not None else None
        for _, call in plan.aggregates
    ]
    functions = [call.function() for _, call in plan.aggregates]

    if plan.method == "sort":
        groups = _sorted_groups(child.rows, key_positions, arg_evaluators, functions)
    else:
        groups = _hashed_groups(child.rows, key_positions, arg_evaluators, functions)
        extra = hash_group_extra_io(
            child.pages,
            _group_pages(len(groups), plan.internal_schema.width),
            context.params.memory_pages,
        )
        if extra:
            context.io.write_pages(extra // 2)
            context.io.read_pages(extra - extra // 2)

    internal = plan.internal_schema
    having_checks = [predicate.bind(internal) for predicate in plan.having]
    out_positions = [
        internal.index_of(alias, name) for alias, name in plan.projection
    ]
    rows: List[Tuple] = []
    for key, accumulators in groups:
        internal_row = key + tuple(acc.value() for acc in accumulators)
        if all(check(internal_row) for check in having_checks):
            rows.append(tuple(internal_row[p] for p in out_positions))
    return Result(schema=plan.schema, rows=rows)


def _hashed_groups(rows, key_positions, arg_evaluators, functions):
    table: Dict[Tuple, List[Accumulator]] = {}
    order: List[Tuple] = []
    for row in rows:
        key = tuple(row[p] for p in key_positions)
        accumulators = table.get(key)
        if accumulators is None:
            accumulators = [function.make_accumulator() for function in functions]
            table[key] = accumulators
            order.append(key)
        for accumulator, evaluate in zip(accumulators, arg_evaluators):
            accumulator.add(evaluate(row) if evaluate is not None else True)
    return [(key, table[key]) for key in order]


def _sorted_groups(rows, key_positions, arg_evaluators, functions):
    """Run-based aggregation over input sorted on the group keys.

    The planner guarantees the ordering (a SortNode below, or an order-
    producing child); we re-sort defensively if the input is small and
    unsorted, which keeps hand-built plans usable in tests.
    """
    keyed = [(tuple(row[p] for p in key_positions), row) for row in rows]
    if any(
        null_ordered_key(keyed[i + 1][0]) < null_ordered_key(keyed[i][0])
        for i in range(len(keyed) - 1)
    ):
        keyed.sort(key=lambda pair: null_ordered_key(pair[0]))
    groups = []
    current_key = None
    accumulators: List[Accumulator] = []
    for key, row in keyed:
        if key != current_key:
            if current_key is not None:
                groups.append((current_key, accumulators))
            current_key = key
            accumulators = [function.make_accumulator() for function in functions]
        for accumulator, evaluate in zip(accumulators, arg_evaluators):
            accumulator.add(evaluate(row) if evaluate is not None else True)
    if current_key is not None:
        groups.append((current_key, accumulators))
    return groups


def _group_pages(group_count: int, width: int) -> int:
    from ..storage.page import pages_for

    return pages_for(group_count, width)


def _execute_sort(
    plan: SortNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Sort the child's rows (stable, per-key direction), charging
    external-sort IO when the input exceeds memory."""
    child = run(plan.child, context)
    child_order = getattr(plan.child.props, "order", ()) if plan.child.props else ()
    ascending_only = not any(plan.descending)
    if ascending_only and tuple(
        child_order[: len(plan.keys)]
    ) == tuple(plan.keys):
        return Result(schema=plan.schema, rows=child.rows)
    extra = external_sort_extra_io(child.pages, context.params.memory_pages)
    if extra:
        context.io.write_pages(extra // 2)
        context.io.read_pages(extra - extra // 2)
    schema = plan.child.schema
    rows = list(child.rows)
    # stable multi-pass sort: apply keys from least to most significant
    for key, descending in reversed(list(zip(plan.keys, plan.descending))):
        position = schema.index_of(*key)
        # NullOrdered sorts NULLs first ascending (so last descending),
        # matching SQLite's default NULL placement.
        rows.sort(
            key=lambda row: NullOrdered(row[position]), reverse=descending
        )
    return Result(schema=plan.schema, rows=rows)


def _execute_limit(
    plan: LimitNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Keep the first N child rows."""
    child = run(plan.child, context)
    return Result(schema=plan.schema, rows=child.rows[: plan.count])


def _execute_filter(
    plan: FilterNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Drop child rows failing any predicate (pipelined, no IO)."""
    child = run(plan.child, context)
    schema = plan.child.schema
    checks = [predicate.bind(schema) for predicate in plan.predicates]
    rows = [
        row for row in child.rows if all(check(row) for check in checks)
    ]
    return Result(schema=plan.schema, rows=rows)


def _execute_project(
    plan: ProjectNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Evaluate each output expression per child row."""
    child = run(plan.child, context)
    schema = plan.child.schema
    evaluators = [
        expression.bind(schema) for _, _, expression in plan.outputs
    ]
    rows = [
        tuple(evaluate(row) for evaluate in evaluators) for row in child.rows
    ]
    return Result(schema=plan.schema, rows=rows)


def _execute_rename(
    plan: RenameNode,
    context: ExecutionContext,
    run: Callable[..., Result],
) -> Result:
    """Permute/rename child columns per the node's mapping."""
    child = run(plan.child, context)
    positions = plan.positions
    rows = [tuple(row[p] for p in positions) for row in child.rows]
    return Result(schema=plan.schema, rows=rows)
