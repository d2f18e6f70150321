"""Creation and maintenance of materialized aggregate views.

Creation binds the view body (the same path queries take), decomposes
its aggregates, and populates a backing table of *partial* aggregates
through the batch executor — so ``OperatorMetrics`` meter the populate
exactly like any query, and the IO counter charges the backing write.

Refresh comes in two flavors:

- **incremental** — when the aggregates decompose and the accumulated
  deltas touch exactly one occurrence of one base table, the partial
  aggregates of the *delta rows alone* are computed (by swapping a temp
  delta table into the view's FROM list) and merged into the stored
  groups through the aggregate accumulators' ``merge()`` — the cost
  scales with the delta, not the base table.
- **full** — recompute from the base tables; the fallback for holistic
  views, multi-table deltas, and self-join views where one table's
  delta would need joining against both old and new states.

Backing rows are kept sorted by the grouping columns in every path, so
an incremental refresh yields a backing table *byte-identical* to a
from-scratch recompute (floating-point caveats aside: sums re-associate,
which is exact for integers and whole-number floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.aggregates import AggregateCall, aggregate_function
from ..algebra.expressions import ColumnRef, Expression
from ..algebra.query import QueryBlock, TableRef
from ..catalog.catalog import Catalog, TableInfo
from ..catalog.schema import Column
from ..cost.params import CostParams
from ..datatypes import null_ordered_key
from ..engine.context import ExecutionContext
from ..engine.executor import execute_plan
from ..engine.metrics import ExecutionMetrics
from ..errors import CatalogError, UnsupportedFeatureError
from ..optimizer.block import BaseLeaf, BlockOptimizer, GroupingSpec
from ..optimizer.options import TRADITIONAL
from ..sql.binder import Binder
from ..storage.iocounter import IOCounter, IOSnapshot
from ..storage.table import HeapTable
from ..transforms.coalescing import decompose_aggregates
from .registry import MaterializedView, backing_table_name

DELTA_PREFIX = "__delta__"


@dataclass
class MaintenanceReport:
    """What one populate/refresh did and what it cost."""

    view: str
    mode: str
    """``initial`` | ``incremental`` | ``full`` | ``noop``."""
    delta_rows: int
    rows: int
    io: Optional[IOSnapshot] = None
    metrics: Optional[ExecutionMetrics] = None

    def describe(self) -> str:
        text = f"refresh {self.view}: {self.mode}"
        if self.mode != "noop":
            text += f", {self.rows} groups"
            if self.mode == "incremental":
                text += f" from {self.delta_rows} delta rows"
            if self.io is not None:
                text += f", {self.io.total} page IOs"
        return text


# ----------------------------------------------------------------------
# Creation
# ----------------------------------------------------------------------


def create_materialized_view(
    catalog: Catalog,
    io: IOCounter,
    params: Optional[CostParams],
    definition: Any,
) -> Tuple[MaterializedView, MaintenanceReport]:
    """Bind, lay out, and populate one materialized view. The caller
    (``db.py``) registers the result with the catalog."""
    name = definition.name
    block = Binder(catalog).bind_view_block(definition, name)
    if not block.group_by:
        raise UnsupportedFeatureError(
            f"materialized view {name!r} must have a GROUP BY: "
            "the subsystem materializes aggregate views (Section 2)"
        )
    if block.having:
        raise UnsupportedFeatureError(
            f"materialized view {name!r} has a HAVING clause; materialize "
            "the ungrouped-filter form and filter in queries instead"
        )

    layout = _layout(block)
    (
        key_columns,
        partials,
        coalescers,
        value_columns,
        spec_aggregates,
        backing_select,
    ) = layout

    plan = _partial_plan(
        catalog, params, block.relations, block.predicates,
        block.group_by, spec_aggregates, backing_select,
    )
    with io.measure() as span:
        context = ExecutionContext(catalog, io, params or CostParams())
        result = execute_plan(plan, context)
        rows = sorted(
            result.rows,
            key=lambda row: null_ordered_key(row[: len(key_columns)]),
        )
        # Backing columns are nullable throughout: group keys may come
        # from nullable base columns and partial aggregates of all-NULL
        # groups are themselves NULL.
        columns = [Column(f.name, f.dtype, nullable=True) for f in plan.schema]
        table = HeapTable(backing_table_name(name), columns)
        table.insert_many(rows)
        io.write_pages(table.num_pages)
    backing_info = TableInfo(table=table)

    view = MaterializedView(
        name=name,
        definition=definition,
        block=block,
        key_columns=key_columns,
        partials=partials,
        coalescers=coalescers,
        value_columns=value_columns,
        backing_info=backing_info,
        deps=frozenset(ref.table for ref in block.relations),
        spec_aggregates=spec_aggregates,
        backing_select=backing_select,
    )
    report = MaintenanceReport(
        view=name,
        mode="initial",
        delta_rows=0,
        rows=table.num_rows,
        io=span.delta,
        metrics=context.metrics,
    )
    return view, report


def _layout(block: QueryBlock):
    """Decide the backing-table columns: grouping keys first (named
    after the view's select list when possible), then one column per
    partial aggregate — or per finished aggregate for holistic views."""
    select_names: Dict[Tuple[Optional[str], str], str] = {}
    for output_name, source in block.select:
        if isinstance(source, ColumnRef):
            select_names.setdefault(source.key, output_name)

    used: set = set()
    key_columns: List[Tuple[str, ColumnRef]] = []
    for position, ref in enumerate(block.group_by):
        candidate = select_names.get(ref.key, ref.name)
        while candidate in used:
            candidate = f"k{position}_{candidate}"
        used.add(candidate)
        key_columns.append((candidate, ref))

    decomposed = decompose_aggregates(block.aggregates)
    if decomposed is not None:
        partials: List[Tuple[str, AggregateCall]] = []
        coalescers: List[Tuple[str, str]] = []
        for position, (_, call) in enumerate(decomposed.partials):
            candidate = f"p{position}"
            while candidate in used:
                candidate = "_" + candidate
            used.add(candidate)
            partials.append((candidate, call))
            coalescer = call.function().decompose(call.arg).coalescers[0]
            coalescers.append((candidate, coalescer))
        spec_aggregates = tuple(partials)
        value_columns: Tuple[str, ...] = ()
        partials_out: Optional[Tuple[Tuple[str, AggregateCall], ...]] = (
            tuple(partials)
        )
        coalescers_out = tuple(coalescers)
    else:
        # Holistic: store finished values; refresh is always full and
        # the rewrite never uses this view.
        values: List[Tuple[str, AggregateCall]] = []
        for output_name, call in block.aggregates:
            candidate = output_name
            while candidate in used:
                candidate = "v_" + candidate
            used.add(candidate)
            values.append((candidate, call))
        spec_aggregates = tuple(values)
        value_columns = tuple(column for column, _ in values)
        partials_out = None
        coalescers_out = ()

    backing_select: Tuple[Tuple[str, Expression], ...] = tuple(
        [
            (column, ColumnRef(ref.alias, ref.name))
            for column, ref in key_columns
        ]
        + [
            (column, ColumnRef(None, column))
            for column, _ in spec_aggregates
        ]
    )
    return (
        tuple(key_columns),
        partials_out,
        coalescers_out,
        value_columns,
        spec_aggregates,
        backing_select,
    )


def _partial_plan(
    catalog: Catalog,
    params: Optional[CostParams],
    relations: Tuple[TableRef, ...],
    predicates: Tuple[Expression, ...],
    group_by,
    spec_aggregates: Tuple[Tuple[str, AggregateCall], ...],
    backing_select: Tuple[Tuple[str, Expression], ...],
):
    """A traditional-DP plan computing one backing row per group."""
    optimizer = BlockOptimizer(catalog, params, TRADITIONAL)
    spec = GroupingSpec(
        group_keys=tuple(ref.key for ref in group_by),
        aggregates=spec_aggregates,
        having=(),
    )
    return optimizer.optimize_block(
        leaves=[BaseLeaf(ref) for ref in relations],
        predicates=predicates,
        spec=spec,
        select=backing_select,
    )


# ----------------------------------------------------------------------
# Refresh
# ----------------------------------------------------------------------


def refresh_materialized_view(
    catalog: Catalog,
    io: IOCounter,
    params: Optional[CostParams],
    name: str,
    mode: str = "auto",
) -> MaintenanceReport:
    """Bring one view up to date.

    ``mode="auto"`` (the default) picks incremental merge when legal,
    full recompute otherwise, and does nothing for a fresh view;
    ``mode="full"`` always recomputes from the base tables."""
    if mode not in ("auto", "full"):
        raise CatalogError(f"unknown refresh mode {mode!r}")
    view = catalog.materialized_view(name)
    if mode == "auto" and not view.stale:
        return MaintenanceReport(
            view=name,
            mode="noop",
            delta_rows=0,
            rows=view.backing_info.table.num_rows,
        )
    try:
        if mode == "auto":
            delta = _incremental_delta(view)
            if delta is not None:
                table_name, delta_rows = delta
                return _refresh_incremental(
                    catalog, io, params, view, table_name, delta_rows
                )
        return _refresh_full(catalog, io, params, view)
    finally:
        # The backing table's contents changed: cached plans whose cost
        # or answers depended on it must not be reused as-is.
        catalog.bump_epoch(name, view.backing_name)


def refresh_stale_views(
    catalog: Catalog,
    io: IOCounter,
    params: Optional[CostParams],
    tables: Sequence[str],
) -> List[MaintenanceReport]:
    """Lazy refresh on read: freshen every stale *decomposable* view
    whose dependencies lie inside *tables* (the relations a query is
    about to touch). Holistic views never answer queries through the
    rewrite, so they only refresh on explicit REFRESH."""
    scope = set(tables)
    reports: List[MaintenanceReport] = []
    for view in catalog.materialized_views():
        if view.stale and view.is_decomposable and view.deps <= scope:
            reports.append(
                refresh_materialized_view(catalog, io, params, view.name)
            )
    return reports


def _incremental_delta(
    view: MaterializedView,
) -> Optional[Tuple[str, List[Tuple[Any, ...]]]]:
    """The (table, rows) delta if incremental merge is legal: the view
    decomposes, exactly one base table changed, and that table appears
    exactly once in the FROM list (a self-join delta would need the
    old-state/new-state split this model does not implement)."""
    if not view.is_decomposable:
        return None
    changed = [
        (table, rows) for table, rows in view.deltas.items() if rows
    ]
    if len(changed) != 1:
        return None
    table_name, rows = changed[0]
    occurrences = [
        ref for ref in view.block.relations if ref.table == table_name
    ]
    if len(occurrences) != 1:
        return None
    return table_name, rows


def _refresh_incremental(
    catalog: Catalog,
    io: IOCounter,
    params: Optional[CostParams],
    view: MaterializedView,
    table_name: str,
    delta_rows: List[Tuple[Any, ...]],
) -> MaintenanceReport:
    temp_name = DELTA_PREFIX + view.name
    base_columns = catalog.table(table_name).columns
    temp = catalog.create_table(temp_name, base_columns)
    try:
        temp.insert_many(delta_rows)
        relations = tuple(
            TableRef(temp_name, ref.alias)
            if ref.table == table_name
            else ref
            for ref in view.block.relations
        )
        plan = _partial_plan(
            catalog, params, relations, view.block.predicates,
            view.block.group_by, view.spec_aggregates, view.backing_select,
        )
        with io.measure() as span:
            context = ExecutionContext(catalog, io, params or CostParams())
            result = execute_plan(plan, context)
            merged = _merge_groups(view, result.rows, io)
            _replace_backing(view, merged, io)
    finally:
        catalog.drop_table(temp_name)
    view.mark_fresh()
    return MaintenanceReport(
        view=view.name,
        mode="incremental",
        delta_rows=len(delta_rows),
        rows=view.backing_info.table.num_rows,
        io=span.delta,
        metrics=context.metrics,
    )


def _refresh_full(
    catalog: Catalog,
    io: IOCounter,
    params: Optional[CostParams],
    view: MaterializedView,
) -> MaintenanceReport:
    delta_rows = sum(len(rows) for rows in view.deltas.values())
    plan = _partial_plan(
        catalog, params, view.block.relations, view.block.predicates,
        view.block.group_by, view.spec_aggregates, view.backing_select,
    )
    with io.measure() as span:
        context = ExecutionContext(catalog, io, params or CostParams())
        result = execute_plan(plan, context)
        rows = sorted(
            result.rows,
            key=lambda row: null_ordered_key(row[: len(view.key_columns)]),
        )
        _replace_backing(view, rows, io)
    view.mark_fresh()
    return MaintenanceReport(
        view=view.name,
        mode="full",
        delta_rows=delta_rows,
        rows=view.backing_info.table.num_rows,
        io=span.delta,
        metrics=context.metrics,
    )


def _merge_groups(
    view: MaterializedView,
    delta_groups: Sequence[Tuple[Any, ...]],
    io: IOCounter,
) -> List[Tuple[Any, ...]]:
    """Coalesce delta partials into the stored groups via ``merge()``."""
    width = len(view.key_columns)
    merged: Dict[Tuple[Any, ...], List[Any]] = {}
    for row in view.backing_info.table.scan(io):
        merged[row[:width]] = list(row)
    functions = [
        (width + position, aggregate_function(function_name))
        for position, (_, function_name) in enumerate(view.coalescers)
    ]
    for row in delta_groups:
        key = row[:width]
        current = merged.get(key)
        if current is None:
            merged[key] = list(row)
            continue
        for slot, function in functions:
            stored = function.make_accumulator()
            stored.add(current[slot])
            incoming = function.make_accumulator()
            incoming.add(row[slot])
            stored.merge(incoming)
            current[slot] = stored.value()
    rows = [tuple(row) for row in merged.values()]
    rows.sort(key=lambda row: null_ordered_key(row[:width]))
    return rows


def _replace_backing(
    view: MaterializedView, rows: Sequence[Tuple[Any, ...]], io: IOCounter
) -> None:
    table = view.backing_info.table
    # Copy-on-write publish: concurrent snapshot readers holding the old
    # row list keep scanning the pre-refresh contents unchanged.
    table.replace_rows(rows)
    io.write_pages(table.num_pages)
