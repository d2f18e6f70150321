"""Brute-force reference evaluator.

Evaluates query blocks and canonical queries directly from their
definitions — cartesian products, predicate filtering, dictionary
grouping — with no optimizer, no plans, and no IO accounting. It is the
ground truth that every transformation and every optimizer plan is
checked against in the test suite: if a pulled-up or pushed-down plan
disagrees with this evaluator, the transformation is wrong.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.aggregates import Accumulator
from ..algebra.expressions import _COMPARISON_OPS, Comparison
from ..algebra.query import (
    AggregateView,
    CanonicalQuery,
    JoinUnit,
    QueryBlock,
    SubquerySpec,
)
from ..catalog.catalog import Catalog
from ..catalog.schema import Field, RowSchema, table_row_schema
from ..datatypes import NullOrdered
from .context import Result


def evaluate_block(block: QueryBlock, catalog: Catalog) -> Result:
    """Evaluate one single-block query by brute force."""
    sources = [_table_source(ref, catalog) for ref in block.relations]
    return _evaluate_over(
        sources,
        block.predicates,
        block.group_by,
        block.aggregates,
        block.having,
        block.select,
    )


def _table_source(ref, catalog: Catalog) -> Result:
    """A base table as a source, with the hidden row id exposed so
    rid-keyed pulled-up queries evaluate under the reference too."""
    table = catalog.table(ref.table)
    schema = table_row_schema(ref.alias, table.columns, include_rid=True)
    rows = [row + (rid,) for rid, row in enumerate(table.rows)]
    return Result(schema=schema, rows=rows)


def evaluate_view(view: AggregateView, catalog: Catalog) -> Result:
    """Evaluate an aggregate view; outputs are ``view_alias.column``."""
    inner = evaluate_block(view.block, catalog)
    fields = [
        Field(view.alias, field.name, field.dtype) for field in inner.schema
    ]
    return Result(schema=RowSchema(fields), rows=inner.rows)


def evaluate_canonical(query: CanonicalQuery, catalog: Catalog) -> Result:
    """Evaluate a Figure 3 canonical query by brute force: materialize
    each aggregate view, join in each unit (semi / anti / left) and
    apply each subquery spec unflattened, as a mark filter, then evaluate
    the outer block. WHERE predicates run after the units — exactly
    SQL's FROM-then-WHERE order, which is what makes filters over a
    LEFT unit's padded output come out right."""
    unit_aliases = {unit.alias for unit in query.joins}
    sources = [_table_source(ref, catalog) for ref in query.base_tables]
    unit_views: Dict[str, Result] = {}
    for view in query.views:
        if view.alias in unit_aliases:
            unit_views[view.alias] = evaluate_view(view, catalog)
        else:
            sources.append(evaluate_view(view, catalog))
    if query.joins or query.subqueries:
        core = _product(sources)
        for unit in query.joins:
            if unit.table is not None:
                unit_source = _table_source(unit.table, catalog)
                checks = [
                    predicate.bind(unit_source.schema)
                    for predicate in unit.filters
                ]
                unit_source = Result(
                    schema=unit_source.schema,
                    rows=[
                        row
                        for row in unit_source.rows
                        if all(check(row) for check in checks)
                    ],
                )
            else:
                unit_source = unit_views[unit.alias]
            core = _apply_unit(core, unit, unit_source)
        for spec in query.subqueries:
            core = _apply_mark(core, spec, catalog)
        sources = [core]
    result = _evaluate_over(
        sources,
        query.predicates,
        query.group_by,
        query.aggregates,
        query.having,
        query.select,
    )
    if query.order_by:
        rows = list(result.rows)
        for name, descending in reversed(query.order_by):
            position = result.schema.index_of(None, name)
            rows.sort(
                key=lambda row: NullOrdered(row[position]),
                reverse=descending,
            )
        result = Result(schema=result.schema, rows=rows)
    if query.limit is not None:
        result = Result(
            schema=result.schema, rows=result.rows[: query.limit]
        )
    return result


def _product(sources: Sequence[Result]) -> Result:
    """The unfiltered cartesian product of *sources*."""
    schema = sources[0].schema
    for source in sources[1:]:
        schema = schema.concat(source.schema)
    rows = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*(source.rows for source in sources))
    ]
    return Result(schema=schema, rows=rows)


def _apply_unit(core: Result, unit: JoinUnit, unit_source: Result) -> Result:
    """Join one unit onto the accumulated outer rows by brute force."""
    combined = core.schema.concat(unit_source.schema)
    checks = [predicate.bind(combined) for predicate in unit.on]
    if unit.null_aware:
        # NOT IN three-valued logic over the membership equality (the
        # first ON conjunct), within the inner rows whose correlation
        # equalities (the rest) are TRUE: any TRUE match drops the row,
        # and so does any UNKNOWN (a NULL probe against a non-empty
        # group, or a NULL inner value against an unmatched probe).
        assert unit.kind == "anti"
        membership, correlations = checks[0], checks[1:]
        rows = []
        for outer_row in core.rows:
            verdicts = [
                membership(outer_row + inner_row)
                for inner_row in unit_source.rows
                if all(
                    check(outer_row + inner_row) is True
                    for check in correlations
                )
            ]
            if any(v is True for v in verdicts):
                continue
            if any(v is None for v in verdicts):
                continue
            rows.append(outer_row)
        return Result(schema=core.schema, rows=rows)
    if unit.kind in ("semi", "anti"):
        want = unit.kind == "semi"
        rows = [
            outer_row
            for outer_row in core.rows
            if any(
                all(check(outer_row + inner_row) for check in checks)
                for inner_row in unit_source.rows
            )
            is want
        ]
        return Result(schema=core.schema, rows=rows)
    assert unit.kind == "left"
    padding = (None,) * len(unit_source.schema.fields)
    rows = []
    for outer_row in core.rows:
        matched = False
        for inner_row in unit_source.rows:
            if all(check(outer_row + inner_row) for check in checks):
                rows.append(outer_row + inner_row)
                matched = True
        if not matched:
            rows.append(outer_row + padding)
    return Result(schema=combined, rows=rows)


def _apply_mark(core: Result, spec: SubquerySpec, catalog: Catalog) -> Result:
    """Filter the outer rows through one unflattened subquery spec,
    evaluated naively: materialize the inner block once, then match
    correlations per outer row."""
    inner = _product([_table_source(ref, catalog) for ref in spec.relations])
    local_checks = [
        predicate.bind(inner.schema) for predicate in spec.local_predicates
    ]
    inner_rows = [
        row
        for row in inner.rows
        if all(check(row) for check in local_checks)
    ]
    combined = core.schema.concat(inner.schema)
    correlation_checks = [
        Comparison("=", inner_ref, outer_expr).bind(combined)
        for inner_ref, outer_expr in spec.correlations
    ]
    value_eval = (
        spec.value.bind(inner.schema) if spec.value is not None else None
    )
    outer_eval = (
        spec.outer.bind(core.schema) if spec.outer is not None else None
    )
    # IN's membership test is an implicit equality (op is None).
    compare = _COMPARISON_OPS[spec.op or "="]

    rows = []
    for outer_row in core.rows:
        candidates = [
            inner_row
            for inner_row in inner_rows
            if all(
                check(outer_row + inner_row) is True
                for check in correlation_checks
            )
        ]
        if spec.kind == "exists":
            keep = bool(candidates) is not spec.negate
        elif spec.kind == "in":
            outer_value = outer_eval(outer_row)
            verdicts = [
                compare(outer_value, value_eval(inner_row))
                for inner_row in candidates
            ]
            if spec.negate:
                keep = not any(v is True or v is None for v in verdicts)
            else:
                keep = any(v is True for v in verdicts)
        else:  # scalar aggregate
            assert spec.aggregate is not None
            accumulator = spec.aggregate.function().make_accumulator()
            arg_eval = (
                spec.aggregate.arg.bind(inner.schema)
                if spec.aggregate.arg is not None
                else None
            )
            for inner_row in candidates:
                accumulator.add(
                    arg_eval(inner_row) if arg_eval is not None else True
                )
            keep = compare(outer_eval(outer_row), accumulator.value()) is True
        if keep:
            rows.append(outer_row)
    return Result(schema=core.schema, rows=rows)


def _evaluate_over(
    sources: Sequence[Result],
    predicates,
    group_by,
    aggregates,
    having,
    select,
) -> Result:
    schema = sources[0].schema
    for source in sources[1:]:
        schema = schema.concat(source.schema)
    checks = [predicate.bind(schema) for predicate in predicates]

    joined: List[Tuple[Any, ...]] = []
    for combo in itertools.product(*(source.rows for source in sources)):
        row = tuple(itertools.chain.from_iterable(combo))
        if all(check(row) for check in checks):
            joined.append(row)

    if not group_by and not aggregates:
        evaluators = [source.bind(schema) for _, source in select]
        rows = [
            tuple(evaluate(row) for evaluate in evaluators) for row in joined
        ]
        out_schema = RowSchema(
            Field(None, name, source.dtype(schema))
            for name, source in select
        )
        return Result(schema=out_schema, rows=rows)

    # Aggregates with no GROUP BY are one group over the input and none
    # over an empty one. Only decorrelation builds such blocks (the
    # binder refuses SQL's scalar aggregate, which has one row there),
    # and its units rely on the missing row.
    key_positions = [
        schema.index_of(reference.alias, reference.name)
        for reference in group_by
    ]
    functions = [call.function() for _, call in aggregates]
    arg_evaluators = [
        call.arg.bind(schema) if call.arg is not None else None
        for _, call in aggregates
    ]
    groups: Dict[Tuple, List[Accumulator]] = {}
    order: List[Tuple] = []
    for row in joined:
        key = tuple(row[p] for p in key_positions)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [function.make_accumulator() for function in functions]
            groups[key] = accumulators
            order.append(key)
        for accumulator, evaluate in zip(accumulators, arg_evaluators):
            accumulator.add(evaluate(row) if evaluate is not None else True)

    internal_fields = [schema.fields[p] for p in key_positions]
    internal_fields += [
        Field(None, name, call.output_dtype(schema))
        for name, call in aggregates
    ]
    internal_schema = RowSchema(internal_fields)
    having_checks = [predicate.bind(internal_schema) for predicate in having]
    evaluators = [source.bind(internal_schema) for _, source in select]
    out_schema = RowSchema(
        Field(None, name, source.dtype(internal_schema))
        for name, source in select
    )
    rows = []
    for key in order:
        internal_row = key + tuple(acc.value() for acc in groups[key])
        if all(check(internal_row) for check in having_checks):
            rows.append(tuple(evaluate(internal_row) for evaluate in evaluators))
    return Result(schema=out_schema, rows=rows)


# ----------------------------------------------------------------------
# Bag comparison (for equivalence tests)
# ----------------------------------------------------------------------


def _normalize(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 9)
    return value


def rows_equal_bag(
    left: Sequence[Tuple[Any, ...]],
    right: Sequence[Tuple[Any, ...]],
    rel_tol: float = 1e-9,
) -> bool:
    """Multiset equality of row collections, tolerant to float noise and
    row order (SQL results are bags)."""
    if len(left) != len(right):
        return False
    key = lambda row: tuple(  # noqa: E731 - local sort key
        (str(type(v)), _normalize(v)) for v in row
    )
    left_sorted = sorted(left, key=key)
    right_sorted = sorted(right, key=key)
    for row_a, row_b in zip(left_sorted, right_sorted):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if a is None or b is None:
                if a is not b:
                    return False
            elif isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True
