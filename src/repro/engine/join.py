"""Streaming execution of joins: three match cores, one emitter.

IO discipline (mirrored by the cost model in ``repro.cost.model``):

- **Hash** and **block NLJ** share one match core: the right input is
  collected, and each left batch is matched against it. The method
  only picks the charge applied once the left side is exhausted. A
  hash join whose build side exceeds memory pays a Grace partitioning
  pass over both inputs. A block NLJ streams the outer in blocks of
  ``memory_pages - 2`` pages; an inner that does not fit in the
  remaining buffers is rescanned per block when it is a base table,
  else materialized (one write) and re-read per block.
- **Sort-merge**: each input is sorted unless already ordered on the
  join keys; sorting charges :func:`external_sort_extra_io`.
- **Index NLJ**: per outer row, a probe into the inner table's index;
  the index itself charges traversal/leaf/data-page IO.

Every core yields candidate (left row, right row) pairs, and one
emitter serves every join kind: the residual runs as a selection
kernel over the pairs (for a non-inner kind it is part of the ON
condition), then the kind's step — semi keeps the left rows with a
surviving pair, anti (and NOT IN, with its NULL rule) those without,
LEFT pads each pairless left row with a NULL right row — then the
projection is gathered.

The one exception is a join *folded* into the hash group-by above it
(:func:`join_columns` with a ``fold``, chosen at compile time by
``executor._fold_path``): an inner hash or block-NLJ join with no
residual, whose group keys all come from the left side. Its build step
groups the right input by join key into partial aggregate states (a
``COUNT(*)`` and each build-side aggregate's slots), its probe looks
each left row's key up in them, and the group-by merges the hits: no
pair, and so no emitter, exists. Its charges read the same input counts.

Pipeline shape: the match core's right input and both sort-merge
inputs are collected before output flows; the left side streams.
Right-before-left is load-bearing: an inner or semi hash join on one
key hands its bucketed build keys to the scan under its left input's
group-by before it pulls the first left batch (a runtime key filter,
:func:`_arm_key_filter`), so that scan drops the rows this join would
drop anyway before the group-by aggregates them.
"""

from __future__ import annotations

from itertools import chain, count
from operator import itemgetter, mul
from typing import Iterator, List, Optional, Tuple

from ..algebra.plan import JoinNode, ScanNode
from ..catalog.schema import RowSchema
from ..catalog.schema import table_row_schema
from ..errors import ExecutionError
from ..storage.page import pages_for
from ..storage.snapshot import TableSnapshot
from .batch import ColumnBatch, RowBatch, concat_columns, projector, take
from .context import ExecutionContext
from .kernels import (
    ComputeProgram,
    SelectionProgram,
    row_closures,
    update_kernel,
)
from .metrics import KEY_FILTER_FIRED, OperatorMetrics, charge_spill
from .spill import external_sort_extra_io, hash_spill_extra_io, nlj_blocks


def _probe_lookup(context: ExecutionContext, inner: ScanNode, index):
    """The index-probe callable for an index NLJ inner: the snapshot's
    captured index when this execution pinned one, else the live index.
    Signature matches ``OrderedIndex.lookup_rows``."""
    storage = context.storage_for(inner.table_name)
    if isinstance(storage, TableSnapshot):
        snap_index = storage.index(index.name)
        if snap_index is None:
            raise ExecutionError(
                f"index {index.name!r} not found on {inner.table_name!r}"
            )

        def lookup(io, key, include_rid=False):
            return storage.index_lookup_rows(
                io, snap_index, key, include_rid=include_rid
            )

        return lookup
    return index.lookup_rows


def _key_positions(
    schema: RowSchema, keys: List[Tuple[Optional[str], str]]
) -> List[int]:
    return [schema.index_of(alias, name) for alias, name in keys]


def _hash_charge(
    plan: JoinNode,
    context: ExecutionContext,
    metrics: OperatorMetrics,
    right_count: int,
    left_count: int,
) -> None:
    """A hash join's Grace partitioning of both inputs, when its build
    side exceeds memory."""
    charge_spill(
        context.io,
        metrics,
        hash_spill_extra_io(
            pages_for(right_count, plan.right.schema.width),
            pages_for(left_count, plan.left.schema.width),
            context.params.memory_pages,
        ),
    )


def _nlj_charge(
    plan: JoinNode,
    context: ExecutionContext,
    metrics: OperatorMetrics,
    right_count: int,
    left_count: int,
) -> None:
    """A block NLJ's inner passes beyond the first, one per outer
    block: rescans of a base-table inner, else materializing the inner
    once and re-reading it per block."""
    memory = context.params.memory_pages
    blocks = nlj_blocks(pages_for(left_count, plan.left.schema.width), memory)
    if isinstance(plan.right, ScanNode) and plan.right.index_name is None:
        inner_pages = context.storage_for(plan.right.table_name).num_pages
        if inner_pages > max(1, memory - 2) and blocks > 1:
            rescans = (blocks - 1) * inner_pages
            context.io.read_pages(rescans)
            metrics.spill(rescans, 0)
    else:
        inner_pages = pages_for(right_count, plan.right.schema.width)
        if inner_pages > max(1, memory - 2):
            context.io.write_pages(inner_pages)  # materialize the inner
            rereads = blocks * inner_pages
            context.io.read_pages(rereads)
            metrics.spill(rereads, inner_pages)


# ----------------------------------------------------------------------
# Columnar join path
# ----------------------------------------------------------------------
#
# Every core yields (left_batch, right_columns, li, ri, counts) tuples
# (a folded match core: FoldedBatch es, for the group-by above it):
# a left batch, the full-width right column set, and parallel index
# vectors — one (li[k], ri[k]) pair per candidate match, left-row-major.
# Matches stay *virtual* until the shared emitter has applied the
# residual filter (a compiled selection kernel over only the columns it
# reads), the kind's step and the join's projection; only projected
# columns are ever gathered, so an unprojected build column is never
# copied per match.
#
# Index vectors carry shape hints that keep the gathers at C speed:
#
# - ``li is None`` with ``counts`` set means the left vector is
#   "left row i, repeated counts[i] times" — left columns are then
#   produced directly by :func:`repeat_column` (one C pass, no index
#   vector ever materialized).
# - a ``range`` for ``li``/``ri`` means that side passes through whole
#   and in order (all-hit unique probe / index-NLJ match block) — its
#   columns are reused with no copy at all.


def _column_keys(columns, positions: List[int]):
    """Key sequence for a column set: the column itself for single-key
    joins (extraction is free), zipped tuples otherwise."""
    if len(positions) == 1:
        return columns[positions[0]]
    return list(zip(*(columns[p] for p in positions)))


def _build_buckets(keys, skip_tuple_nulls: bool) -> dict:
    """key → ascending list of row indices; NULL keys are skipped at
    build time (NULL never equi-matches), which is what lets the probe
    loop run without any null check — a missing key is just a dict miss."""
    buckets: dict = {}
    get = buckets.get
    if skip_tuple_nulls:
        for i, key in enumerate(keys):
            if None in key:
                continue
            hit = get(key)
            if hit is None:
                buckets[key] = [i]
            else:
                hit.append(i)
    else:
        for i, key in enumerate(keys):
            if key is None:
                continue
            hit = get(key)
            if hit is None:
                buckets[key] = [i]
            else:
                hit.append(i)
    return buckets


def _probe_multi(keys, buckets: dict):
    """One hash probe per row against multi-match buckets, entirely in
    C-level passes: ``map`` does the lookups, a listcomp counts the
    matches per probe row, and ``chain.from_iterable(filter(None, ...))``
    flattens the matched buckets into the build-index vector. Emit order
    is probe order then build-insertion order (a nested loop's emit
    order). Returns ``(counts, ri)`` — the left vector stays
    implicit (see the module comment above)."""
    hits = list(map(buckets.get, keys))
    counts = [0 if hit is None else len(hit) for hit in hits]
    ri = list(chain.from_iterable(filter(None, hits)))
    return counts, ri


def materialize_left(counts: List[int]) -> List[int]:
    """Expand a counts-encoded left vector into explicit indices
    (``(i,) * counts[i]`` concatenated — all C passes)."""
    return list(chain.from_iterable(map(mul, zip(count()), counts)))


def repeat_column(column, counts: List[int]):
    """Produce a left output column straight from the counts encoding:
    element i repeated counts[i] times, in one C pass. Tuple
    multiplication (``(v,) * c``) measures ~25% faster than
    ``itertools.repeat`` objects here: one allocation per probe row
    instead of one lazy iterator each."""
    return list(chain.from_iterable(map(mul, zip(column), counts)))


def _unique_index(buckets: dict) -> Optional[dict]:
    """``key -> index`` map when every bucket is a singleton (unique
    build keys — the common PK/FK case), else ``None``. Unlocks the
    C-speed probe path below."""
    for bucket in buckets.values():
        if len(bucket) != 1:
            return None
    return {key: bucket[0] for key, bucket in buckets.items()}


def _probe_unique(keys, index: dict):
    """Probe against a unique-key index with one C-level ``map`` pass.

    When every probe key matches (referential integrity — the dominant
    case in FK joins), ``li`` comes back as a ``range`` covering the
    whole batch in order, which the join emitter treats as "left columns
    pass through unchanged". Build indices are ints, so ``None`` in the
    hit list can only mean a miss."""
    ri = list(map(index.get, keys))
    if None in ri:
        li = [i for i, hit in enumerate(ri) if hit is not None]
        ri = [hit for hit in ri if hit is not None]
        return li, ri
    return range(len(ri)), ri


def _probe(keys, buckets: dict, unique: Optional[dict]):
    """``(li, ri, counts)`` of probe keys against a build side's
    buckets, through its unique index when it has one."""
    if unique is not None:
        li, ri = _probe_unique(keys, unique)
        return li, ri, None
    counts, ri = _probe_multi(keys, buckets)
    return None, ri, counts


def _semi_rows(n: int, li, counts, anti: bool):
    """The left rows of an *n*-row batch with a surviving pair (semi)
    or with none (anti), ascending; ``range(n)`` when that is all."""
    matched = set(
        li if li is not None else [i for i, c in enumerate(counts) if c]
    )
    rows = [i for i in range(n) if (i in matched) != anti]
    return range(n) if len(rows) == n else rows


def _membership_groups(columns, keys: List[int]):
    """NOT IN's key columns of one side: each row's membership value
    (the first key) and tuple of correlation keys (the rest; ``()``
    for every row when uncorrelated — the one group)."""
    values = columns[keys[0]]
    if len(keys) == 1:
        return values, [()] * len(values)
    return values, list(zip(*(columns[p] for p in keys[1:])))


def _null_groups(right_columns, right_keys: List[int]) -> dict:
    """NOT IN's right side by correlation group: each group it holds →
    whether a NULL is among the group's membership values. A row with
    a NULL correlation key equals no outer row, so joins no group."""
    holds_null: dict = {}
    for value, group in zip(*_membership_groups(right_columns, right_keys)):
        if None not in group:
            holds_null[group] = holds_null.get(group, False) or value is None
    return holds_null


def _not_in_rows(rows, left_columns, left_keys: List[int], holds_null):
    """NOT IN's NULL rule over an anti join's surviving *rows*, per
    correlation group (:func:`_null_groups`): a row whose group the
    right side does not hold meets an empty set and survives; in a
    non-empty group a NULL left value is UNKNOWN, and so is every
    unmatched value once the group holds a NULL — neither survives."""
    if not holds_null:
        return rows
    values, groups = _membership_groups(left_columns, left_keys)
    verdict = holds_null.get
    kept = [
        i
        for i in rows
        if (null := verdict(groups[i])) is None
        or not (null or values[i] is None)
    ]
    return rows if len(kept) == len(rows) else kept


def _left_outer_pairs(n: int, li, ri, counts, sentinel: int):
    """An *n*-row batch's LEFT OUTER pairs: each left row's surviving
    pairs, or one pair with the all-NULL *sentinel* right row when it
    has none. Pairs arrive left-row-major, so a stable sort on the
    left row merges the pairless rows in (timsort: one linear merge)."""
    if li is None:
        li = materialize_left(counts)
    matched = set(li)
    pairs = sorted(
        chain(
            zip(li, ri),
            ((i, sentinel) for i in range(n) if i not in matched),
        ),
        key=itemgetter(0),
    )
    return list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))


def join_columns(plan: JoinNode, compiler, fold=None):
    """Columnar join: the method's core, then one emitter for every
    kind — residual, the kind's step, projection (see the module
    docstring). With *fold* (``executor.Fold``), an inner hash or
    block-NLJ join folded into the hash group-by above it: the match
    core alone, streaming :class:`FoldedBatch` es, never a joined row."""
    if fold is not None:
        return _match_core(plan, compiler, fold)
    combined = plan.left.schema.concat(plan.right.schema)
    combined_width = len(combined)
    left_width = len(plan.left.schema)
    residual_program = SelectionProgram(plan.residuals, combined, compiler)
    positions = [
        combined.index_of(alias, name) for alias, name in plan.projection
    ]
    core = _CORES[plan.method](plan, compiler)
    kind = plan.kind
    # NOT IN's NULL rule reads each side's membership key (the first
    # equi key) and correlation keys (the rest)
    null_aware = plan.null_aware
    left_keys, right_keys = _equi_positions(plan) if null_aware else ([], [])

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        residual = residual_program.arm(run.context)
        padded = None  # LEFT: the right columns plus one all-NULL row
        holds_null = None  # NOT IN: the right side's groups, once per run
        for batch, right_columns, li, ri, counts in core(run, metrics):
            metrics.rows_in += len(ri)
            left_columns = batch.columns
            full_left = type(li) is range
            full_right = type(ri) is range
            cached = None
            cells = 0
            if residual.active and ri:
                if li is None:  # the residual needs explicit left indices
                    li = materialize_left(counts)
                    counts = None
                virtual: List = [None] * combined_width
                gathered = len(ri)
                for p in residual.used:
                    if p < left_width:
                        if full_left:
                            virtual[p] = left_columns[p]
                        else:
                            virtual[p] = take(left_columns[p], li)
                            cells += gathered
                    else:
                        column = right_columns[p - left_width]
                        if full_right:
                            virtual[p] = column
                        else:
                            virtual[p] = take(column, ri)
                            cells += gathered
                sel = residual.run(virtual, gathered)
                if sel is None:
                    # every pair passed: the gathered columns ARE the output
                    cached = virtual
                else:
                    li = take(li, sel)
                    ri = take(ri, sel)
                    full_left = full_right = False
            if kind == "semi" or kind == "anti":
                li = _semi_rows(batch.length, li, counts, kind == "anti")
                if null_aware:
                    if holds_null is None:
                        holds_null = _null_groups(right_columns, right_keys)
                    li = _not_in_rows(li, left_columns, left_keys, holds_null)
                ri = counts = cached = None
                full_left = type(li) is range
            elif kind == "left":
                sentinel = len(right_columns[0]) if right_columns else 0
                if padded is None:  # one right column set per run
                    padded = [[*column, None] for column in right_columns]
                li, ri = _left_outer_pairs(
                    batch.length, li, ri, counts, sentinel
                )
                right_columns = padded
                counts = cached = None
                full_left = full_right = False
            out_len = len(ri) if li is None else len(li)
            if not out_len:
                metrics.cells += cells
                continue
            out = []
            for p in positions:
                if cached is not None and cached[p] is not None:
                    out.append(cached[p])
                elif p < left_width:
                    column = left_columns[p]
                    if counts is not None:
                        out.append(repeat_column(column, counts))
                        cells += out_len
                    elif full_left:
                        out.append(column)
                    else:
                        out.append(take(column, li))
                        cells += out_len
                else:
                    column = right_columns[p - left_width]
                    if full_right:
                        out.append(column)
                    else:
                        out.append(take(column, ri))
                        cells += out_len
            metrics.cells += cells
            yield ColumnBatch(out, out_len)

    return open


def _collect_columns(batches: Iterator[ColumnBatch], width: int):
    collected: List[ColumnBatch] = list(batches)
    return concat_columns(collected, width)


def _equi_positions(plan: JoinNode) -> Tuple[List[int], List[int]]:
    """Each side's positions of the equi-join key columns."""
    return (
        _key_positions(plan.left.schema, [pair[0] for pair in plan.equi_keys]),
        _key_positions(plan.right.schema, [pair[1] for pair in plan.equi_keys]),
    )


KEY_FILTER_SHARE = 0.5
"""A hash join's build keys filter its probe-side scan only when there
are at most this share of its left input's estimated rows of them: a
filter that keeps most rows costs its lookups and saves little."""


def _arm_key_filter(plan, key_filter, run, metrics, buckets, right_count):
    """Hand the scan below this join's left input the build side's key
    dict, when the filter is selective enough and cannot move a page
    charge: neither the join's Grace charge nor any group-by's on the
    path (were each of the scanned table's rows its own group) spills,
    with the filter or without it."""
    context = run.context
    memory = context.params.memory_pages
    table = context.storage_for(key_filter.scan.table_name)
    if not len(buckets) <= KEY_FILTER_SHARE * plan.left.props.rows:
        outcome = "skipped (unselective)"
    elif (
        pages_for(right_count, plan.right.schema.width) > memory
        or pages_for(table.num_rows, key_filter.group_width) > memory
    ):
        outcome = "skipped (spill)"
    else:
        run.key_filters[key_filter.slot] = buckets
        outcome = KEY_FILTER_FIRED
    metrics.key_filter = f"{key_filter.scan.alias}: {outcome}"


class FoldedBatch:
    """A left batch of a join folded into the group-by above it
    (:func:`join_columns`): its columns and, per row, the
    partial state its key hit (``None`` on a miss). ``length`` is its
    rows; ``len()`` the joined rows it stands for — the sum of its
    hits' counts — which is what the join's and the group-by's row
    counts and the group-by's spill charge read."""

    __slots__ = ("columns", "length", "hits", "matches")

    def __init__(self, columns, length: int, hits: List):
        self.columns = columns
        self.length = length
        self.hits = hits
        self.matches = sum(map(itemgetter(0), filter(None, hits)))

    def __len__(self) -> int:
        return self.matches


def _fold_build(fold, plan: JoinNode, compiler, right_positions: List[int]):
    """A folded join's build step, ``build(context, right_columns,
    right_count) -> partials``: a group-by of the right input on the
    join key (NULL keys skipped: they never match) into one partial
    state per key — its ``COUNT(*)``, then each build-side aggregate's
    slots (``fold.build_aggregates``)."""
    update = update_kernel(
        len(right_positions), fold.build_aggregates, compiler,
        skip_null_keys=True,
    )
    arguments = ComputeProgram(
        [call.arg for _, call in fold.build_aggregates[1:]],
        fold.schema,
        compiler,
    )

    def build(context, right_columns, right_count: int) -> dict:
        partials: dict = {}
        args = arguments.arm(context).run(
            fold.view(right_columns, fold.build_columns), right_count
        )
        update(
            [right_columns[p] for p in right_positions], [None, *args],
            partials,
        )
        return partials

    return build


def _match_core(plan: JoinNode, compiler, fold=None):
    """Hash join and block NLJ over columns: one match loop, and the
    method's charge once the left side is exhausted.

    The right input is collected and its keys bucketed by
    :func:`_build_buckets` (ascending right rows per key), so each left
    batch's pairs come out left-row-major, then in right-row order — a
    nested loop's order. Without equi keys every left row pairs with
    every right row, the index vectors built by C-level list
    repetition. With *fold* the build step is :func:`_fold_build`'s
    instead, and each left batch comes out as a :class:`FoldedBatch`
    of its keys' hits in the partial states."""
    key_filter = compiler.key_filter(plan)
    left = compiler.child(plan.left, key_filter)
    right = compiler.child(plan.right)
    left_positions, right_positions = _equi_positions(plan)
    right_width = len(plan.right.schema)
    charge = _hash_charge if plan.method == "hj" else _nlj_charge
    if fold is not None:
        build = _fold_build(fold, plan, compiler, right_positions)

    def core(run, metrics: OperatorMetrics):
        left_batches = left(run)
        right_columns, right_count = _collect_columns(right(run), right_width)
        if fold is not None:
            buckets = build(run.context, right_columns, right_count)
            metrics.folded = len(buckets)
            metrics.cells += len(buckets)
        elif right_positions:
            buckets = _build_buckets(
                _column_keys(right_columns, right_positions),
                len(right_positions) > 1,
            )
            unique = _unique_index(buckets)
        else:
            every_right_row = list(range(right_count))
        if key_filter is not None:
            _arm_key_filter(plan, key_filter, run, metrics, buckets, right_count)
        left_count = 0
        for batch in left_batches:
            n = batch.length
            left_count += n
            if fold is not None:
                keys = _column_keys(batch.columns, left_positions)
                batch = FoldedBatch(
                    batch.columns, n, list(map(buckets.get, keys))
                )
                metrics.rows_in += len(batch)
                yield batch
                continue
            if right_positions:
                li, ri, counts = _probe(
                    _column_keys(batch.columns, left_positions),
                    buckets,
                    unique,
                )
            else:  # cross product
                li, ri, counts = None, every_right_row * n, [right_count] * n
            yield batch, right_columns, li, ri, counts
        charge(plan, run.context, metrics, right_count, left_count)

    return core


def _smj_core(plan: JoinNode, compiler):
    """Sort-merge over columns. Both inputs are collected and charged
    their sort unless already ordered on the join keys. The merge is a
    probe of the left rows in key order (a stable sort of their
    indices; a NULL key never matches) against the right side's
    :func:`_build_buckets`, whose ascending right rows per key are a
    stable sort's equal-key runs: pairs come out left-run-major with
    right runs ascending, the merge's order."""
    left = compiler.child(plan.left)
    right = compiler.child(plan.right)
    left_positions, right_positions = _equi_positions(plan)
    multi_key = len(left_positions) > 1

    def needs_sort(child, keys) -> bool:
        order = getattr(child.props, "order", ()) if child.props else ()
        return tuple(order[: len(keys)]) != tuple(keys)

    left_unsorted = needs_sort(plan.left, [p[0] for p in plan.equi_keys])
    right_unsorted = needs_sort(plan.right, [p[1] for p in plan.equi_keys])

    def core(run, metrics: OperatorMetrics):
        context = run.context

        def collect(batches, child, unsorted):
            columns, count = _collect_columns(batches, len(child.schema))
            if unsorted:
                # charge by the collected (pre-filter) page count: the
                # input's pages, which is what the cost model sorts
                charge_spill(
                    context.io,
                    metrics,
                    external_sort_extra_io(
                        pages_for(count, child.schema.width),
                        context.params.memory_pages,
                    ),
                )
            return columns, count

        left_batches = left(run)
        right_batches = right(run)
        left_columns, left_count = collect(
            left_batches, plan.left, left_unsorted
        )
        right_columns, _ = collect(right_batches, plan.right, right_unsorted)
        buckets = _build_buckets(
            _column_keys(right_columns, right_positions), multi_key
        )
        keys = _column_keys(left_columns, left_positions)
        order = range(left_count)  # left rows in key order
        if left_unsorted:
            if multi_key:
                order = [i for i, key in enumerate(keys) if None not in key]
            else:
                order = [i for i, key in enumerate(keys) if key is not None]
            order.sort(key=keys.__getitem__)
            keys = take(keys, order)
        li, ri, counts = _probe(keys, buckets, _unique_index(buckets))
        if type(order) is not range:  # key-order positions → left rows
            if li is None:
                li = repeat_column(order, counts)
            elif type(li) is range:
                li = order
            else:
                li = take(order, li)
            counts = None
        left_batch = ColumnBatch(left_columns, left_count)
        yield left_batch, right_columns, li, ri, counts

    return core


def _inlj_core(plan: JoinNode, compiler):
    """Index NLJ over columns: the probe loop stays per-row (each probe
    is an index traversal), but outer columns are gathered — never
    concatenated into wide tuples — and matched inner rows transpose
    once per batch."""
    inner = plan.right
    if not isinstance(inner, ScanNode):
        raise ExecutionError("index NLJ requires a base-table inner")
    info = compiler.catalog.info(inner.table_name)
    index = info.indexes.get(plan.index_name or "")
    if index is None:
        raise ExecutionError(
            f"index {plan.index_name!r} not found on {inner.table_name!r}"
        )

    inner_join_columns = [name for (_, (_, name)) in plan.equi_keys]
    if list(index.column_names[: len(inner_join_columns)]) != inner_join_columns:
        raise ExecutionError(
            f"index {index.name!r} does not cover join columns "
            f"{inner_join_columns}"
        )

    left = compiler.child(plan.left)
    inner_slot = compiler.declare(inner, inner.describe() + " (index probe)")
    inner_full = table_row_schema(
        inner.alias, info.table.columns, include_rid=True
    )
    arm_checks = row_closures(inner.filters, inner_full)
    inner_positions = [
        inner_full.index_of(field.alias, field.name) for field in inner.schema
    ]
    project_inner = projector(inner_positions, len(inner_full))
    probe_positions = _equi_positions(plan)[0]

    def core(run, metrics: OperatorMetrics):
        context = run.context
        inner_metrics = run.operators[inner_slot]
        checks = arm_checks(context)
        lookup = _probe_lookup(context, inner, index)
        io = context.io
        found = 0
        matched = 0
        probes = 0
        for batch in left(run):
            probe_columns = [batch.columns[p] for p in probe_positions]
            li: List[int] = []
            matched_rows: RowBatch = []
            lap = li.append
            rap = matched_rows.append
            for i, probe in enumerate(zip(*probe_columns)):
                probes += 1
                if None in probe:
                    continue
                for inner_row in lookup(io, probe, include_rid=True):
                    found += 1
                    if checks and not all(
                        check(inner_row) for check in checks
                    ):
                        continue
                    matched += 1
                    lap(i)
                    rap(
                        project_inner(inner_row)
                        if project_inner is not None
                        else inner_row
                    )
            if li:
                right_columns = list(zip(*matched_rows))
                yield (
                    batch,
                    right_columns,
                    li,
                    range(len(matched_rows)),
                    None,
                )
        inner_metrics.rows_out = matched
        inner_metrics.matches = found
        inner_metrics.rows_in = probes
        inner_metrics.batches = probes  # one probe per outer row
        inner_metrics.exhausted = True

    return core


_CORES = {
    "hj": _match_core,
    "nlj": _match_core,
    "smj": _smj_core,
    "inlj": _inlj_core,
}
