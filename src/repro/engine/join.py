"""Streaming execution of the four join methods.

IO discipline (mirrored by the cost model in ``repro.cost.model``):

- **Block NLJ**: the outer is streamed in blocks of ``memory_pages - 2``
  pages. An inner that fits in the remaining buffers is read once;
  otherwise a base-table inner is rescanned per block and any other
  inner is materialized (one write) and re-read per block.
- **Index NLJ**: per outer row, a probe into the inner table's index;
  the index itself charges traversal/leaf/data-page IO.
- **Sort-merge**: each input is sorted unless already ordered on the
  join keys; sorting charges :func:`external_sort_extra_io`.
- **Hash**: build on the right input; a build side larger than memory
  charges a Grace partitioning pass over both inputs.

Pipeline shape: the build side of a hash join, both sort-merge inputs,
and a block-NLJ inner are pipeline breakers (fully collected before
output flows); the probe/outer side always streams. Join output runs
through a fused residual-filter→project per-batch loop, and spill
charges whose formulas need the streamed side's total page count are
applied once that side is exhausted, from the same row counts the cost
model's formulas read.
"""

from __future__ import annotations

from itertools import chain, count
from operator import mul
from typing import Iterator, List, Optional, Tuple

from ..algebra.plan import JoinNode, ScanNode
from ..catalog.schema import RowSchema
from ..catalog.schema import table_row_schema
from ..errors import ExecutionError
from ..storage.page import pages_for
from ..storage.snapshot import TableSnapshot
from .batch import ColumnBatch, RowBatch, concat_columns, projector, take
from .context import ExecutionContext
from .kernels import SelectionProgram, row_closures
from .metrics import OperatorMetrics, charge_spill
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


def _kind_join_charges(
    plan: JoinNode,
    context: ExecutionContext,
    metrics: OperatorMetrics,
    build_count: int,
    probe_count: int,
) -> None:
    """Spill/rescan charges for a semi/anti/left join, applied once the
    probe side is exhausted. Formulas are exactly the inner-join cores'
    (hash Grace partitioning, block-NLJ inner rescans)."""
    memory = context.params.memory_pages
    left_width = plan.left.schema.width
    right_width = plan.right.schema.width
    if plan.method == "hj":
        charge_spill(
            context.io,
            metrics,
            hash_spill_extra_io(
                pages_for(build_count, right_width),
                pages_for(probe_count, left_width),
                memory,
            ),
        )
        return
    blocks = nlj_blocks(pages_for(probe_count, left_width), memory)
    inner_is_scan = (
        isinstance(plan.right, ScanNode) and plan.right.index_name is None
    )
    if inner_is_scan:
        inner_pages = context.storage_for(plan.right.table_name).num_pages
        if inner_pages > max(1, memory - 2) and blocks > 1:
            rescans = (blocks - 1) * inner_pages
            context.io.read_pages(rescans)
            metrics.spill(rescans, 0)
    else:
        inner_pages = pages_for(build_count, right_width)
        if inner_pages > max(1, memory - 2):
            context.io.write_pages(inner_pages)  # materialize the inner
            rereads = blocks * inner_pages
            context.io.read_pages(rereads)
            metrics.spill(rereads, inner_pages)


# ----------------------------------------------------------------------
# Columnar join path
# ----------------------------------------------------------------------
#
# Every method core produces (left_columns, right_columns, li, ri,
# counts) tuples: full-width column sets for each side plus parallel
# index vectors — one (li[k], ri[k]) pair per matched row. Matches stay
# *virtual* until the shared emitter has applied the residual filter
# (a compiled selection kernel over only the columns it reads) and the
# join's projection; only projected columns are ever gathered, so an
# unprojected build column is never copied per match.
#
# Index vectors carry shape hints that keep the gathers at C speed:
#
# - ``li is None`` with ``counts`` set means the left vector is
#   "probe row i, repeated counts[i] times" — left columns are then
#   produced directly with ``chain.from_iterable(map(repeat, col,
#   counts))`` (one C pass, no index vector ever materialized).
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


def join_columns(plan: JoinNode, compiler):
    """Columnar join: method core + fused residual/projection emitter."""
    if plan.kind != "inner":
        return _kind_join_columns(plan, compiler)
    combined = plan.left.schema.concat(plan.right.schema)
    combined_width = len(combined)
    left_width = len(plan.left.schema)
    residual_program = SelectionProgram(plan.residuals, combined, compiler)
    positions = [
        combined.index_of(alias, name) for alias, name in plan.projection
    ]
    core = _CORES.get(plan.method, _nlj_core)(plan, compiler)

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        residual = residual_program.arm(run.context)
        for left_columns, right_columns, li, ri, counts in core(run, metrics):
            metrics.rows_in += len(ri)
            full_left = li is not None and type(li) is range
            full_right = type(ri) is range
            cached = None
            cells = 0
            if residual.active:
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
                sel = residual.run(virtual, len(ri))
                if sel is None:
                    # every row passed: the gathered columns ARE the output
                    cached = virtual
                else:
                    if not sel:
                        metrics.cells += cells
                        continue
                    li = take(li, sel)
                    ri = take(ri, sel)
                    full_left = full_right = False
            out = []
            out_len = len(ri)
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
            if out_len:
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


def _hash_core(plan: JoinNode, compiler):
    """Hash join over columns: build an index-valued hash table on the
    right, probe each left batch's key column straight through it."""
    left = compiler.child(plan.left)
    right = compiler.child(plan.right)
    left_positions, right_positions = _equi_positions(plan)
    multi_key = len(left_positions) > 1
    left_width = plan.left.schema.width
    right_width = plan.right.schema.width
    right_columns_count = len(plan.right.schema)

    def core(run, metrics: OperatorMetrics):
        context = run.context
        left_batches = left(run)
        build_columns, build_count = _collect_columns(
            right(run), right_columns_count
        )
        buckets = _build_buckets(
            _column_keys(build_columns, right_positions), multi_key
        )
        unique = _unique_index(buckets)
        probe_count = 0
        for batch in left_batches:
            probe_count += batch.length
            keys = _column_keys(batch.columns, left_positions)
            if unique is not None:
                li, ri = _probe_unique(keys, unique)
                if ri:
                    yield batch.columns, build_columns, li, ri, None
            else:
                counts, ri = _probe_multi(keys, buckets)
                if ri:
                    yield batch.columns, build_columns, None, ri, counts
        charge_spill(
            context.io,
            metrics,
            hash_spill_extra_io(
                pages_for(build_count, right_width),
                pages_for(probe_count, left_width),
                context.params.memory_pages,
            ),
        )

    return core


def _nlj_core(plan: JoinNode, compiler):
    """Block NLJ over columns. With equi keys the inner match lookup
    uses an insertion-ordered hash index — output rows and order are
    those of a linear scan of the inner (buckets hold ascending inner
    indices), and the rescan/materialization charges are the block
    NLJ's; only the in-memory matching is cheaper. The pure cross
    product builds its index vectors with C-level list repetition."""
    left = compiler.child(plan.left)
    right = compiler.child(plan.right)
    equi = bool(plan.equi_keys)
    left_positions, right_positions = _equi_positions(plan)
    left_width = plan.left.schema.width
    right_width = plan.right.schema.width
    right_columns_count = len(plan.right.schema)
    inner_is_scan = (
        isinstance(plan.right, ScanNode) and plan.right.index_name is None
    )

    def core(run, metrics: OperatorMetrics):
        context = run.context
        memory = context.params.memory_pages
        left_batches = left(run)
        inner_columns, inner_count = _collect_columns(
            right(run), right_columns_count
        )
        buckets = (
            _build_buckets(
                _column_keys(inner_columns, right_positions),
                len(right_positions) > 1,
            )
            if equi
            else None
        )
        unique = _unique_index(buckets) if buckets is not None else None
        inner_indices = list(range(inner_count))

        outer_count = 0
        for batch in left_batches:
            n = batch.length
            outer_count += n
            if unique is not None:
                li, ri = _probe_unique(
                    _column_keys(batch.columns, left_positions), unique
                )
                if ri:
                    yield batch.columns, inner_columns, li, ri, None
            elif buckets is not None:
                counts, ri = _probe_multi(
                    _column_keys(batch.columns, left_positions), buckets
                )
                if ri:
                    yield batch.columns, inner_columns, None, ri, counts
            elif inner_count:
                # cross product: every outer row repeats inner_count
                # times against the whole tiled inner
                yield (
                    batch.columns,
                    inner_columns,
                    None,
                    inner_indices * n,
                    [inner_count] * n,
                )

        blocks = nlj_blocks(pages_for(outer_count, left_width), memory)
        if inner_is_scan:
            inner_pages = context.storage_for(
                plan.right.table_name
            ).num_pages
            if inner_pages > max(1, memory - 2) and blocks > 1:
                rescans = (blocks - 1) * inner_pages
                context.io.read_pages(rescans)
                metrics.spill(rescans, 0)
        else:
            inner_pages = pages_for(inner_count, right_width)
            if inner_pages > max(1, memory - 2):
                context.io.write_pages(inner_pages)  # materialize the inner
                rereads = blocks * inner_pages
                context.io.read_pages(rereads)
                metrics.spill(rereads, inner_pages)

    return core


def _smj_core(plan: JoinNode, compiler):
    """Sort-merge over columns: sort *index* vectors instead of rows
    (``sorted(key=keys.__getitem__)`` is the stable permutation sorting
    the rows would produce), merge the materialized sorted key lists,
    and emit original-position index pairs."""
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

        def side(batches, child, positions, unsorted):
            """Collect, null-filter, charge the sort, and return
            (columns, order, sorted_keys) where ``order`` maps merge
            position → original row index."""
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
            key_values = _column_keys(columns, positions)
            if multi_key:
                indices = [
                    i for i, key in enumerate(key_values) if None not in key
                ]
            elif None in key_values:
                indices = [
                    i for i, key in enumerate(key_values) if key is not None
                ]
            else:  # no NULL keys: skip the per-row filter entirely
                indices = list(range(count))
            if unsorted:
                indices.sort(key=key_values.__getitem__)
            elif len(indices) == count:
                return columns, indices, list(key_values)
            return columns, indices, take(key_values, indices)

        left_batches = left(run)
        right_batches = right(run)
        left_columns, left_order, left_sorted = side(
            left_batches, plan.left, left_positions, left_unsorted
        )
        right_columns, right_order, right_sorted = side(
            right_batches, plan.right, right_positions, right_unsorted
        )

        # The merge itself is a probe of the left side (in sorted order)
        # against the right side's equal-key runs — emit order is
        # left-run-major with right runs ascending, exactly the pairwise
        # merge's order. Unique right keys (the PK side of a FK join)
        # collapse the whole merge into C-level ``dict``/``map`` passes.
        if not left_sorted or not right_sorted:
            return
        index = dict(zip(right_sorted, right_order))
        if len(index) == len(right_sorted):  # right keys unique
            hits = list(map(index.get, left_sorted))
            if None in hits:
                li = [
                    left_order[i]
                    for i, hit in enumerate(hits)
                    if hit is not None
                ]
                ri = [hit for hit in hits if hit is not None]
            else:  # referential integrity: every left row matches
                li, ri = left_order, hits
            if ri:
                yield left_columns, right_columns, li, ri, None
            return

        buckets: dict = {}
        get = buckets.get
        for key, position in zip(right_sorted, right_order):
            hit = get(key)
            if hit is None:
                buckets[key] = [position]
            else:
                hit.append(position)
        hits = list(map(get, left_sorted))
        counts = [0 if hit is None else len(hit) for hit in hits]
        # the left vector repeats *original* indices (left_order), so it
        # cannot stay counts-encoded — expand it with the same C passes
        li = list(chain.from_iterable(map(mul, zip(left_order), counts)))
        ri = list(chain.from_iterable(filter(None, hits)))
        if ri:
            yield left_columns, right_columns, li, ri, None

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
                    batch.columns,
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


_CORES = {"inlj": _inlj_core, "hj": _hash_core, "smj": _smj_core}


def _kind_join_columns(plan: JoinNode, compiler):
    """Semi / anti / LEFT OUTER joins over columns.

    Candidate (probe, build) pairs come from the same bucket probe as
    the inner cores; the ON residuals then run as a selection kernel
    over the *pairs*, and only afterwards does the kind decide what
    survives: the distinct matched probes (semi), their complement
    (anti — a NULL-keyed probe has no pairs, so it survives, matching
    NOT EXISTS), or every probe with unmatched ones padded through a
    NULL sentinel row appended to the build columns (LEFT). Output is
    probe-major: each probe row's survivors in build order."""
    left = compiler.child(plan.left)
    right = compiler.child(plan.right)
    combined = plan.left.schema.concat(plan.right.schema)
    combined_width = len(combined)
    left_width = len(plan.left.schema)
    right_width = len(plan.right.schema)
    residual_program = SelectionProgram(plan.residuals, combined, compiler)
    positions = [
        combined.index_of(alias, name) for alias, name in plan.projection
    ]
    equi = bool(plan.equi_keys)
    left_positions, right_positions = _equi_positions(plan)
    multi_key = len(left_positions) > 1

    def open(run, metrics: OperatorMetrics) -> Iterator[ColumnBatch]:
        context = run.context
        residual = residual_program.arm(context)

        def project_left(columns, sel):
            """Gather the (left-only) projection through a selection
            vector; ``sel is None`` keeps whole columns with no copy."""
            if sel is None:
                return [columns[p] for p in positions]
            metrics.cells += len(sel) * len(positions)
            return [take(columns[p], sel) for p in positions]

        left_batches = left(run)
        build_columns, build_count = _collect_columns(
            right(run), right_width
        )
        if plan.null_aware:
            # NOT IN three-valued logic over the single key column.
            key_column = build_columns[right_positions[0]]
            inner_nonempty = build_count > 0
            inner_has_null = any(value is None for value in key_column)
            key_set = set(
                value for value in key_column if value is not None
            )
        buckets = (
            _build_buckets(
                _column_keys(build_columns, right_positions), multi_key
            )
            if equi and not plan.null_aware
            else None
        )
        build_indices = list(range(build_count))
        padded_columns = (
            [list(column) + [None] for column in build_columns]
            if plan.kind == "left"
            else None
        )

        probe_count = 0
        for batch in left_batches:
            n = batch.length
            probe_count += n
            metrics.rows_in += n

            if plan.null_aware:
                keys = _column_keys(batch.columns, left_positions)
                if not inner_nonempty:
                    sel = None  # empty inner: every probe row survives
                elif inner_has_null:
                    continue  # every probe is UNKNOWN: all dropped
                else:
                    sel = [
                        i
                        for i, key in enumerate(keys)
                        if key is not None and key not in key_set
                    ]
                    if not sel:
                        continue
                yield ColumnBatch(
                    project_left(batch.columns, sel),
                    n if sel is None else len(sel),
                )
                continue

            # candidate (probe, build) pairs, probe-major ascending
            if buckets is not None:
                counts, ri = _probe_multi(
                    _column_keys(batch.columns, left_positions), buckets
                )
                li = materialize_left(counts)
            elif build_count:
                li = materialize_left([build_count] * n)
                ri = build_indices * n
            else:
                li = []
                ri = []

            # the ON residuals are part of the match condition
            if residual.active and ri:
                virtual: List = [None] * combined_width
                gathered = len(ri)
                for p in residual.used:
                    if p < left_width:
                        virtual[p] = take(batch.columns[p], li)
                    else:
                        virtual[p] = take(
                            build_columns[p - left_width], ri
                        )
                    metrics.cells += gathered
                sel = residual.run(virtual, len(ri))
                if sel is not None:
                    li = take(li, sel)
                    ri = take(ri, sel)

            if plan.kind in ("semi", "anti"):
                matched = sorted(set(li))
                if plan.kind == "anti":
                    matched_set = set(matched)
                    matched = [
                        i for i in range(n) if i not in matched_set
                    ]
                if matched:
                    yield ColumnBatch(
                        project_left(batch.columns, matched), len(matched)
                    )
                continue

            # LEFT OUTER: walk probes in order; li is ascending, so the
            # surviving pairs of probe i are a contiguous run
            li_out: List[int] = []
            ri_out: List[int] = []
            pair_position = 0
            pair_total = len(li)
            for i in range(n):
                matched_any = False
                while (
                    pair_position < pair_total
                    and li[pair_position] == i
                ):
                    li_out.append(i)
                    ri_out.append(ri[pair_position])
                    pair_position += 1
                    matched_any = True
                if not matched_any:
                    li_out.append(i)
                    ri_out.append(build_count)  # the NULL sentinel row
            out = []
            for p in positions:
                if p < left_width:
                    out.append(take(batch.columns[p], li_out))
                else:
                    out.append(take(padded_columns[p - left_width], ri_out))
                metrics.cells += len(li_out)
            yield ColumnBatch(out, len(li_out))

        _kind_join_charges(plan, context, metrics, build_count, probe_count)

    return open
