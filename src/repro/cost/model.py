"""The IO-only cost model: annotates plans with cardinality and cost.

For every operator the model charges the same formulas the executor
charges at runtime (``repro.engine.spill`` holds the shared spill
arithmetic), evaluated over *estimated* page counts. ``PlanProps``
carries the derived properties the paper's algorithms consume:

- ``rows`` / ``pages`` — data-reduction effects of group-by placement;
- ``width`` — the projection-size disadvantage of pull-up (Section 3)
  and the greedy conservative heuristic's width guard (Section 5.2);
- ``order`` — interesting orders (grouping columns, join columns);
- ``cost`` — cumulative page IO, the optimizer's objective;
- ``colmeta`` — per-column distinct counts and ranges for downstream
  selectivity estimation.

The model satisfies the principle of optimality the paper assumes
(Section 5): a node's cost is its children's cost plus a local charge.

Join annotation is two pure pieces: :meth:`CostModel.join_logical`
(rows, width, pages, column metadata — shared by every physical method
over the same inputs) and :meth:`CostModel.join_physical` (cost and
order of one method). ``annotate`` composes them per node; the join DP
calls the first once per input pair and the second once per method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional, Sequence, Tuple

from ..algebra.expressions import Expression, FieldKey
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
)
from ..catalog.catalog import Catalog
from ..catalog.schema import RID_COLUMN, RowSchema
from ..stats.collect import TableStats
from ..engine.spill import (
    external_sort_extra_io,
    hash_group_extra_io,
    hash_spill_extra_io,
    nlj_blocks,
)
from ..errors import PlanError
from ..storage.page import pages_for
from .cardinality import (
    CardinalityEstimator,
    ColMeta,
    ColMetaMap,
)
from .params import CostParams


@dataclass
class PlanProps:
    """Derived properties of an annotated plan node."""

    rows: float
    width: int
    pages: float
    cost: float
    order: Tuple[FieldKey, ...] = ()
    colmeta: ColMetaMap = dataclass_field(default_factory=dict)


def executed_weighted_cost(
    plan: PlanNode, params: CostParams, executed_io: int, metrics
) -> float:
    """The executed counterpart of the weighted CPU+IO objective:
    measured page IO plus the CPU weight times the *actual* tuples each
    operator produced (recorded by the executor in *metrics*, the run's
    ``ExecutionMetrics``)."""
    from ..algebra.plan import plan_nodes

    cpu_tuples = sum(
        metrics.actual_rows(node) or 0 for node in plan_nodes(plan)
    )
    return executed_io + params.cpu_tuple_weight * cpu_tuples


def estimated_pages(rows: float, width: int) -> float:
    """Fractional page estimate consistent with storage pagination."""
    return float(pages_for(int(math.ceil(max(0.0, rows))), width))


class CostModel:
    """Annotates plan trees bottom-up with :class:`PlanProps`."""

    def __init__(
        self,
        catalog: Catalog,
        params: Optional[CostParams] = None,
    ):
        self.catalog = catalog
        self.params = params or CostParams()
        self.estimator = CardinalityEstimator()
        # (table, alias) -> (the TableStats it was derived from, map);
        # see ``_base_meta``.
        self._base_meta_memo: Dict[
            Tuple[str, str], Tuple[TableStats, ColMetaMap]
        ] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def annotate(self, plan: PlanNode) -> PlanProps:
        """Annotate *plan* assuming its children are already annotated."""
        formula = COST_FORMULAS.get(type(plan))
        if formula is None:
            raise PlanError(f"cannot cost node type {type(plan).__name__}")
        props = formula(self, plan)
        props.cost = self.cpu_weighted(props.cost, props.rows)
        plan.props = props
        return props

    def is_monotonic(self) -> bool:
        """Whether a node's cost is never below the cost of an input it
        consumes. It is: every formula adds a non-negative local charge
        (page IO, and the CPU term at a non-negative weight) to its
        inputs' costs. An index NLJ probes its inner scan instead of
        consuming it, so only its outer counts. ``_prune``'s per-class
        cut and the collapsed search (DESIGN §6) rely on it."""
        return True

    @property
    def working_pages(self) -> int:
        """The pages every operator can hold: a sort run, a hash build
        and a group table get ``memory_pages``, a block nested-loop
        join ``memory_pages - 2`` (its inner and its output take two).
        No formula charges extra IO for a relation no larger than this,
        wherever it is consumed — and so no input order can save any."""
        return max(1, self.params.memory_pages - 2)

    def cpu_weighted(self, cost: float, rows: float) -> float:
        """*cost* plus the node-local CPU term of the weighted
        objective, for a node emitting *rows* tuples (inert at the
        default zero weight)."""
        if self.params.cpu_tuple_weight:
            # the Section 5 adaptation: weighted CPU + IO objective
            cost += self.params.cpu_tuple_weight * rows
        return cost

    def annotate_tree(self, plan: PlanNode) -> PlanProps:
        """Annotate a whole (possibly hand-built) plan tree."""
        for child in plan.children:
            self.annotate_tree(child)
        return self.annotate(plan)

    def _count(self, node: PlanNode, estimate: float) -> float:
        """The one count *node*'s IO charge reads besides its inputs'
        rows and pages: a group-by's groups before HAVING, an index
        probe's matching entries (per probe, for an index NLJ's inner
        scan). The model answers with its *estimate*; the exact-IO
        oracle (:mod:`repro.testing.exactio`) answers with what a run
        counted."""
        return estimate

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def _base_meta(
        self, table_name: str, alias: str
    ) -> Tuple[TableStats, ColMetaMap]:
        """``(statistics, per-column metadata)`` of a stored table under
        *alias*, before any filter or clamp — the starting point of
        every scan annotation and of every index-NLJ candidate over the
        table. Derived once per (table, alias) and shared: callers read
        the map, never mutate it. A memo entry is only served while the
        catalog still hands out the ``TableStats`` it was built from, so
        a model held across inserts or ANALYZE never sees stale
        metadata."""
        stats = self.catalog.stats(table_name)
        cached = self._base_meta_memo.get((table_name, alias))
        if cached is not None and cached[0] is stats:
            return cached
        table_rows = float(stats.row_count)
        meta: ColMetaMap = {}
        for column in self.catalog.table(table_name).columns:
            meta[(alias, column.name)] = ColMeta.from_stats(
                stats.column(column.name), table_rows
            )
        meta[(alias, RID_COLUMN)] = ColMeta(ndv=max(1.0, table_rows))
        self._base_meta_memo[(table_name, alias)] = (stats, meta)
        return stats, meta

    def _annotate_scan(self, plan: ScanNode) -> PlanProps:
        stats, meta = self._base_meta(plan.table_name, plan.alias)
        table_rows = float(stats.row_count)

        selectivity = 1.0
        for predicate in plan.filters:
            selectivity *= self.estimator.selectivity(predicate, meta)

        order: Tuple[FieldKey, ...] = ()
        if plan.index_name is not None:
            info = self.catalog.info(plan.table_name)
            index = info.indexes.get(plan.index_name)
            if index is None:
                raise PlanError(
                    f"unknown index {plan.index_name!r} in scan of "
                    f"{plan.table_name!r}"
                )
            # Equality probe: traversal (which reaches the first leaf) +
            # extra leaf pages + one data page per matching tuple. That
            # is not what storage charges: fetching charges one read per
            # data page *change* (``PagedColumns.fetch_columns``), so
            # matches sharing a page cost one read, not one each; and a
            # run of matches straddling a leaf boundary reads one leaf
            # more than the ceiling below prices.
            # With a literal probe value the match count is MCV-aware:
            # probing a known-hot key is priced at its real frequency,
            # not the 1/NDV average. A ``$n`` probe value equals no MCV
            # and is priced as a key not seen yet.
            eq_meta = meta.get((plan.alias, index.column_names[0]))
            if plan.index_values and eq_meta is not None:
                matches = table_rows * self.estimator.eq_selectivity(
                    eq_meta, plan.index_values[0]
                )
            else:
                matches = table_rows / max(
                    1.0, eq_meta.ndv if eq_meta else 1.0
                )
            matches = self._count(plan, matches)
            extra_leaves = max(
                0.0, math.ceil(matches / index.entries_per_page) - 1
            )
            cost = index.height + extra_leaves + matches
            order = tuple((plan.alias, name) for name in index.column_names)
            # The probe predicate was consumed into ``index_values`` by
            # the access-path builder, so it is absent from
            # ``plan.filters``: the output estimate starts from the
            # probe's matches, then applies the residual filters.
            rows = matches * selectivity
        else:
            cost = float(stats.page_count)
            rows = table_rows * selectivity

        out_meta = {
            key: value.clamped(rows)
            for key, value in meta.items()
            if plan.schema.has(*key)
        }
        return PlanProps(
            rows=rows,
            width=plan.schema.width,
            pages=estimated_pages(rows, plan.schema.width),
            cost=cost,
            order=order,
            colmeta=out_meta,
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _annotate_join(self, plan: JoinNode) -> PlanProps:
        left = plan.left.props
        right = plan.right.props
        if left is None or (right is None and plan.method != "inlj"):
            raise PlanError("join children must be annotated first")
        right_rows, right_meta = self.join_right_input(plan.method, plan.right)
        rows, width, pages, colmeta = self.join_logical(
            left,
            right_rows,
            right_meta,
            plan.equi_keys,
            plan.residuals,
            plan.kind,
            plan.schema,
        )
        cost, order = self.join_physical(
            plan.method,
            left,
            plan.right,
            plan.equi_keys,
            plan.index_name,
            plan.schema,
        )
        return PlanProps(rows, width, pages, cost, order, colmeta)

    def join_right_input(
        self, method: str, right: PlanNode
    ) -> Tuple[float, ColMetaMap]:
        """``(rows, colmeta)`` of a join's right input as *method* sees
        it: the annotated subplan's output — or, for an index NLJ, the
        base table behind the probed scan, which is never fully scanned
        (every column, unclamped, at the filtered row estimate). The
        returned map may be shared: read it, never mutate it."""
        if method != "inlj":
            return right.props.rows, right.props.colmeta
        if not isinstance(right, ScanNode):
            raise PlanError("index NLJ requires a base-table inner scan")
        stats, meta = self._base_meta(right.table_name, right.alias)
        selectivity = 1.0
        for predicate in right.filters:
            selectivity *= self.estimator.selectivity(predicate, meta)
        return float(stats.row_count) * selectivity, meta

    def join_logical(
        self,
        left: PlanProps,
        right_rows: float,
        right_meta: ColMetaMap,
        equi_keys: Sequence[Tuple[FieldKey, FieldKey]],
        residuals: Sequence[Expression],
        kind: str,
        out_schema: RowSchema,
    ) -> Tuple[float, int, float, ColMetaMap]:
        """The *logical* properties ``(rows, width, pages, colmeta)`` of
        a join — what every physical method over the same two inputs,
        predicates and output schema shares. ``right_rows`` /
        ``right_meta`` come from :meth:`join_right_input`."""
        meta: ColMetaMap = dict(left.colmeta)
        meta.update(right_meta)

        inner_rows = self.estimator.join_rows(
            left.rows, right_rows, equi_keys, residuals, meta
        )
        if kind == "inner":
            rows = inner_rows
        else:
            # Non-inner kinds derive from the inner-match estimate: a
            # semi join keeps at most one output per left row (and never
            # more than the matches), an anti join keeps the rest, a
            # LEFT outer join emits the matches plus one NULL-padded row
            # per unmatched left row.
            semi = min(left.rows, inner_rows)
            anti = max(0.0, left.rows - semi)
            if kind == "semi":
                rows = semi
            elif kind == "anti":
                rows = anti
            else:  # left outer
                rows = inner_rows + anti
        # Equality propagates the smaller NDV to both sides (each side
        # keeps its own distribution detail — range, nulls, MCVs).
        for left_key, right_key in equi_keys:
            if left_key in meta and right_key in meta:
                shared = min(meta[left_key].ndv, meta[right_key].ndv)
                meta[left_key] = meta[left_key].with_ndv(shared)
                meta[right_key] = meta[right_key].with_ndv(shared)

        has = out_schema.has
        out_meta = {
            key: value.clamped(rows)
            for key, value in meta.items()
            if has(*key)
        }
        width = out_schema.width
        return rows, width, estimated_pages(rows, width), out_meta

    def join_physical(
        self,
        method: str,
        left: PlanProps,
        right_plan: PlanNode,
        equi_keys: Sequence[Tuple[FieldKey, FieldKey]],
        index_name: Optional[str],
        out_schema: RowSchema,
    ) -> Tuple[float, Tuple[FieldKey, ...]]:
        """The *physical* properties ``(cost, order)`` of running a
        join with *method*: cumulative page IO (CPU terms are added by
        :meth:`cpu_weighted`) and the output order, which depend on the
        inputs' physical properties but never on the join's own row
        estimate."""
        cost, order = self._join_cost(
            method, left, right_plan, equi_keys, index_name
        )
        # Order is only meaningful as a prefix of columns the join still
        # outputs: a pruned projection may drop a sort/join key the
        # moment no ancestor references it.
        has = out_schema.has
        for position, key in enumerate(order):
            if not has(*key):
                return cost, order[:position]
        return cost, order

    def _join_cost(self, method, left, right_plan, equi_keys, index_name):
        memory = self.params.memory_pages
        right = right_plan.props

        if method == "hj":
            extra = hash_spill_extra_io(right.pages, left.pages, memory)
            return left.cost + right.cost + extra, ()

        if method == "smj":
            left_keys = tuple(pair[0] for pair in equi_keys)
            right_keys = tuple(pair[1] for pair in equi_keys)
            cost = left.cost + right.cost
            if left.order[: len(left_keys)] != left_keys:
                cost += external_sort_extra_io(left.pages, memory)
            if right.order[: len(right_keys)] != right_keys:
                cost += external_sort_extra_io(right.pages, memory)
            return cost, left_keys

        if method == "inlj":
            info = self.catalog.info(right_plan.table_name)
            index = info.indexes.get(index_name or "")
            if index is None:
                raise PlanError(
                    f"unknown index {index_name!r} for index NLJ"
                )
            stats, meta = self._base_meta(
                right_plan.table_name, right_plan.alias
            )
            key_meta = meta[(right_plan.alias, index.column_names[0])]
            matches = self._count(
                right_plan, float(stats.row_count) / max(1.0, key_meta.ndv)
            )
            extra_leaves = max(
                0.0, math.ceil(matches / index.entries_per_page) - 1
            )
            probe_cost = index.height + extra_leaves + matches
            return left.cost + left.rows * probe_cost, left.order

        # Block nested-loop join.
        blocks = nlj_blocks(left.pages, memory)
        inner_is_scan = (
            isinstance(right_plan, ScanNode) and right_plan.index_name is None
        )
        cache_pages = self.working_pages
        if inner_is_scan:
            table_pages = float(
                self.catalog.stats(right_plan.table_name).page_count
            )
            if table_pages <= cache_pages or blocks == 1:
                inner_cost = right.cost  # single scan (cached or one block)
            else:
                inner_cost = right.cost + (blocks - 1) * table_pages
        else:
            if right.pages <= cache_pages:
                inner_cost = right.cost
            else:
                inner_cost = right.cost + right.pages + blocks * right.pages
        return left.cost + inner_cost, left.order

    # ------------------------------------------------------------------
    # Group-by, sort, rename
    # ------------------------------------------------------------------

    def _annotate_group_by(self, plan: GroupByNode) -> PlanProps:
        child = plan.child.props
        if child is None:
            raise PlanError("group-by child must be annotated first")
        meta = dict(child.colmeta)
        groups = self._groups(plan)

        if plan.method == "sort":
            child_keys = set(plan.group_keys)
            prefix = set(child.order[: len(plan.group_keys)])
            if prefix != child_keys:
                raise PlanError(
                    "sort-based group-by requires input ordered on the "
                    "grouping columns (insert a SortNode)"
                )
            extra = 0.0
            order = child.order
        else:
            extra = hash_group_extra_io(
                child.pages,
                estimated_pages(groups, plan.internal_schema.width),
                self.params.memory_pages,
            )
            order = ()

        # aggregate outputs: one distinct value per group at worst
        for name, _call in plan.aggregates:
            meta[(None, name)] = ColMeta(ndv=max(1.0, groups))
        for key in plan.group_keys:
            if key in meta:
                meta[key] = meta[key].clamped(groups)

        rows = groups
        for predicate in plan.having:
            rows *= self.estimator.having_selectivity(predicate, meta)

        out_meta = {
            key: value.clamped(rows)
            for key, value in meta.items()
            if plan.schema.has(*key)
        }
        out_order = tuple(
            key for key in order if plan.schema.has(*key)
        ) if order else ()
        return PlanProps(
            rows=rows,
            width=plan.schema.width,
            pages=estimated_pages(rows, plan.schema.width),
            cost=child.cost + extra,
            order=out_order,
            colmeta=out_meta,
        )

    def _groups(self, plan: GroupByNode) -> float:
        """*plan*'s group count before HAVING, over its annotated
        child."""
        child = plan.child.props
        return self._count(
            plan,
            self.estimator.group_rows(
                child.rows, plan.group_keys, child.colmeta
            ),
        )

    def group_table_pages(self, plan: GroupByNode) -> float:
        """The pages of *plan*'s hash table — one internal-width row
        per group — which ``hash_group_extra_io`` compares with
        ``memory_pages``."""
        return estimated_pages(
            self._groups(plan), plan.internal_schema.width
        )

    def _annotate_sort(self, plan: SortNode) -> PlanProps:
        child = plan.child.props
        if child is None:
            raise PlanError("sort child must be annotated first")
        ascending_only = not any(plan.descending)
        if ascending_only and child.order[: len(plan.keys)] == plan.keys:
            extra = 0.0
        else:
            extra = external_sort_extra_io(
                child.pages, self.params.memory_pages
            )
        return PlanProps(
            rows=child.rows,
            width=child.width,
            pages=child.pages,
            cost=child.cost + extra,
            order=plan.keys if ascending_only else (),
            colmeta=dict(child.colmeta),
        )

    def _annotate_limit(self, plan: LimitNode) -> PlanProps:
        child = plan.child.props
        if child is None:
            raise PlanError("limit child must be annotated first")
        rows = min(child.rows, float(plan.count))
        return PlanProps(
            rows=rows,
            width=child.width,
            pages=estimated_pages(rows, child.width),
            cost=child.cost,
            order=child.order,
            colmeta={
                key: value.clamped(rows)
                for key, value in child.colmeta.items()
            },
        )

    def _annotate_filter(self, plan: FilterNode) -> PlanProps:
        child = plan.child.props
        if child is None:
            raise PlanError("filter child must be annotated first")
        selectivity = 1.0
        for predicate in plan.predicates:
            selectivity *= self.estimator.having_selectivity(
                predicate, child.colmeta
            )
        rows = child.rows * selectivity
        meta = {
            key: value.clamped(rows)
            for key, value in child.colmeta.items()
        }
        return PlanProps(
            rows=rows,
            width=child.width,
            pages=estimated_pages(rows, child.width),
            cost=child.cost,
            order=child.order,
            colmeta=meta,
        )

    def _annotate_project(self, plan: ProjectNode) -> PlanProps:
        child = plan.child.props
        if child is None:
            raise PlanError("project child must be annotated first")
        from ..algebra.expressions import ColumnRef

        meta: ColMetaMap = {}
        order = []
        copied = {}  # child key -> output key, for plain column copies
        for alias, name, expression in plan.outputs:
            if isinstance(expression, ColumnRef) and expression.key in child.colmeta:
                meta[(alias, name)] = child.colmeta[expression.key]
                copied[expression.key] = (alias, name)
            else:
                meta[(alias, name)] = ColMeta(ndv=max(1.0, child.rows))
        for key in child.order:
            if key in copied:
                order.append(copied[key])
            else:
                break
        return PlanProps(
            rows=child.rows,
            width=plan.schema.width,
            pages=estimated_pages(child.rows, plan.schema.width),
            cost=child.cost,
            order=tuple(order),
            colmeta=meta,
        )

    def _annotate_rename(self, plan: RenameNode) -> PlanProps:
        child = plan.child.props
        if child is None:
            raise PlanError("rename child must be annotated first")
        remap = {
            source: (new_alias, new_name)
            for new_alias, new_name, source in plan.mapping
        }
        meta = {
            remap[key]: value
            for key, value in child.colmeta.items()
            if key in remap
        }
        order = []
        for key in child.order:
            if key in remap:
                order.append(remap[key])
            else:
                break  # order is only meaningful as a prefix
        return PlanProps(
            rows=child.rows,
            width=plan.schema.width,
            pages=estimated_pages(child.rows, plan.schema.width),
            cost=child.cost,
            order=tuple(order),
            colmeta=meta,
        )


COST_FORMULAS = {
    ScanNode: CostModel._annotate_scan,
    JoinNode: CostModel._annotate_join,
    GroupByNode: CostModel._annotate_group_by,
    SortNode: CostModel._annotate_sort,
    RenameNode: CostModel._annotate_rename,
    ProjectNode: CostModel._annotate_project,
    FilterNode: CostModel._annotate_filter,
    LimitNode: CostModel._annotate_limit,
}
"""Each plan node kind's cost formula, by exact type: ``formula(model,
node) -> PlanProps`` over the node's annotated inputs. The entries are
``CostModel``'s own functions: a subclass changes a count through
``_count`` or the result through ``annotate``."""
