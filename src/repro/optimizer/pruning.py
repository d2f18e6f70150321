"""Column-lifetime analysis and projection pruning over plan trees.

The block DP (``block.py``) already builds pruned join projections from
its live-set formula, but two plan classes never pass through it with
full lifetime knowledge:

- **view boundaries** — a view's block is optimized for *all* of the
  view's output columns, while the outer query may reference only a
  few. The RenameNode wrapping the view plan, the ProjectNode under it,
  and every operator below can all narrow once the outer requirement
  is known.
- **hand-built plans** — benchmark and test plans constructed directly
  from plan nodes, where no optimizer ever ran.

:func:`prune_plan` closes both: a top-down pass computes, for every
node, the minimal live-column set any ancestor still references (final
outputs, join keys and residual columns of joins above, grouping keys,
aggregate inputs, HAVING/filter/sort columns), then rebuilds the tree
bottom-up with narrowed scan decode lists, join projections, group-by
output projections, and rename mappings.

Guarantees (held by the differential tests):

- the root's output schema is unchanged — only *interior* widths
  shrink;
- rows are bag-identical to the unpruned plan on every engine (pruned
  columns are, by construction, never read by any surviving operator);
- base-table page IO is byte-identical (pages are row-stored: a scan
  reads whole pages no matter how few columns it decodes). Spill
  charges of *intermediates* can only shrink, since narrower rows pack
  more rows per page.

The pass is idempotent and never mutates its input: unchanged subtrees
are returned as-is, rebuilt nodes are fresh.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from ..algebra.expressions import FieldKey
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
from ..cost.model import CostModel
from .stats import SearchStats

Required = FrozenSet[FieldKey]


def prune_plan(
    plan: PlanNode,
    model: Optional[CostModel] = None,
    stats: Optional[SearchStats] = None,
) -> PlanNode:
    """Return *plan* with interior projections narrowed to live columns.

    The root's output schema (names, order, types) is preserved
    exactly. When *model* is given the rebuilt tree is re-annotated so
    ``props`` reflects the narrowed widths; otherwise ``props`` of
    rebuilt nodes is left unset. *stats*, when given, records whether
    the pass changed anything (``plans_repruned``).
    """
    required = frozenset(field.key for field in plan.schema)
    pruned, changed = _prune(plan, required)
    if not changed:
        return plan
    if model is not None:
        model.annotate_tree(pruned)
    if stats is not None:
        stats.plans_repruned += 1
    return pruned


def live_sets(plan: PlanNode) -> List[Tuple[PlanNode, Required]]:
    """The per-node live sets the pruning pass computes, in pre-order —
    the unit-testable core of the lifetime analysis. Each entry pairs a
    node with the columns some ancestor (or the final output) still
    references out of that node's schema."""
    out: List[Tuple[PlanNode, Required]] = []

    def visit(node: PlanNode, required: Required) -> None:
        out.append((node, required))
        for child, child_required in zip(
            node.children, _child_requirements(node, required)
        ):
            visit(child, child_required)

    visit(plan, frozenset(field.key for field in plan.schema))
    return out


# ----------------------------------------------------------------------
# Requirement propagation
# ----------------------------------------------------------------------


def _predicate_columns(predicates) -> Set[FieldKey]:
    columns: Set[FieldKey] = set()
    for predicate in predicates:
        columns |= set(predicate.columns())
    return columns


def _child_requirements(
    node: PlanNode, required: Required
) -> List[Required]:
    """What each child must still produce for *node* to compute its
    *required* output columns."""
    if isinstance(node, JoinNode):
        keep: Set[FieldKey] = {
            key for key in node.projection if key in required
        }
        keep |= _predicate_columns(node.residuals)
        for left_key, right_key in node.equi_keys:
            keep.add(left_key)
            keep.add(right_key)
        left_schema = node.left.schema
        left_req = frozenset(key for key in keep if left_schema.has(*key))
        right_schema = node.right.schema
        right_req = frozenset(
            key
            for key in keep
            if not left_schema.has(*key) and right_schema.has(*key)
        )
        return [left_req, right_req]
    if isinstance(node, GroupByNode):
        keep = set(node.group_keys)
        for _, call in node.aggregates:
            keep |= set(call.columns())
        # HAVING runs over the internal schema; only its base-column
        # references constrain the child.
        child_schema = node.child.schema
        keep |= {
            key
            for key in _predicate_columns(node.having)
            if child_schema.has(*key)
        }
        return [frozenset(keep)]
    if isinstance(node, ProjectNode):
        keep = set()
        outputs = [
            output
            for output in node.outputs
            if (output[0], output[1]) in required
        ] or list(node.outputs[:1])
        for alias, name, expression in outputs:
            keep |= set(expression.columns())
        return [frozenset(keep)]
    if isinstance(node, RenameNode):
        return [
            frozenset(
                source
                for new_alias, new_name, source in node.mapping
                if (new_alias, new_name) in required
            )
        ]
    if isinstance(node, FilterNode):
        return [frozenset(required | _predicate_columns(node.predicates))]
    if isinstance(node, SortNode):
        return [frozenset(required | set(node.keys))]
    if isinstance(node, LimitNode):
        return [required]
    return []


# ----------------------------------------------------------------------
# Bottom-up rebuild
# ----------------------------------------------------------------------


def _prune(plan: PlanNode, required: Required) -> Tuple[PlanNode, bool]:
    if isinstance(plan, ScanNode):
        return _prune_scan(plan, required)
    if isinstance(plan, JoinNode):
        return _prune_join(plan, required)
    if isinstance(plan, GroupByNode):
        return _prune_group_by(plan, required)
    if isinstance(plan, RenameNode):
        return _prune_rename(plan, required)
    if isinstance(plan, ProjectNode):
        outputs = [
            output
            for output in plan.outputs
            if (output[0], output[1]) in required
        ] or list(plan.outputs[:1])
        child_req = _child_requirements(plan, required)[0]
        child, changed = _prune(plan.child, child_req)
        changed = changed or len(outputs) != len(plan.outputs)
        if not changed:
            return plan, False
        return ProjectNode(child, outputs), True
    if isinstance(plan, FilterNode):
        child_req = _child_requirements(plan, required)[0]
        child, changed = _prune(plan.child, child_req)
        if not changed:
            return plan, False
        return FilterNode(child, plan.predicates), True
    if isinstance(plan, SortNode):
        child_req = _child_requirements(plan, required)[0]
        child, changed = _prune(plan.child, child_req)
        if not changed:
            return plan, False
        return SortNode(child, plan.keys, plan.descending), True
    if isinstance(plan, LimitNode):
        child, changed = _prune(plan.child, required)
        if not changed:
            return plan, False
        return LimitNode(child, plan.count), True
    # Unknown node type: leave it (and its subtree) untouched.
    return plan, False


def _prune_scan(plan: ScanNode, required: Required) -> Tuple[ScanNode, bool]:
    from ..catalog.schema import RID_COLUMN

    fields = [
        field
        for field in plan.schema
        if field.key in required and field.name != RID_COLUMN
    ]
    include_rid = plan.include_rid and (plan.alias, RID_COLUMN) in required
    if not fields and not include_rid:
        # Nothing referenced (e.g. a bare COUNT(*) input): keep the
        # narrowest existing column for shape, as the block DP does.
        fields = [plan.schema.fields[0]]
        include_rid = plan.include_rid and plan.schema.fields[0].name == RID_COLUMN
    if (
        len(fields) + (1 if include_rid else 0)
        == len(plan.schema.fields)
        and include_rid == plan.include_rid
    ):
        return plan, False
    return (
        ScanNode(
            plan.table_name,
            plan.alias,
            fields,
            filters=plan.filters,
            include_rid=include_rid,
            index_name=plan.index_name,
            index_values=plan.index_values,
        ),
        True,
    )


def _prune_join(plan: JoinNode, required: Required) -> Tuple[JoinNode, bool]:
    projection = [key for key in plan.projection if key in required]
    if not projection:
        projection = [plan.projection[0]]
    left_req, right_req = _child_requirements(
        plan, frozenset(projection) | (required & frozenset(plan.projection))
    )
    left, left_changed = _prune(plan.left, left_req)
    right, right_changed = _prune(plan.right, right_req)
    changed = (
        left_changed
        or right_changed
        or tuple(projection) != plan.projection
    )
    if not changed:
        return plan, False
    return (
        JoinNode(
            left,
            right,
            method=plan.method,
            equi_keys=plan.equi_keys,
            residuals=plan.residuals,
            projection=projection,
            index_name=plan.index_name,
            kind=plan.kind,
            null_aware=plan.null_aware,
        ),
        True,
    )


def _prune_group_by(
    plan: GroupByNode, required: Required
) -> Tuple[GroupByNode, bool]:
    projection = [key for key in plan.projection if key in required]
    if not projection:
        projection = [plan.projection[0]]
    child_req = _child_requirements(plan, frozenset(projection))[0]
    child, child_changed = _prune(plan.child, child_req)
    changed = child_changed or tuple(projection) != plan.projection
    if not changed:
        return plan, False
    return (
        GroupByNode(
            child,
            group_keys=plan.group_keys,
            aggregates=plan.aggregates,
            having=plan.having,
            method=plan.method,
            projection=projection,
            eager=plan.eager,
        ),
        True,
    )


def _prune_rename(
    plan: RenameNode, required: Required
) -> Tuple[RenameNode, bool]:
    mapping = [
        entry for entry in plan.mapping if (entry[0], entry[1]) in required
    ]
    if not mapping:
        mapping = [plan.mapping[0]]
    child_req = frozenset(source for _, _, source in mapping)
    child, child_changed = _prune(plan.child, child_req)
    changed = child_changed or tuple(mapping) != plan.mapping
    if not changed:
        return plan, False
    return RenameNode(child, mapping), True
