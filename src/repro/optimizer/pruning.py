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

:func:`prune_plan` closes both: one generic walk carries, top-down,
the minimal live-column set any ancestor still references (final
outputs, join keys and residual columns of joins above, grouping keys,
aggregate inputs, HAVING/filter/sort columns), and rebuilds bottom-up
— through :meth:`~repro.algebra.plan.PlanNode.replace`, and only where
something narrowed — with narrowed scan decode lists, join
projections, group-by output projections, computed projections and
rename mappings. What differs per node kind is one live-set rule in
:data:`LIVE_SET_RULES`.

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

from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence, Tuple

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
from ..catalog.schema import RID_COLUMN
from ..cost.model import CostModel
from ..errors import PlanError
from ..trace import traced
from .stats import SearchStats

Required = FrozenSet[FieldKey]

Rule = Callable[[Any, Required], Tuple[Dict[str, Any], Sequence[Required]]]


@traced("optimizer.prune")
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
    the pass changed anything (``plans_repruned``). A node kind with no
    live-set rule is a :class:`PlanError`.
    """
    pruned = _prune(plan, frozenset(field.key for field in plan.schema))
    if pruned is plan:
        return plan
    if model is not None:
        model.annotate_tree(pruned)
    if stats is not None:
        stats.plans_repruned += 1
    return pruned


def _prune(plan: PlanNode, required: Required) -> PlanNode:
    rule = LIVE_SET_RULES.get(type(plan))
    if rule is None:
        raise PlanError(f"cannot prune plan node type {type(plan).__name__}")
    changes, child_required = rule(plan, required)
    for name, child, needed in zip(
        plan.CHILD_ARGS, plan.children, child_required
    ):
        pruned = _prune(child, needed)
        if pruned is not child:
            changes[name] = pruned
    return plan.replace(**changes) if changes else plan


# ----------------------------------------------------------------------
# Live-set rules: rule(node, required) -> (constructor changes, what
# each input must still produce). *required* is what some ancestor (or
# the final output) still reads of the node's schema; a change is
# returned only when it narrows something.
# ----------------------------------------------------------------------


def _columns(expressions) -> set:
    columns: set = set()
    for expression in expressions:
        columns |= expression.columns()
    return columns


def _narrow(plan: PlanNode, name: str, required: Required, key=None):
    """``(changes, kept)``: the entries of the output list *name* whose
    key is required — the first one when none is, so an output never
    goes empty — and ``{name: kept}`` if that dropped any."""
    entries = getattr(plan, name)
    kept = [
        entry
        for entry in entries
        if (entry if key is None else key(entry)) in required
    ] or list(entries[:1])
    return ({name: kept} if len(kept) != len(entries) else {}), kept


def _output_key(entry) -> FieldKey:
    """The output key of a ``(alias, name, ...)`` projection entry."""
    return entry[0], entry[1]


def _scan_rule(plan: ScanNode, required: Required):
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
        include_rid = plan.include_rid and fields[0].name == RID_COLUMN
    if len(fields) + include_rid == len(plan.schema.fields) and (
        include_rid == plan.include_rid
    ):
        return {}, ()
    return {"fields": fields, "include_rid": include_rid}, ()


def _join_rule(plan: JoinNode, required: Required):
    changes, projection = _narrow(plan, "projection", required)
    keep = set(projection) | _columns(plan.residuals)
    for left_key, right_key in plan.equi_keys:
        keep.add(left_key)
        keep.add(right_key)
    left_schema = plan.left.schema
    left_required = frozenset(key for key in keep if left_schema.has(*key))
    right_schema = plan.right.schema
    right_required = frozenset(
        key for key in keep - left_required if right_schema.has(*key)
    )
    return changes, (left_required, right_required)


def _group_by_rule(plan: GroupByNode, required: Required):
    changes, _ = _narrow(plan, "projection", required)
    keep = set(plan.group_keys)
    for _, call in plan.aggregates:
        keep |= call.columns()
    # HAVING runs over the internal schema; only its base-column
    # references constrain the child.
    child_schema = plan.child.schema
    keep |= {
        key for key in _columns(plan.having) if child_schema.has(*key)
    }
    return changes, (frozenset(keep),)


def _project_rule(plan: ProjectNode, required: Required):
    changes, outputs = _narrow(plan, "outputs", required, _output_key)
    child_required = _columns(expression for _, _, expression in outputs)
    return changes, (frozenset(child_required),)


def _rename_rule(plan: RenameNode, required: Required):
    changes, mapping = _narrow(plan, "mapping", required, _output_key)
    return changes, (frozenset(source for _, _, source in mapping),)


def _filter_rule(plan: FilterNode, required: Required):
    return {}, (required | _columns(plan.predicates),)


def _sort_rule(plan: SortNode, required: Required):
    return {}, (required | frozenset(plan.keys),)


def _limit_rule(plan: LimitNode, required: Required):
    return {}, (required,)


LIVE_SET_RULES: Dict[type, Rule] = {
    ScanNode: _scan_rule,
    JoinNode: _join_rule,
    GroupByNode: _group_by_rule,
    ProjectNode: _project_rule,
    RenameNode: _rename_rule,
    FilterNode: _filter_rule,
    SortNode: _sort_rule,
    LimitNode: _limit_rule,
}
"""Each plan node kind's live-set rule, by exact type."""
