"""The IO oracle: the cost model, fed what a run counted.

The engine charges page IO with the cost model's own formulas
(:mod:`repro.engine.spill` holds the shared ones), so the two can only
disagree through the quantities those formulas read. :func:`exact_io`
re-annotates an executed plan with the actual ones — every operator's
output rows, a group-by's groups before HAVING, an index probe's
matching entries (``OperatorMetrics.groups`` / ``.matches``) — and with
the CPU weight zeroed. What is left is the model's IO of the plan as it
ran, which must equal the executed IO.

It does, except through the model's index-probe formula, which prices
one data page per matching entry where storage charges one per page
*change*, and misses the leaf a run of matches straddling a leaf
boundary reads. A plan with an index access (:func:`has_index_access`)
is therefore not held to equality.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..algebra.plan import GroupByNode, JoinNode, PlanNode, ScanNode, plan_nodes
from ..catalog.catalog import Catalog
from ..cost.model import CostModel, estimated_pages
from ..cost.params import CostParams
from ..engine.metrics import ExecutionMetrics, OperatorMetrics
from ..server.planrewrite import clone_plan


class _ActualCostModel(CostModel):
    """The cost model reading a run's counts instead of estimating."""

    def __init__(self, catalog, params, ran: Dict[PlanNode, OperatorMetrics]):
        super().__init__(catalog, replace(params, cpu_tuple_weight=0.0))
        self._ran = ran

    def annotate(self, plan):
        props = super().annotate(plan)
        props.rows = float(self._ran[plan].rows_out)
        props.pages = estimated_pages(props.rows, props.width)
        return props

    def _count(self, node, estimate):
        ran = self._ran[node]
        if isinstance(node, GroupByNode):
            return float(ran.groups)
        if node.index_name is not None:  # an index scan: one probe
            return float(ran.matches)
        # an index NLJ's inner scan: one probe per outer row
        return ran.matches / max(1, ran.rows_in)


def exact_io(
    plan: PlanNode,
    metrics: ExecutionMetrics,
    catalog: Catalog,
    params: CostParams,
) -> float:
    """The cost model's page IO of *plan* under the actual counts one
    run of it recorded in *metrics*. The plan is annotated as a copy:
    a cached plan keeps its estimates. Table page counts come from
    *catalog* as it is now, so check a run before a writer grows a
    table it scanned."""
    copy = clone_plan(plan)
    ran = {}
    for cloned, node in zip(plan_nodes(copy), plan_nodes(plan)):
        operator = metrics.of(node)
        if operator is None or not operator.exhausted:
            raise ValueError(f"{node.describe()} did not run to its end")
        ran[cloned] = operator
    return _ActualCostModel(catalog, params, ran).annotate_tree(copy).cost


def has_index_access(plan: PlanNode) -> bool:
    """Whether *plan* probes an index (an index scan or an index NLJ)."""
    return any(
        (isinstance(node, ScanNode) and node.index_name is not None)
        or (isinstance(node, JoinNode) and node.method == "inlj")
        for node in plan_nodes(plan)
    )


__all__ = ["exact_io", "has_index_access"]
