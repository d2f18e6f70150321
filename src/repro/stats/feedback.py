"""Estimate-vs-actual feedback: per-operator q-error.

The executor records every operator's actual row count in the run's
``ExecutionMetrics`` (``metrics.actual_rows(node)``); the cost annotator
records estimates (``node.props.rows``). The q-error of a pair is the standard
multiplicative measure

    q = max(max(1, est) / max(1, act), max(1, act) / max(1, est))

— symmetric, ≥ 1, and 1.0 exactly when the estimate is right. Both
sides are floored at one row so empty results do not divide by zero and
"estimated 3, got 0" stays finite. A plan whose worst operator q-error
is small was costed from faithful statistics; large q-errors point at
exactly the operator whose estimate went wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..algebra.plan import JoinNode, PlanNode, ScanNode, plan_nodes


def q_error(estimated: float, actual: float) -> float:
    """Multiplicative estimate-vs-actual error, ≥ 1.0."""
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


@dataclass(frozen=True)
class EstimateRecord:
    """One operator's estimate-vs-actual outcome."""

    operator: str
    depth: int
    estimated_rows: float
    actual_rows: int

    @property
    def q_error(self) -> float:
        return q_error(self.estimated_rows, self.actual_rows)


def plan_estimates(plan: PlanNode, metrics) -> List[EstimateRecord]:
    """Estimate records for every costed operator of *plan* that ran to
    completion under *metrics* (an ``ExecutionMetrics``, or ``None``
    before execution); pre-order, matching ``explain`` output."""
    records: List[EstimateRecord] = []
    if metrics is None:
        return records
    key_filtered = key_filtered_nodes(plan, metrics)
    for depth, node in _walk(plan, 0):
        actual_rows = comparable_rows(node, metrics, key_filtered)
        if node.props is None or actual_rows is None:
            continue
        records.append(
            EstimateRecord(
                operator=node.describe(),
                depth=depth,
                estimated_rows=float(node.props.rows),
                actual_rows=actual_rows,
            )
        )
    return records


def key_filtered_nodes(plan: PlanNode, metrics) -> Set[PlanNode]:
    """The operators strictly between a hash join whose runtime key
    filter fired and the scan it filtered: their actual rows are
    post-filter by design, so no estimate describes them."""
    between: Set[PlanNode] = set()
    for node in plan_nodes(plan):
        ran = metrics.of(node) if isinstance(node, JoinNode) else None
        if ran is None or not ran.key_filter_fired:
            continue
        # the filtered path is unary down to its scan
        below = node.left
        while not isinstance(below, ScanNode):
            between.add(below)
            below = below.children[0]
    return between


def comparable_rows(
    node: PlanNode, metrics, key_filtered: Set[PlanNode]
) -> Optional[int]:
    """The actual rows *node*'s estimate is compared with: what it
    produced, plus, for a scan, the rows a runtime key filter removed;
    ``None`` for an operator in *key_filtered* or one that did not run
    to its end."""
    actual_rows = metrics.actual_rows(node)
    if actual_rows is None or node in key_filtered:
        return None
    return actual_rows + metrics.of(node).filtered


def _walk(node: PlanNode, depth: int):
    yield depth, node
    for child in node.children:
        yield from _walk(child, depth + 1)


def median(values: Sequence[float]) -> Optional[float]:
    """Plain median; None for an empty sequence."""
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


__all__ = [
    "EstimateRecord",
    "comparable_rows",
    "key_filtered_nodes",
    "median",
    "percentile",
    "plan_estimates",
    "q_error",
]
