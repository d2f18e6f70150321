"""Executor observability: per-operator metrics.

Every :func:`repro.engine.executor.execute_plan` call meters each
operator of the plan: rows and batches produced, inclusive wall-clock
(the time spent inside the operator *and* its children), and the spill
IO the operator charged. Everything one run observed is collected in an
:class:`ExecutionMetrics` on its
:class:`~repro.engine.context.ExecutionContext` (``context.metrics``)
and nowhere else — plan nodes stay as the optimizer built them, so one
cached plan serves any number of concurrent runs. The readers —
``explain(plan, metrics=...)``, ``stats.feedback.plan_estimates``,
``cost.model.executed_weighted_cost``, the exact-IO oracle
``repro.testing.exactio``, the CLI's ``--stats`` flag —
take that object and look an operator up by its node
(:meth:`ExecutionMetrics.of`), which is how a benchmark regression is
attributed to a specific operator of a specific run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

KEY_FILTER_FIRED = "fired"


@dataclass
class OperatorMetrics:
    """Counters for one physical operator of one execution.

    ``seconds`` is *inclusive* (it contains time spent pulling batches
    from child operators); :attr:`self_seconds` subtracts the children.
    """

    label: str
    depth: int = 0
    rows_in: int = 0
    """Rows the operator consumed; for a join of any kind, its candidate
    (left, right) pairs before the residual."""
    rows_out: int = 0
    batches: int = 0
    seconds: float = 0.0
    spill_reads: int = 0
    spill_writes: int = 0
    fused: bool = False
    width: int = 0
    """Live output width — columns in this operator's schema. Set at
    pipeline build; projection pruning shows up here directly."""
    cells: int = 0
    """Cells this operator *materialized* (copied or expanded values).
    Zero-copy pass-through columns cost nothing, which is why a join's
    cells can be far below ``rows_out × width`` — and why pruning wide
    columns from under a duplicate-expanding join cuts this counter
    rather than ``rows_out``."""
    groups: int = 0
    """A group-by's groups before HAVING — what its spill charge reads."""
    matches: int = 0
    """An index access's matching entries, summed over its probes,
    before any residual filter — what its leaf and data-page charges
    read."""
    filtered: int = 0
    """A scan's rows, past its own selection, that a hash join's runtime
    key filter removed (``rows_out + filtered`` is what its estimate
    describes)."""
    key_filter: str = ""
    """A hash join's runtime key filter, ``<scan alias>: <outcome>`` —
    ``fired``, ``skipped (unselective)`` or ``skipped (spill)``; empty
    when the join may not filter."""
    folded: Optional[int] = None
    """A join folded into the group-by above it: the build keys it
    built partial states for (``None`` when it did not fold)."""
    exhausted: bool = False
    """The operator's output stream ran to its end, so ``rows_out`` is
    its actual cardinality (not a prefix an error or an abandoned
    consumer cut short)."""
    children: List["OperatorMetrics"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        """Wall-clock spent in this operator excluding its children."""
        childtime = sum(child.seconds for child in self.children)
        return max(0.0, self.seconds - childtime)

    @property
    def key_filter_fired(self) -> bool:
        return self.key_filter.endswith(": " + KEY_FILTER_FIRED)

    def spill(self, reads: int, writes: int) -> None:
        self.spill_reads += reads
        self.spill_writes += writes

    def summary(self) -> str:
        parts = [
            f"rows={self.rows_out}",
            f"batches={self.batches}",
            f"time={self.seconds * 1000.0:.2f}ms",
            f"self={self.self_seconds * 1000.0:.2f}ms",
        ]
        if self.width:
            parts.append(f"width={self.width}")
        if self.cells:
            parts.append(f"cells={self.cells}")
        if self.groups:
            parts.append(f"groups={self.groups}")
        if self.matches:
            parts.append(f"matches={self.matches}")
        if self.filtered:
            parts.append(f"filtered={self.filtered}")
        if self.key_filter:
            parts.append(f"key filter → {self.key_filter}")
        if self.folded is not None:
            parts.append(f"folded → {self.folded} keys")
        if self.spill_reads or self.spill_writes:
            parts.append(f"spill={self.spill_reads}r/{self.spill_writes}w")
        if self.fused:
            parts.append("fused")
        return " ".join(parts)


class ExecutionMetrics:
    """All operator metrics of one (or more) ``execute_plan`` calls.

    Operators register in plan pre-order, so :meth:`lines` renders an
    indented tree matching ``explain`` output; :meth:`of` finds the
    one a plan node ran as (the latest, if the context ran the plan
    more than once).
    """

    def __init__(self) -> None:
        self.operators: List[OperatorMetrics] = []
        self._by_node: Dict[Any, OperatorMetrics] = {}
        #: kernels instantiated by the columnar engine during this
        #: execution (copied from ``ExecutionContext.kernels_compiled``):
        #: a plan compiled for it counts all of its kernels, a cached
        #: executable only the ``$n``-reading ones it re-armed
        self.kernels_compiled: int = 0

    def register(self, node: Any, metrics: OperatorMetrics) -> None:
        """Add *node*'s metrics, after every operator registered so far."""
        self.operators.append(metrics)
        self._by_node[node] = metrics

    def of(self, node: Any) -> Optional[OperatorMetrics]:
        """The metrics plan node *node* ran under, if it ran."""
        return self._by_node.get(node)

    def actual_rows(self, node: Any) -> Optional[int]:
        """Rows *node* produced, once its stream was exhausted."""
        metrics = self._by_node.get(node)
        if metrics is None or not metrics.exhausted:
            return None
        return metrics.rows_out

    @property
    def total_rows(self) -> int:
        """Rows produced across all operators (interpreter work done)."""
        return sum(op.rows_out for op in self.operators)

    @property
    def total_cells(self) -> int:
        """Cells materialized across all operators — the engine-level
        number projection pruning is meant to shrink."""
        return sum(op.cells for op in self.operators)

    @property
    def filters_fired(self) -> int:
        """Hash joins whose build keys filtered their probe-side scan."""
        return sum(op.key_filter_fired for op in self.operators)

    @property
    def folds(self) -> int:
        """Joins folded into the group-by above them."""
        return sum(op.folded is not None for op in self.operators)

    def lines(self) -> List[str]:
        return [
            ("  " * op.depth) + f"{op.label}  [{op.summary()}]"
            for op in self.operators
        ]


def charge_spill(io, metrics: Optional[OperatorMetrics], extra: int) -> None:
    """Charge an out-of-memory IO total the way every operator does:
    half writes (rounding down), the rest reads — the exact split the
    seed executor used, so executed IO stays formula-identical."""
    if not extra:
        return
    writes = extra // 2
    reads = extra - writes
    io.write_pages(writes)
    io.read_pages(reads)
    if metrics is not None:
        metrics.spill(reads, writes)
