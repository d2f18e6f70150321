"""Streaming batch executor: compiles a plan tree once into an
:class:`Executable` and runs it as one columnar pipeline per execution.

Every operator builder is split in two. Its **prepare** step runs once
per plan, in :func:`compile_plan`, and needs no execution context —
only the plan and the catalog's DDL facts (column lists, index
definitions): it resolves positions, derives schemas, compiles
``SelectionProgram``/``ComputeProgram``/group-by kernels and fixes the
operator's ``describe()`` label and width. What it returns is the
**open** step, a generator function over per-execution state only
(:class:`Run`: the context with its IO counter, snapshot and ``$n``
values, and this run's fresh ``OperatorMetrics``). Nothing an execution
writes lands on the ``Executable`` or on a plan node, so one cached
``Executable`` serves any number of concurrent executions.

Operators exchange :class:`~repro.engine.batch.ColumnBatch` column sets
and run compiled kernels (:mod:`repro.engine.kernels`). Maximal
filter→project→rename chains fuse into ONE per-batch loop carrying a
lazy selection vector — no intermediate batch is materialized between
fused operators, and each fused operator still gets its own
:class:`~repro.engine.metrics.OperatorMetrics` (rows and batches are
exact; wall-clock is attributed to the chain head, and members carry
the ``fused`` flag that ``explain``/``--stats`` render).

Page IO is charged to ``context.io``, with the cost model's formulas
over actual row counts.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import ColumnRef
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
from ..catalog.schema import RowSchema
from ..errors import ExecutionError
from ..trace import traced
from .batch import ColumnBatch, take
from .context import ExecutionContext, Result
from .groupby import group_by_columns, limit_columns, sort_columns
from .join import join_columns
from .kernels import (
    KERNEL_KINDS,
    ComputeProgram,
    SelectionProgram,
    aggregate_kind,
    gather_virtual,
)
from .metrics import ExecutionMetrics, OperatorMetrics
from .scan import scan_columns

_COLUMN_BUILDERS = {
    ScanNode: scan_columns,
    JoinNode: join_columns,
    GroupByNode: group_by_columns,
    SortNode: sort_columns,
    LimitNode: limit_columns,
}
"""Each builder is a prepare step ``builder(plan, executable) ->
open(run, metrics)``; inputs are compiled through
``executable.child(node)``, which returns ``start(run)``."""

_FUSABLE = (FilterNode, ProjectNode, RenameNode)
"""Kinds compiled as members of one fused per-batch loop (``_Stage``)
instead of by a builder. Both tables are looked up by exact type."""

_SENTINEL = object()


@traced("engine.exec")
def execute_plan(
    plan: Union[PlanNode, "Executable"], context: ExecutionContext
) -> Result:
    """Execute an operator tree and return the materialized result:
    ``compile_plan(plan, context.catalog).run(context)``. A caller that
    runs one plan many times compiles it once and passes the
    :class:`Executable` instead.

    Page IO is charged to ``context.io`` as execution proceeds; wrap the
    call in ``context.io.measure()`` to attribute IO to one query. What
    each operator did — actual output cardinality, counters — is
    recorded in ``context.metrics``, by plan node, so
    ``explain(plan, metrics=context.metrics)`` can show estimates next
    to actuals.
    """
    if isinstance(plan, Executable):
        return plan.run(context)
    executable = compile_plan(plan, context.catalog)
    # this execution paid for the compile: its kernels are its own
    context.kernels_compiled += executable.kernels_compiled
    return executable.run(context)


def compile_plan(plan: PlanNode, catalog: Catalog) -> "Executable":
    """Prepare every operator of *plan* once (see the module docstring);
    valid until the catalog's DDL changes, which is when a cached plan
    is dropped too."""
    return Executable(plan, catalog)


class Run:
    """One execution's state: its context, its operators' metrics,
    indexed like the executable's pre-order operator slots, and per
    runtime key filter the build side's key dict once its join fired
    it (``None`` until then)."""

    __slots__ = ("context", "operators", "key_filters")

    def __init__(
        self,
        context: ExecutionContext,
        operators: List[OperatorMetrics],
        key_filters: List[Optional[dict]],
    ):
        self.context = context
        self.operators = operators
        self.key_filters = key_filters


class KeyFilter:
    """A hash join's runtime key filter, as compiled: the scan that
    feeds the join's left key, that key as the scan outputs it, the
    widest group-by on the path between them, and the filter's slot in
    :attr:`Run.key_filters`."""

    __slots__ = ("scan", "key", "group_width", "slot")

    def __init__(self, scan: ScanNode, key, group_width: int, slot: int):
        self.scan = scan
        self.key = key
        self.group_width = group_width
        self.slot = slot


def _column_source(node: PlanNode, key):
    """The key, in its child's schema, of column *key* of rename or
    projection *node*; ``None`` when the projection computes it."""
    position = node.schema.index_of(*key)
    if isinstance(node, RenameNode):
        return node.child.schema.fields[node.positions[position]].key
    expression = node.outputs[position][2]
    if not isinstance(expression, ColumnRef):
        return None
    return node.child.schema.field_of(*expression.key).key


def _key_filter_path(plan: JoinNode):
    """``(scan, key, group_width)`` when *plan*'s build keys may filter
    the scan that feeds its left key, else ``None``.

    Only an inner or semi hash join on one key may filter: it drops
    every left row whose key has no match, collects its right side
    first, and charges nothing by its left rows while its build side
    fits. The walk from ``plan.left`` follows the key through renames,
    filters, bare-column projections and group-bys *on the key* (which
    drop whole groups — ones the join drops anyway), and stops at
    anything else. A scan that feeds the probe directly saves nothing,
    so the path must cross a group-by."""
    if (
        plan.method != "hj"
        or plan.kind not in ("inner", "semi")
        or len(plan.equi_keys) != 1
        or plan.left.props is None
    ):
        return None
    node = plan.left
    key = plan.equi_keys[0][0]
    group_width = 0
    while not isinstance(node, ScanNode):
        if isinstance(node, GroupByNode):
            key = node.schema.field_of(*key).key
            if key not in node.group_keys:
                return None
            group_width = max(group_width, node.internal_schema.width)
        elif isinstance(node, (RenameNode, ProjectNode)):
            key = _column_source(node, key)
            if key is None:
                return None
        elif not isinstance(node, FilterNode):
            return None
        node = node.child
    if not group_width:
        return None
    return node, node.schema.fields[node.schema.index_of(*key)].key, group_width


class Fold(NamedTuple):
    """A hash group-by aggregating at the inner join below it, as
    compiled by :func:`_fold_path`.

    ``join`` is the join and ``members`` the renames and projections
    between them, which do not run. ``schema`` is the group-by's input
    schema, which its arguments are compiled against; ``probe_columns``
    and ``build_columns`` are ``(position in it, position in the left /
    right input)`` for each column the group-by reads from that side,
    which :meth:`view` places. ``merges[j]`` is aggregate *j*'s offset
    in a partial state, or ``None`` when it is weighted by the state's
    count (``COUNT(*)`` or a probe-side argument). ``build_aggregates``
    is what the join's build step computes per join key: ``COUNT(*)``,
    then each build-side aggregate."""

    join: JoinNode
    members: Tuple[PlanNode, ...]
    schema: RowSchema
    probe_columns: List[Tuple[int, int]]
    build_columns: List[Tuple[int, int]]
    merges: List[Optional[int]]
    build_aggregates: list

    def view(self, columns, placed: List[Tuple[int, int]]) -> list:
        """One side's *columns* at the group-by input's positions
        *placed* names, holes elsewhere."""
        virtual = [None] * len(self.schema)
        for position, source in placed:
            virtual[position] = columns[source]
        return virtual


def _fold_path(plan: GroupByNode) -> Optional[Fold]:
    """The :class:`Fold` of hash group-by *plan*, when it may aggregate
    at the join below it, else ``None``.

    The join must be an inner join the match core serves — hash or
    block NLJ, with equi keys and no residual — reached through renames
    and bare-column projections only: each column the group-by reads is
    followed down by :func:`_key_filter_path`'s step. Every group key
    must come from the probe (left) side, every aggregate must be a
    kind with weighted and merge rows (``kernels.KERNEL_KINDS``), and
    each argument must read one side only. Page IO cannot move: the
    join charges its inputs' counts and the group-by the joined rows
    the partial states stand for, as they would unfolded."""
    if plan.method != "hash":
        return None
    kinds = [KERNEL_KINDS[aggregate_kind(call)] for _, call in plan.aggregates]
    if not all(kind.foldable for kind in kinds):
        return None
    schema = plan.child.schema
    group_positions = [schema.index_of(*key) for key in plan.group_keys]
    arg_positions = [
        {schema.index_of(*key) for key in call.columns()}
        for _, call in plan.aggregates
    ]
    read = {
        position: schema.fields[position].key
        for position in set(group_positions).union(*arg_positions)
    }
    node = plan.child
    members = []
    while type(node) in (RenameNode, ProjectNode):
        for position, key in read.items():
            read[position] = _column_source(node, key)
            if read[position] is None:
                return None
        members.append(node)
        node = node.child
    if (
        not isinstance(node, JoinNode)
        or node.kind != "inner"
        or node.method not in ("hj", "nlj")
        or not node.equi_keys
        or node.residuals
    ):
        return None
    probe = {field.key: i for i, field in enumerate(node.left.schema.fields)}
    build = {field.key: i for i, field in enumerate(node.right.schema.fields)}
    if any(read[position] not in probe for position in group_positions):
        return None
    merges = []
    build_aggregates = [("", AggregateCall("count", None))]
    offset = 1
    for aggregate, kind, positions in zip(plan.aggregates, kinds, arg_positions):
        sides = {read[position] in probe for position in positions}
        if len(sides) > 1:
            return None
        if sides == {False}:  # the build side's: merged from partials
            build_aggregates.append(aggregate)
            merges.append(offset)
            offset += len(kind.inits)
        else:
            merges.append(None)
    return Fold(
        node,
        tuple(members),
        schema,
        [(p, probe[key]) for p, key in read.items() if key in probe],
        [(p, build[key]) for p, key in read.items() if key in build],
        merges,
        build_aggregates,
    )


class _Slot:
    """The execution-independent part of one operator's metrics."""

    __slots__ = ("node", "label", "depth", "width", "fused", "children")

    def __init__(self, node: PlanNode, label: str, depth: int, fused: bool):
        self.node = node
        self.label = label
        self.depth = depth
        self.width = len(node.schema)
        self.fused = fused
        self.children: List[int] = []  # slots whose time is inside this one's


class Executable:
    """A plan compiled for repeated execution: per operator, the open
    step its builder prepared and the label/depth/width its metrics
    start from. Immutable once built; :meth:`run` is safe to call from
    concurrent threads."""

    def __init__(self, plan: PlanNode, catalog: Catalog):
        self.plan = plan
        self.catalog = catalog
        #: kernels instantiated while compiling (the builders count
        #: into it; ``$n``-reading ones are re-armed per run instead)
        self.kernels_compiled = 0
        self._slots: List[_Slot] = []
        self._building: Optional[_Slot] = None
        self._key_filters = 0
        #: the key filter the scan being reached on this compile path
        #: may claim (see :meth:`child`)
        self._unclaimed: Optional[KeyFilter] = None
        self._start = self._compile(plan, 0)[0]

    # -- prepare -------------------------------------------------------

    def _slot(
        self, node: PlanNode, label: str, depth: int, fused: bool = False
    ) -> int:
        """Reserve the next pre-order metrics slot."""
        self._slots.append(_Slot(node, label, depth, fused))
        return len(self._slots) - 1

    def declare(self, node: PlanNode, label: str) -> int:
        """A metrics slot for an input the operator being built runs
        itself rather than compiles (an index NLJ's probed scan)."""
        parent = self._building
        slot = self._slot(node, label, parent.depth + 1)
        parent.children.append(slot)
        return slot

    def child(
        self, node: PlanNode, key_filter: Optional[KeyFilter] = None
    ) -> Callable[[Run], Iterator[ColumnBatch]]:
        """Compile an input of the operator being built; with
        *key_filter*, the scan at the end of its path claims it (the
        operators between compile their inputs while it waits)."""
        parent = self._building
        if key_filter is None:
            start, slot = self._compile(node, parent.depth + 1)
        else:
            self._unclaimed = key_filter
            try:
                start, slot = self._compile(node, parent.depth + 1)
            finally:
                self._unclaimed = None
        parent.children.append(slot)
        return start

    def key_filter(self, plan: JoinNode) -> Optional[KeyFilter]:
        """A runtime key filter slot for join *plan*, when its build
        keys may filter a scan below its left input
        (:func:`_key_filter_path`); pass it to :meth:`child` with
        ``plan.left``."""
        path = _key_filter_path(plan)
        if path is None:
            return None
        self._key_filters += 1
        return KeyFilter(*path, self._key_filters - 1)

    def fold(self, plan: GroupByNode) -> Optional[Fold]:
        """The join below group-by *plan* it may aggregate at
        (:func:`_fold_path`); pass it to :meth:`fold_child`."""
        return _fold_path(plan)

    def fold_child(self, fold: Fold) -> Callable[[Run], Iterator]:
        """Compile the input of the group-by being built that *fold*
        folds: the join, streaming
        :class:`~repro.engine.join.FoldedBatch` es. The renames and
        projections between them do not run; their metrics report the
        join's rows. The group-by's time excludes the join's, which
        covers its inputs, the build and the probe."""
        parent = self._building
        depth = parent.depth + 1
        members = [
            self._slot(member, member.describe(), depth + i)
            for i, member in enumerate(fold.members)
        ]
        start, slot = self._compile(
            fold.join,
            depth + len(members),
            lambda plan, compiler: join_columns(plan, compiler, fold),
        )
        parent.children.append(slot)

        def folded(run: Run) -> Iterator:
            yield from start(run)
            joined = run.operators[slot]
            for member in members:
                metrics = run.operators[member]
                metrics.rows_in = metrics.rows_out = joined.rows_out
                metrics.batches = joined.batches
                metrics.exhausted = True

        return folded

    def claim_key_filter(self, scan: ScanNode) -> Optional[KeyFilter]:
        """The key filter *scan*, being compiled, applies: the one its
        compile path carries, if it is the target."""
        key_filter = self._unclaimed
        if key_filter is None or key_filter.scan is not scan:
            return None
        self._unclaimed = None
        return key_filter

    def _compile(
        self, plan: PlanNode, depth: int, builder: Optional[Callable] = None
    ) -> Tuple[Callable, int]:
        """``(start, slot)`` of the subtree at *plan*: ``start(run)`` is
        its metered batch stream, ``slot`` its root's metrics slot.
        *builder* replaces the kind's (a folded join's)."""
        if type(plan) in _FUSABLE:
            return self._fused_chain(plan, depth)
        builder = builder or _COLUMN_BUILDERS.get(type(plan))
        if builder is None:
            raise ExecutionError(
                f"cannot execute node type {type(plan).__name__}"
            )
        slot = self._slot(plan, plan.describe(), depth)
        outer, self._building = self._building, self._slots[slot]
        try:
            open_operator = builder(plan, self)
        finally:
            self._building = outer

        def start(run: Run) -> Iterator[ColumnBatch]:
            metrics = run.operators[slot]
            return _metered(open_operator(run, metrics), metrics)

        return start, slot

    def _fused_chain(self, plan: PlanNode, depth: int) -> Tuple[Callable, int]:
        """Fuse the maximal filter/project/rename chain rooted at *plan*
        into one per-batch loop.

        The loop threads ``(columns, count, sel)`` through the chain —
        ``sel`` is a pending selection vector, applied lazily so a filter
        followed by a projection gathers each referenced column exactly
        once, and unreferenced columns are never touched. A projection is
        the rematerialization point (it computes new columns); rename is
        zero-copy under a pending selection.

        Every member keeps its own metrics (exact rows in/out and batches;
        inclusive time lands on the chain head) and is flagged ``fused``.
        """
        chain: List[PlanNode] = [plan]
        node = plan.child
        while type(node) in _FUSABLE:
            chain.append(node)
            node = node.child
        fused = len(chain) > 1
        slots = [
            self._slot(member, member.describe(), depth + i, fused)
            for i, member in enumerate(chain)
        ]
        producer, producer_slot = self._compile(node, depth + len(chain))
        # the head's inclusive time must subtract the real producer —
        # fused members contribute no time of their own
        self._slots[slots[0]].children.append(producer_slot)
        # stages run bottom-up (deepest chain member first)
        stages = [
            _Stage(member, slot, self)
            for member, slot in zip(reversed(chain), reversed(slots))
        ]

        def generate(run: Run) -> Iterator[ColumnBatch]:
            context = run.context
            armed = [
                (
                    stage,
                    stage.program.arm(context) if stage.program else None,
                    run.operators[stage.slot],
                )
                for stage in stages
            ]
            head = armed[-1][0]
            for batch in producer(run):
                columns = batch.columns
                count = batch.length
                sel = None
                emitted = count
                for stage, program, metrics in armed:
                    in_rows = len(sel) if sel is not None else count
                    metrics.rows_in += in_rows
                    if stage.kind == "filter":
                        if sel is None:
                            sel = program.run(columns, count)
                        elif program.active:
                            virtual = gather_virtual(
                                columns, program.used, sel, stage.width
                            )
                            relative = program.run(virtual, len(sel))
                            if relative is not None:
                                sel = [sel[i] for i in relative]
                    elif stage.kind == "project":
                        if sel is not None:
                            virtual = gather_virtual(
                                columns, program.used, sel, stage.width
                            )
                            count = len(sel)
                            columns = program.run(virtual, count)
                            sel = None
                        else:
                            columns = program.run(columns, count)
                    else:  # rename: pure column pick, selection unaffected
                        columns = [columns[p] for p in stage.positions]
                    emitted = len(sel) if sel is not None else count
                    if not emitted:
                        break
                    if stage is not head:
                        metrics.batches += 1
                        metrics.rows_out += emitted
                if not emitted:
                    continue
                if sel is not None:
                    yield ColumnBatch(
                        [take(column, sel) for column in columns], len(sel)
                    )
                else:
                    yield ColumnBatch(columns, count)
            for _, _, metrics in armed[:-1]:
                metrics.exhausted = True

        def start(run: Run) -> Iterator[ColumnBatch]:
            return _metered(generate(run), run.operators[slots[0]])

        return start, slots[0]

    # -- run -----------------------------------------------------------

    def run(self, context: ExecutionContext) -> Result:
        """One execution: fresh metrics for every operator, registered
        in ``context.metrics`` in plan pre-order, then the pipeline."""
        if context.metrics is None:
            context.metrics = ExecutionMetrics()
        register = context.metrics.register
        operators = [
            OperatorMetrics(
                slot.label, slot.depth, fused=slot.fused, width=slot.width
            )
            for slot in self._slots
        ]
        for slot, metrics in zip(self._slots, operators):
            register(slot.node, metrics)
            if slot.children:
                metrics.children = [operators[c] for c in slot.children]
        rows = []
        run = Run(context, operators, [None] * self._key_filters)
        for batch in self._start(run):
            rows.extend(batch.to_rows())
        context.metrics.kernels_compiled = context.kernels_compiled
        return Result(schema=self.plan.schema, rows=rows)


class _Stage:
    """One member of a fused unary chain, with its compiled program."""

    __slots__ = ("kind", "program", "positions", "width", "slot")

    def __init__(self, node: PlanNode, slot: int, compiler: Executable):
        child_schema = node.child.schema
        self.width = len(child_schema)
        self.slot = slot
        self.program = None
        self.positions = ()
        if isinstance(node, FilterNode):
            self.kind = "filter"
            self.program = SelectionProgram(
                node.predicates, child_schema, compiler
            )
        elif isinstance(node, ProjectNode):
            self.kind = "project"
            self.program = ComputeProgram(
                [expression for _, _, expression in node.outputs],
                child_schema,
                compiler,
            )
        else:
            self.kind = "rename"
            self.positions = tuple(node.positions)


def _metered(generator: Iterator, metrics: OperatorMetrics) -> Iterator:
    """Wrap an operator's batch generator with row/batch/time counters;
    its row count stands once the stream is exhausted."""
    rows_out = 0
    while True:
        started = perf_counter()
        batch = next(generator, _SENTINEL)
        metrics.seconds += perf_counter() - started
        if batch is _SENTINEL:
            break
        metrics.batches += 1
        rows_out += len(batch)
        yield batch
    metrics.rows_out = rows_out
    metrics.exhausted = True
