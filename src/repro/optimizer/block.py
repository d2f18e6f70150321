"""Dynamic-programming optimizer for one single-block query.

This is the paper's Section 5.2 machinery: the classic System R join
enumerator (linear join trees, interesting orders) extended to *linear
aggregate join trees* — group-by operators may interleave with joins.
The **greedy conservative heuristic** governs early group-bys: at each
DP extension, besides the plain join (plan 1) the optimizer builds a
variant with an early group-by on the side holding the aggregate
arguments (plan 2), and keeps plan 2 only when it is *cheaper and no
wider* — which, under an IO-only cost model, guarantees the final plan
is never worse than the traditional one.

Early group-bys always compute decomposed *partial* aggregates
(``repro.transforms.coalescing``); the final group-by coalesces and a
projection finalizes. When the early grouping happens to be invariant
(each group meets at most one join partner), the coalescing group-by
degenerates to a per-row pass that costs no IO, so both Figure 2
transformations fall out of one mechanism.

Each alternative is one generator of :data:`EXTENSIONS` — the plain
join, the early group-by, and (beyond the paper) the COUNT-carry
pre-collapse of ``repro.transforms.eager`` — and ``early_grouping``
picks them. Under ``"eager"`` (the default) the heuristic's choose-one
step becomes *retention*: the DP keeps every shape as an entry keyed by
its state, and the final choice falls out of plan cost, with the lazy
entry guaranteed to survive pruning.

Interesting orders are kept only where they can pay: a block whose
every relation fits in memory is searched with its order classes
collapsed, and one past the memory cliff with them
(``BlockOptimizer._search``).

Blocks are optimized over *leaves*: base tables or derived relations
(pre-optimized view plans), which is how the two-phase algorithms of
Sections 5.3/5.4 reuse this module for both phases.

Search-space engineering (see ``joingraph.py``): the DP is keyed on
integer bitsets over a precomputed :class:`~.joingraph.JoinGraph`, and
materializes only *connected* subsets — the classic DPsize restriction
— whenever the block's join graph is one component. A disconnected
join graph needs cross products, so it takes the seed's full 2ⁿ-subset
walk (``_dp_table(force_exhaustive=True)`` forces that walk: the parity
reference). Predicate classification per (subset, joined alias) and
leaf access-path plans are memoized so each is computed once, not once
per candidate join.

Enumeration is *cost-first*: the physical methods of one (left plan,
right plan) pair — ``nlj`` always, ``hj`` given an equi key, ``inlj``
given an index on it, ``smj`` only where orders are kept: one to four
— share their predicates, projection, output schema and logical
properties (``CostModel.join_logical``, once per pair) and differ only
in a scalar cost and an output order (``CostModel.join_physical``, once
per method). Candidates therefore travel to ``_prune`` as light
:class:`_Entry` records, and a :class:`JoinNode` with full
``PlanProps`` is built only for the entries pruning retains — about a
quarter of what is costed.

Non-inner joins ride the *same* enumerator as **join units**
(:class:`~repro.algebra.query.JoinUnit`): a unit's leaf never stands
alone as a DP singleton and may only be joined onto a subset that
already contains every alias its ON condition references, so every
plan applies the ON condition exactly at the unit's own (left / semi /
anti) join and the unit always arrives as the *right* input. Subject
to those masks the DP still commutes freely — a unit can be joined
early (right after its dependencies) or last, and the cost model
decides. WHERE conjuncts over a LEFT unit's alias cannot ride in any
join (a residual in an outer join is a match condition, not a filter),
so the caller passes them as ``post_predicates``, applied as a filter
after the joins.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import (
    Expression,
    FieldKey,
    equijoin_sides,
    comparison_with_literal,
    comparison_with_parameter,
)
from ..algebra.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from ..algebra.query import JoinUnit, TableRef
from ..catalog.catalog import Catalog
from ..catalog.schema import RID_COLUMN, Field, RowSchema
from ..cost.cardinality import ColMetaMap
from ..cost.model import CostModel, PlanProps
from ..cost.params import CostParams
from ..errors import PlanError
from ..transforms.coalescing import DecomposedAggregates, decompose_aggregates
from ..transforms.eager import (
    carry_aggregates,
    eager_group_keys,
    partial_aggregates,
    weighted_coalescers,
    weighted_partials,
)
from .joingraph import JoinGraph
from .options import OptimizerOptions, level_options
from .stats import SearchStats

MAX_PLANS_PER_SET = 6
"""Plans retained per DP subset, all of its classes together: one class
per eager state, or per (eager state, useful order) where orders are
kept. Bounds memory like a real optimizer would."""


@dataclass(frozen=True)
class GroupingSpec:
    """The block's final grouping: columns, aggregates, HAVING."""

    group_keys: Tuple[FieldKey, ...]
    aggregates: Tuple[Tuple[str, AggregateCall], ...]
    having: Tuple[Expression, ...] = ()


@dataclass(frozen=True)
class BaseLeaf:
    """A stored table joined under an alias."""

    ref: TableRef

    @property
    def alias(self) -> str:
        return self.ref.alias


@dataclass(frozen=True)
class DerivedLeaf:
    """A pre-optimized subplan (e.g. an aggregate view's plan) treated
    as a relation — the second phase's 'view as base table' leaves."""

    alias: str
    plan: PlanNode


Leaf = Union[BaseLeaf, DerivedLeaf]


class _JoinPair(NamedTuple):
    """What every physical method of one (left plan, right plan) join
    shares — derived once per pair by ``_joinplans``."""

    left: PlanNode
    right: PlanNode
    residuals: List[Expression]
    projection: Tuple[FieldKey, ...]
    schema: RowSchema
    kind: str
    null_aware: bool


class _PendingJoin(NamedTuple):
    """The recipe for one join candidate's node, built only if pruning
    retains the candidate."""

    pair: _JoinPair
    logical: Tuple[float, int, float, ColMetaMap]
    """``CostModel.join_logical``'s (rows, width, pages, colmeta)."""
    method: str
    equi_keys: Sequence[Tuple[FieldKey, FieldKey]]  # in the method's order
    index_name: Optional[str]


_entry_cost = attrgetter("cost")

_Finalized = Tuple[PlanNode, Optional[PlanNode]]
"""``BlockOptimizer._finalize``'s (best plan, traditional baseline)."""


class _PastTheCliff(Exception):
    """A walk with order classes collapsed formed a relation larger
    than ``CostModel.working_pages``: an order could save IO above it."""


class _Entry:
    """One plan for a DP subset: a *candidate* until pruning, a
    *retained* entry of the DP table after it.

    A join candidate is only what pruning compares — ``cost``, output
    ``order``, ``width`` and the eager ``state`` (:data:`FINALIZATION`)
    — plus ``join``, the recipe for its node; ``plan`` is built
    (``BlockOptimizer._materialize``) for the entries pruning retains
    and is never ``None`` in the table.
    """

    __slots__ = ("cost", "order", "width", "state", "plan", "join")

    def __init__(
        self,
        cost: float,
        order: Tuple[FieldKey, ...],
        width: int,
        state: str,
        plan: Optional[PlanNode] = None,
        join: Optional[_PendingJoin] = None,
    ):
        self.cost = cost
        self.order = order
        self.width = width
        self.state = state
        self.plan = plan
        self.join = join

    @classmethod
    def of_plan(cls, plan: PlanNode, state: str) -> "_Entry":
        """An entry over an already built, annotated plan."""
        props = plan.props
        return cls(props.cost, props.order, props.width, state, plan)


class BlockOptimizer:
    """Optimizes one block; reusable across blocks (stats accumulate,
    and identical base-leaf access paths are planned once). *options*
    alone decide what the DP considers: with ``early_grouping="off"``
    it is the Section 5.1 traditional DP (plain joins, group-by last)."""

    def __init__(
        self,
        catalog: Catalog,
        params: Optional[CostParams] = None,
        options: Optional[OptimizerOptions] = None,
        stats: Optional[SearchStats] = None,
    ):
        self.catalog = catalog
        self.params = params or CostParams()
        self.options = options or OptimizerOptions()
        self.stats = stats if stats is not None else SearchStats()
        self.model = CostModel(catalog, self.params)
        # Annotated access-path plans for identical base-table leaves,
        # shared across every block this optimizer touches (the shared
        # DP of Section 5.3 re-plans the same scans for every request
        # otherwise).
        self._leaf_plan_cache: Dict[
            Tuple[str, str, Tuple[Expression, ...], Tuple[str, ...], bool],
            List[PlanNode],
        ] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def traditional_twin(self) -> "BlockOptimizer":
        """This optimizer at the ``"traditional"`` level (the Section
        5.1 baseline), over the *same* cost model, base-leaf plan cache
        and stats: a baseline planned beside a search is costed by the
        search's model and re-plans none of its scans."""
        twin = copy(self)
        twin.options = level_options("traditional", self.options)
        return twin

    def optimize_block(self, *args, **kwargs) -> PlanNode:
        """The cheapest plan of :meth:`search_block` (same arguments)."""
        return self.search_block(*args, **kwargs)[0]

    def search_block(
        self,
        leaves: Sequence[Leaf],
        predicates: Sequence[Expression],
        spec: Optional[GroupingSpec],
        select: Sequence[Tuple[str, Expression]],
        join_units: Sequence[JoinUnit] = (),
        post_predicates: Sequence[Expression] = (),
    ) -> Tuple[PlanNode, Optional[PlanNode]]:
        """Return ``(plan, baseline)``: the cheapest annotated plan
        computing the block, and what a traditional search
        (:meth:`traditional_twin`) of it returns — read out of the same
        DP table (:meth:`_finalize`), ``None`` when that cannot be
        established.

        The output schema is one field ``(None, name)`` per *select*
        entry, in order. *join_units* names leaves joined through a
        non-inner kind; *post_predicates* are applied as a filter after
        all joins (WHERE conjuncts over LEFT-unit columns).
        """
        self.stats.blocks_optimized += 1
        leaves = list(leaves)
        if not leaves:
            raise PlanError("a block needs at least one relation")
        aliases = [leaf.alias for leaf in leaves]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate leaf aliases: {aliases}")
        alias_set = set(aliases)
        for unit in join_units:
            if unit.alias not in alias_set:
                raise PlanError(
                    f"join unit {unit.alias!r} has no leaf in the block"
                )
        if len(set(u.alias for u in join_units)) != len(tuple(join_units)):
            raise PlanError("duplicate join unit aliases")
        if len(alias_set - {u.alias for u in join_units}) == 0:
            raise PlanError("a block cannot consist of join units only")
        predicates = tuple(predicates)
        select = tuple(select)

        context = _BlockContext(
            self,
            leaves,
            predicates,
            spec,
            select,
            join_units=tuple(join_units),
            post_predicates=tuple(post_predicates),
        )

        def finish(table):
            entries = table.get(context.graph.all_mask)
            if not entries:
                raise PlanError("the DP produced no plan for the full block")
            return [self._finalize(context, entries)]

        (found,) = self._search(context, finish)
        return found

    def optimize_block_shared(
        self,
        leaves: Sequence[Leaf],
        predicates: Sequence[Expression],
        base_spec: Optional[GroupingSpec],
        base_select: Sequence[Tuple[str, Expression]],
        requests: Sequence[
            Tuple[
                object,
                FrozenSet[str],
                Optional[GroupingSpec],
                Sequence[Tuple[str, Expression]],
            ]
        ],
    ) -> Dict[object, PlanNode]:
        """One shared DP serving several final groupings — the paper's
        Section 5.3 sharing: "while optimizing for Φ(V′, B′), we can
        also generate the subplans for the joins of relations in the
        set V′ ∪ W for every W ⊆ B′".

        *requests* lists ``(key, subset_aliases, spec, select)``; for
        each, the best retained plan of that DP subset is extended
        "with the possible extension of adding a group-by" per its own
        spec. ``base_spec``/``base_select`` describe the maximal block
        (W = B′), which drives early-grouping decisions inside the DP.
        """
        self.stats.blocks_optimized += 1
        leaves = list(leaves)
        predicates = tuple(predicates)

        extra_needed: Set[FieldKey] = set()
        agg_args: Set[FieldKey] = set()
        for _, _, spec, select in requests:
            extra_needed |= _output_columns(spec, select)
            agg_args |= _argument_columns(spec)

        context = _BlockContext(
            self,
            leaves,
            predicates,
            base_spec,
            tuple(base_select),
            # Aggregate argument columns are needed to finalize the
            # requests' *ungrouped* entries (so they ride in projections
            # via ``extra_needed``), but they must not become eager
            # grouping keys: a partial group-by consumes them, and
            # keying on an aggregate's own argument destroys the
            # collapse (``eager_exclude``).
            extra_needed=frozenset(extra_needed | agg_args),
            eager_exclude=frozenset(agg_args - extra_needed),
        )
        graph = context.graph
        masks = [
            self._request_mask(graph, subset) for _, subset, _, _ in requests
        ]

        def finish(table):
            # A request's subset is normally connected (it joins the
            # view's invariant core to a predicate-connected pull-up
            # set), but the connected-only enumeration offers no such
            # guarantee in general: re-run exhaustively rather than fail.
            if any(mask not in table for mask in masks):
                table = self._dp_table(context, force_exhaustive=True)
            finalized = []
            for mask, (_, subset, spec, select) in zip(masks, requests):
                entries = table.get(mask)
                if not entries:
                    raise PlanError(
                        "shared DP produced no plan for subset "
                        f"{sorted(subset)}"
                    )
                finalized.append(
                    self._finalize(context, entries, spec, tuple(select))
                )
            return finalized

        return {
            key: plan
            for (key, _, _, _), (plan, _) in zip(
                requests, self._search(context, finish)
            )
        }

    @staticmethod
    def _request_mask(graph: JoinGraph, subset: FrozenSet[str]) -> int:
        mask = graph.strict_mask_of(subset)
        if mask is None or mask == 0:
            raise PlanError(
                f"shared DP request over unknown aliases {sorted(subset)}"
            )
        return mask

    # ------------------------------------------------------------------
    # DP over subsets
    # ------------------------------------------------------------------

    def _search(
        self,
        context: "_BlockContext",
        finish: Callable[[Dict[int, List[_Entry]]], List[_Finalized]],
    ) -> List[_Finalized]:
        """*finish* over the block's DP table, searched with its order
        classes collapsed where no order can save IO, else with them, as
        System R keeps them (DESIGN §6 "Orders only where they can
        pay").

        Orders pay only past the memory cliff, once a relation the
        search forms exceeds ``CostModel.working_pages``. A leaf past it
        is seen before the first walk; a join or a group table ends the
        collapsed walk where it is formed, and the block is searched
        again with orders. A CPU weight keeps them too: its charge reads
        each plan's own row estimate, which depends on the join order."""
        limit = context.working_pages
        if self.params.cpu_tuple_weight == 0 and all(
            plan.props.pages <= limit
            for leaf in context.leaves
            for plan in context.leaf_plans(leaf)
        ):
            adopted = self.stats.eager_alternatives_adopted
            context.start_walk(ordered=False)
            try:
                return finish(self._dp_table(context))
            except _PastTheCliff:
                # a shared DP may have finalized a request already
                self.stats.eager_alternatives_adopted = adopted
        self.stats.ordered_searches += 1
        context.start_walk(ordered=True)
        return finish(self._dp_table(context))

    def _dp_table(
        self, context: "_BlockContext", force_exhaustive: bool = False
    ) -> Dict[int, List[_Entry]]:
        graph = context.graph
        started = perf_counter()
        table: Dict[int, List[_Entry]] = {}
        for leaf in context.leaves:
            bit = graph.mask_of_alias[leaf.alias]
            if bit & context.unit_mask:
                # A join unit never stands alone: its leaf only ever
                # arrives as the right input of its own non-inner join,
                # once every ON dependency is present.
                continue
            plans = context.leaf_plans(leaf)
            table[bit] = self._prune(
                context, [_Entry.of_plan(plan, LAZY) for plan in plans]
            )
        self.stats.add_time("leaf_plans", perf_counter() - started)

        started = perf_counter()
        # Connected-only enumeration is sound only when the whole block
        # is one component; a disconnected join graph needs the seed's
        # cross-product extensions, i.e. the exhaustive walk.
        use_graph = not force_exhaustive and graph.component_count() <= 1
        subsets = (
            graph.connected_subsets() if use_graph else graph.all_subsets()
        )
        visited = 0
        for subset in subsets:
            visited += 1
            candidates = self._expand_subset(context, table, subset)
            if candidates:
                self.stats.subsets_expanded += 1
                table[subset] = self._prune(context, candidates)
        if use_graph:
            leaf_count = len(graph.aliases)
            total = (1 << leaf_count) - 1 - leaf_count
            self.stats.connected_subsets_skipped += total - visited
        self.stats.add_time("dp", perf_counter() - started)
        return table

    def _expand_subset(
        self,
        context: "_BlockContext",
        table: Dict[int, List[_Entry]],
        subset_mask: int,
    ) -> List[_Entry]:
        graph = context.graph
        pairs: List[Tuple[int, int, bool]] = []
        for bit in graph.iter_bits(subset_mask):
            remainder = subset_mask & ~bit
            if remainder not in table:
                continue
            if bit & context.unit_mask and context.unit_dep[bit] & ~remainder:
                # A unit's ON condition references aliases not yet in
                # the prefix: the unit cannot be joined here.
                continue
            pairs.append((remainder, bit, graph.connects(remainder, bit)))
        if not pairs:
            # No remainder has a DP entry (possible once only connected
            # subsets are materialized): skip cleanly — this subset is
            # neither expanded nor counted.
            return []
        if any(connected for _, _, connected in pairs):
            pairs = [pair for pair in pairs if pair[2]]

        candidates: List[_Entry] = []
        for remainder, bit, _ in pairs:
            alias = graph.aliases[bit.bit_length() - 1]
            right_plans = context.leaf_plans(context.leaf_by_alias[alias])
            for left_entry in table[remainder]:
                for right_plan in right_plans:
                    candidates.extend(
                        self._extend(
                            context, left_entry, remainder, right_plan,
                            alias, bit,
                        )
                    )
        return candidates

    def _extend(
        self,
        context: "_BlockContext",
        left_entry: _Entry,
        left_mask: int,
        right_plan: PlanNode,
        right_alias: str,
        right_bit: int,
    ) -> List[_Entry]:
        """Plan the alternatives for joining one more leaf onto an entry:
        every triple the block's generators yield, costed once.

        Plan (1) is the plain join; plan (2), when the policy has it, the
        early group-by — the paper's Section 5.2 greedy conservative
        heuristic *replaces* (1) with (2) only when cheaper and no wider.
        Under ``"eager"`` the verdict is recorded but every shape is
        *retained* and competes by cost in the DP — the lazy plan always
        survives, which keeps the no-worse guarantee structural."""
        shapes = []
        for generate in context.extensions:
            shape: List[_Entry] = []
            for left_plan, right_input, state in generate(
                context, left_entry, left_mask, right_plan, right_bit
            ):
                shape += self._joinplans(
                    context, left_plan, left_mask, right_input,
                    right_alias, right_bit, state,
                )
            shapes.append(shape)
        lazy = shapes[0]
        if len(shapes) == 1:
            return lazy
        partial, accepted = shapes[1], False
        if partial:
            best1 = min(lazy, key=_entry_cost)
            best2 = min(partial, key=_entry_cost)
            accepted = best2.cost < best1.cost and (
                best2.width <= best1.width or not context.width_guard
            )
            self.stats.early_groupby_accepted += accepted
        if context.retain:
            return [entry for shape in shapes for entry in shape]
        if accepted:
            # the plain join is gone: a traditional DP keeps it
            context.lazy_exact = False
            return partial
        return lazy

    # ------------------------------------------------------------------
    # joinplan: all physical alternatives for one join
    # ------------------------------------------------------------------

    def _joinplans(
        self,
        context: "_BlockContext",
        left_plan: PlanNode,
        left_mask: int,
        right_plan: PlanNode,
        right_alias: str,
        right_bit: int,
        state: str,
    ) -> List[_Entry]:
        """Cost every physical method of one join as a light candidate
        (no node is built here; ``_prune`` materializes its survivors).
        The logical half — predicates, projection, output schema, rows,
        width, pages, column metadata — is derived once for the pair;
        each method then adds only a scalar cost and an order. An index
        NLJ sees its inner as a probed base table, not a scanned input,
        so it alone gets its own logical properties."""
        equi, residuals = context.join_predicates(
            left_plan, left_mask, right_plan, right_alias, right_bit
        )

        unit = context.join_units.get(right_alias)
        kind = unit.kind if unit is not None else "inner"
        null_aware = unit.null_aware if unit is not None else False
        if null_aware and (len(equi) != len(unit.on) or residuals):
            # every ON conjunct an equi key, in ON order: the membership
            # equality first, then the correlation equalities
            raise PlanError(
                "a null-aware anti join needs every ON conjunct as an "
                "equi key"
            )
        projection, schema = context.join_output(
            left_plan, right_plan, left_mask | right_bit, kind
        )
        pair = _JoinPair(
            left_plan, right_plan, residuals, projection, schema, kind,
            null_aware,
        )

        methods: List[Tuple[str, Optional[str], Sequence]] = []
        if equi:
            methods.append(("hj", None, equi))
            if kind == "inner":
                if context.ordered:
                    methods.append(("smj", None, equi))
                access = context.inlj_access(right_plan, equi)
                if access is not None:
                    methods.append(("inlj", *access))
        methods.append(("nlj", None, equi))

        model = self.model
        left = left_plan.props

        def logical_props(method, equi_keys):
            right_rows, right_meta = model.join_right_input(
                method, right_plan
            )
            return model.join_logical(
                left, right_rows, right_meta, equi_keys, residuals, kind,
                schema,
            )

        # logical properties: hj / smj / nlj share one derivation, the
        # probed inner of an index NLJ gets its own — all derived (and
        # checked against the memory cliff) before any method is costed
        scanned = logical_props("hj", equi)
        logicals = [
            logical_props(method, equi_keys) if method == "inlj" else scanned
            for method, _, equi_keys in methods
        ]
        context.formed(max(logical[2] for logical in logicals))
        entries: List[_Entry] = []
        for (method, index_name, equi_keys), logical in zip(
            methods, logicals
        ):
            self.stats.joinplan_calls += 1
            cost, order = model.join_physical(
                method, left, right_plan, equi_keys, index_name, schema
            )
            entries.append(
                _Entry(
                    model.cpu_weighted(cost, logical[0]),
                    order,
                    logical[1],
                    state,
                    join=_PendingJoin(
                        pair, logical, method, equi_keys, index_name
                    ),
                )
            )
        return entries

    def _materialize(self, entry: _Entry) -> None:
        """Build and annotate the join node of a retained candidate."""
        pending = entry.join
        assert pending is not None
        pair = pending.pair
        join = JoinNode(
            pair.left,
            pair.right,
            method=pending.method,
            equi_keys=pending.equi_keys,
            residuals=pair.residuals,
            projection=pair.projection,
            index_name=pending.index_name,
            kind=pair.kind,
            null_aware=pair.null_aware,
            schema=pair.schema,
        )
        rows, width, pages, colmeta = pending.logical
        join.props = PlanProps(
            rows, width, pages, entry.cost, entry.order, colmeta
        )
        self.stats.joins_materialized += 1
        entry.plan = join
        entry.join = None

    # ------------------------------------------------------------------
    # Final group-by / projection
    # ------------------------------------------------------------------

    def _finalize(
        self,
        context: "_BlockContext",
        entries: List[_Entry],
        spec: Optional[GroupingSpec] = None,
        select: Optional[Tuple[Tuple[str, Expression], ...]] = None,
    ) -> Tuple[PlanNode, Optional[PlanNode]]:
        """The cheapest finalization (``final_plans`` with *spec* and
        *select*) over all *entries*, and over their lazy slice — the
        entries whose finalization row undoes nothing — alone.

        A lazy entry is only ever built from lazy entries, and pruning
        keeps one entry per ``(state, useful order)`` class, so while
        ``context.lazy_exact`` holds, every subset's lazy slice *is* what
        a traditional DP over this context retains, in order, and the
        second plan is that DP's result (same iteration, same strict
        ``<``: ties break alike); else ``None``."""
        started = perf_counter()
        best: Optional[PlanNode] = None
        best_undo = None
        baseline: Optional[PlanNode] = None
        for entry in entries:
            undo = FINALIZATION[entry.state]
            for candidate in context.final_plans(
                entry.plan, undo, spec, select
            ):
                cost = candidate.props.cost
                if best is None or cost < best.props.cost:
                    best = candidate
                    best_undo = undo
                if undo is None and (
                    baseline is None or cost < baseline.props.cost
                ):
                    baseline = candidate
        assert best is not None
        if context.retain and best_undo is not None:
            self.stats.eager_alternatives_adopted += 1
        self.stats.add_time("finalize", perf_counter() - started)
        return best, baseline if context.lazy_exact else None

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def _prune(
        self, context: "_BlockContext", candidates: List[_Entry]
    ) -> List[_Entry]:
        # A class's cheapest entry dominates the rest of it: no node
        # costs less than its inputs (``CostModel.is_monotonic``).
        best: Dict[object, _Entry] = {}
        ordered = context.ordered
        for entry in candidates:
            key = (
                (entry.state, context.useful_order(entry.order))
                if ordered
                else entry.state
            )
            incumbent = best.get(key)
            if incumbent is None or entry.cost < incumbent.cost:
                best[key] = entry
        kept = sorted(best.values(), key=_entry_cost)
        pruned = kept[:MAX_PLANS_PER_SET]
        if len(kept) > MAX_PLANS_PER_SET:
            lazy = [e for e in kept if e.state == LAZY]
            survivors = [e for e in pruned if e.state == LAZY]
            if context.retain and lazy and not survivors:
                # The lazy alternative must survive pruning — it is what
                # makes every eager variant an *alternative* (the no-worse
                # guarantee is structural, not heuristic).
                pruned = pruned[:-1] + [lazy[0]]
                survivors = lazy[:1]
            if survivors != lazy[:MAX_PLANS_PER_SET]:
                # the cut took a lazy entry a traditional DP (whose
                # candidates are the lazy ones alone) would have retained
                context.lazy_exact = False
        for entry in pruned:
            if entry.plan is None:
                self._materialize(entry)
        self.stats.plans_retained += len(pruned)
        self.stats.plans_pruned += len(candidates) - len(pruned)
        return pruned


def _output_columns(
    spec: Optional[GroupingSpec], select: Sequence[Tuple[str, Expression]]
) -> Set[FieldKey]:
    """What a finalization reads besides aggregate arguments: the
    grouping keys and the qualified columns of HAVING and *select*."""
    columns: Set[FieldKey] = set()
    if spec is not None:
        columns |= set(spec.group_keys)
        for predicate in spec.having:
            columns |= {
                key for key in predicate.columns() if key[0] is not None
            }
    for _, source in select:
        columns |= {key for key in source.columns() if key[0] is not None}
    return columns


def _argument_columns(spec: Optional[GroupingSpec]) -> Set[FieldKey]:
    """The columns *spec*'s aggregates read."""
    columns: Set[FieldKey] = set()
    if spec is not None:
        for _, call in spec.aggregates:
            columns |= set(call.columns())
    return columns


def _ordered_on(plan: PlanNode, keys: Sequence[FieldKey]) -> bool:
    """Whether *plan* arrives sorted on *keys*, in any key order — a
    sort-based group-by over it then needs no sort."""
    order = plan.props.order if plan.props else ()
    return bool(keys) and set(order[: len(keys)]) == set(keys)


# A cached predicate-classification step: either an oriented equijoin
# candidate ("equi", left_key, right_key, predicate) still subject to
# the per-plan schema check, or a definite residual ("res", None, None,
# predicate). Steps keep the original predicate order so residual
# tuples come out byte-identical to the seed's.
_SplitStep = Tuple[str, Optional[FieldKey], Optional[FieldKey], Expression]


class _BlockContext:
    """Per-block precomputation: the bitset join graph, needed columns,
    leaf plan variants, connectivity, early-grouping construction,
    finalization."""

    def __init__(
        self,
        optimizer: BlockOptimizer,
        leaves: List[Leaf],
        predicates: Tuple[Expression, ...],
        spec: Optional[GroupingSpec],
        select: Tuple[Tuple[str, Expression], ...],
        extra_needed: FrozenSet[FieldKey] = frozenset(),
        eager_exclude: FrozenSet[FieldKey] = frozenset(),
        join_units: Tuple[JoinUnit, ...] = (),
        post_predicates: Tuple[Expression, ...] = (),
    ):
        self.optimizer = optimizer
        self.catalog = optimizer.catalog
        self.model = optimizer.model
        self.leaves = leaves
        self.spec = spec
        self.select = select
        self.extra_needed = extra_needed
        # The policy, read once: which generators extend an entry,
        # whether all their shapes are retained ("eager") or the §5.2
        # verdict picks one ("greedy"), and the verdict's width guard.
        options = optimizer.options
        policy = options.early_grouping
        self.width_guard = options.width_guard
        self.retain = policy == "eager"
        # Shared DP: pure aggregate-argument columns are consumed by the
        # partials, and keying an eager group-by on them would destroy
        # the collapse. Only retention excludes them: "greedy" plans as
        # it did before retention existed.
        self.eager_exclude = eager_exclude if self.retain else frozenset()
        self.join_units: Dict[str, JoinUnit] = {
            unit.alias: unit for unit in join_units
        }
        self.post_predicates = post_predicates
        self.leaf_by_alias = {leaf.alias: leaf for leaf in leaves}
        self._leaf_plan_cache: Dict[str, List[PlanNode]] = {}
        self.working_pages = self.model.working_pages
        # ``BlockOptimizer._search`` collapses the order classes where
        # they cannot pay; a walk started otherwise keeps them.
        self.start_walk(ordered=True)

        # Unit ON conditions and local filters enter the predicate pool:
        # filters place naturally (their mask is the unit's own bit, so
        # they become scan filters on the unit leaf); ON conjuncts get a
        # *forced* mask below so they apply exactly at the unit's join.
        on_predicates: List[Tuple[Expression, str]] = []
        filter_predicates: List[Tuple[Expression, str]] = []
        for unit in join_units:
            on_predicates.extend(
                (predicate, unit.alias) for predicate in unit.on
            )
            filter_predicates.extend(
                (predicate, unit.alias) for predicate in unit.filters
            )
        all_predicates = (
            predicates
            + tuple(predicate for predicate, _ in on_predicates)
            + tuple(predicate for predicate, _ in filter_predicates)
        )
        self.predicates = all_predicates

        # A WHERE conjunct that reads no column (``1 = 0``, ``$1 = 1``)
        # holds for every row or for none, so it places on no leaf and
        # no join. Being row-independent it commutes with every
        # operator of the block (a group-by yields no group from no
        # rows, keyless or not), so ``_project`` applies it once, on
        # top of every plan of the block: no early grouping is lost
        # and the join under the final group-by stays foldable.
        self.constant_predicates = tuple(
            predicate for predicate in predicates if not predicate.columns()
        )

        self.graph = JoinGraph(self.leaf_by_alias, all_predicates)
        # (predicate, strict mask): mask is None when the predicate
        # references an alias outside this block (never placeable, its
        # columns always pending), 0 when it references no alias. A unit
        # ON conjunct's mask is widened by the unit's own bit: together
        # with the dependency check in ``_expand_subset`` (the unit
        # joins only after every ON alias) this pins the conjunct to the
        # unit's join — an outer-only ON conjunct must not filter the
        # outer side, and must not be applied anywhere else. A unit
        # filter that reads no column (``1 = 0`` in a subquery body)
        # gets the unit's bit, so it filters the unit's own leaf.
        info: List[Tuple[Expression, Optional[int]]] = []
        for predicate in predicates:
            info.append(
                (predicate, self.graph.strict_mask_of(predicate.aliases()))
            )
        for predicate, unit_alias in on_predicates:
            strict = self.graph.strict_mask_of(predicate.aliases())
            if strict is None:
                raise PlanError(
                    f"join unit {unit_alias!r} ON condition references "
                    "an alias outside the block"
                )
            info.append(
                (predicate, strict | self.graph.mask_of_alias[unit_alias])
            )
        for predicate, unit_alias in filter_predicates:
            strict = self.graph.strict_mask_of(predicate.aliases())
            if strict == 0:
                strict = self.graph.mask_of_alias[unit_alias]
            info.append((predicate, strict))
        self._pred_info: Tuple[Tuple[Expression, Optional[int]], ...] = (
            tuple(info)
        )
        self._split_cache: Dict[Tuple[int, int], List[_SplitStep]] = {}
        self._pending_cache: Dict[int, FrozenSet[FieldKey]] = {}

        # Per-unit state: the unit's bit, and the mask of aliases its ON
        # condition references (minus itself) — the aliases that must be
        # joined before the unit can be.
        self.unit_mask = 0
        self.unit_dep: Dict[int, int] = {}
        for unit in join_units:
            bit = self.graph.mask_of_alias[unit.alias]
            self.unit_mask |= bit
            dep = 0
            for predicate in unit.on:
                strict = self.graph.strict_mask_of(predicate.aliases())
                assert strict is not None  # checked above
                dep |= strict & ~bit
            self.unit_dep[bit] = dep

        self.decomposed: Optional[DecomposedAggregates] = None
        if (
            spec is not None
            and policy != "off"
            and not join_units
            and not post_predicates
        ):
            # Eager partial aggregation assumes nothing intervenes
            # between the DP's joins and the coalescing group-by; the
            # post-join filter breaks that (it filters rows, and
            # partials would have collapsed them already), so blocks
            # with units plan lazily.
            self.decomposed = decompose_aggregates(spec.aggregates)
        names = POLICIES[policy if self.decomposed is not None else "off"]
        self.extensions = tuple(EXTENSIONS[name].generate for name in names)
        # 0 when no aggregate has an argument (COUNT(*)); None when one
        # references a foreign alias: then no side can ever contain all
        # aggregate arguments.
        self.agg_arg_mask: Optional[int] = self.graph.strict_mask_of(
            alias
            for _, call in (spec.aggregates if spec is not None else ())
            for alias in call.aliases()
        )

        # Columns the post-join filter consumes must ride every join
        # projection (the filter runs after all joins).
        post_columns: Set[FieldKey] = set()
        for predicate in post_predicates:
            post_columns |= set(predicate.columns())

        # Column lifetime: what an ancestor still references once every
        # predicate over a subset has been applied — the final grouping
        # keys, aggregate inputs, HAVING and select columns, plus
        # anything shared finalizations ask for. Predicate columns are
        # deliberately absent: they stay live only while some predicate
        # over them is *pending* (``pending_columns``), which is what
        # lets a join projection drop a join key or filter column the
        # moment its last predicate has been applied.
        top = (
            _output_columns(spec, select)
            | _argument_columns(spec)
            | extra_needed
            | post_columns
        )
        self.top_needed: FrozenSet[FieldKey] = frozenset(
            key for key in top if key[0] is not None
        )
        # Base columns needed anywhere in the block.
        self.needed: FrozenSet[FieldKey] = self.top_needed | {
            key
            for predicate in all_predicates
            for key in predicate.columns()
            if key[0] is not None
        }

        # Interesting orders: join columns and grouping columns.
        interesting: Set[FieldKey] = set()
        for predicate in all_predicates:
            sides = equijoin_sides(predicate)
            if sides is not None:
                interesting.update(sides)
        if spec is not None:
            interesting.update(spec.group_keys)
        self.interesting = frozenset(interesting)

    # ------------------------------------------------------------------
    # One walk of the DP
    # ------------------------------------------------------------------

    def start_walk(self, ordered: bool) -> None:
        """Reset what one DP walk accumulates; *ordered* keeps order
        classes, sort-merge joins and sort group-bys."""
        self.ordered = ordered
        # The DP table's lazy slice is, entry for entry, what a
        # traditional DP retains — until ``_extend`` or ``_prune``
        # drops a plain join such a DP would have kept.
        self.lazy_exact = True

    def formed(self, pages: float) -> None:
        """Note a relation of *pages* pages the walk formed: past the
        memory cliff, a collapsed walk ends here."""
        if pages > self.working_pages and not self.ordered:
            raise _PastTheCliff

    def group_formed(self, group: GroupByNode) -> None:
        """Note a group-by's hash table and its output."""
        if not self.ordered:
            self.formed(self.model.group_table_pages(group))
            self.formed(group.props.pages)

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------

    def leaf_plans(self, leaf: Leaf) -> List[PlanNode]:
        cached = self._leaf_plan_cache.get(leaf.alias)
        if cached is not None:
            return cached
        if isinstance(leaf, DerivedLeaf):
            plans = [self._derived_leaf_plan(leaf)]
        else:
            plans = self._base_leaf_plans(leaf)
        self._leaf_plan_cache[leaf.alias] = plans
        return plans

    def _local_predicates(self, alias: str) -> Tuple[Expression, ...]:
        alias_bit = self.graph.mask_of_alias[alias]
        return tuple(
            predicate
            for predicate, mask in self._pred_info
            if mask == alias_bit
        )

    def _derived_leaf_plan(self, leaf: DerivedLeaf) -> PlanNode:
        plan = leaf.plan
        if plan.props is None:
            self.model.annotate_tree(plan)
        local = self._local_predicates(leaf.alias)
        if local:
            plan = FilterNode(plan, local)
            self.model.annotate(plan)
        return plan

    def _base_leaf_plans(self, leaf: BaseLeaf) -> List[PlanNode]:
        alias = leaf.alias
        local = self._local_predicates(alias)
        # Scan decode narrows to live columns: scan filters evaluate
        # over the full (row-stored) page anyway, so a column only a
        # local predicate reads need not survive the scan. Page IO is
        # unchanged — only decode width shrinks.
        live = self.top_needed | self.pending_columns(
            self.graph.mask_of_alias[alias]
        )
        wanted = tuple(
            sorted(
                {
                    key[1]
                    for key in live
                    if key[0] == alias and key[1] != RID_COLUMN
                }
            )
        )
        include_rid = (alias, RID_COLUMN) in self.needed

        # Identical scans (same table, alias, filters, projection) recur
        # across the shared DP's requests and the combination loop; plan
        # and annotate them once per optimizer.
        cache_key = (leaf.ref.table, alias, local, wanted, include_rid)
        shared = self.optimizer._leaf_plan_cache.get(cache_key)
        if shared is not None:
            self.optimizer.stats.view_plans_reused += 1
            return shared

        table = self.catalog.table(leaf.ref.table)
        column_types = {column.name: column.dtype for column in table.columns}
        fields = [
            Field(alias, name, column_types[name])
            for name in wanted
            if name in column_types
        ]
        if not fields and not include_rid:
            # nothing referenced: keep the narrowest column for shape
            first = table.columns[0]
            fields = [Field(alias, first.name, first.dtype)]

        plans: List[PlanNode] = []
        heap = ScanNode(
            leaf.ref.table,
            alias,
            fields,
            filters=local,
            include_rid=include_rid,
        )
        self.model.annotate(heap)
        plans.append(heap)

        # Index equality access paths from ``col = literal`` and
        # ``col = $n`` predicates; a parameter rides in ``index_values``
        # until EXECUTE binds it.
        info = self.catalog.info(leaf.ref.table)
        for predicate in local:
            constant = comparison_with_literal(
                predicate
            ) or comparison_with_parameter(predicate)
            if constant is None or constant[1] != "=":
                continue
            (_, column_name), _, value = constant
            for index in info.indexes.values():
                if index.column_names[0] != column_name:
                    continue
                if len(index.column_names) != 1:
                    continue
                remaining = tuple(p for p in local if p is not predicate)
                scan = ScanNode(
                    leaf.ref.table,
                    alias,
                    fields,
                    filters=remaining,
                    include_rid=include_rid,
                    index_name=index.name,
                    index_values=(value,),
                )
                self.model.annotate(scan)
                plans.append(scan)
        self.optimizer._leaf_plan_cache[cache_key] = plans
        return plans

    # ------------------------------------------------------------------
    # Predicates / connectivity
    # ------------------------------------------------------------------

    def _split_predicates(
        self, left_mask: int, right_bit: int, right_alias: str
    ) -> List[_SplitStep]:
        """Classify every predicate for the join (left_mask ⋈
        right_alias), memoized per (subset, alias) — the classification
        depends only on the masks, never on the physical plans."""
        key = (left_mask, right_bit)
        cached = self._split_cache.get(key)
        if cached is not None:
            self.optimizer.stats.predicate_split_cache_hits += 1
            return cached

        subset = left_mask | right_bit
        steps: List[_SplitStep] = []
        for predicate, mask in self._pred_info:
            if mask is None or mask == 0 or mask == right_bit:
                continue
            if not (mask & right_bit) or mask & ~subset:
                continue
            sides = equijoin_sides(predicate)
            if sides is not None:
                left_key, right_key = sides
                if right_key[0] != right_alias:
                    left_key, right_key = right_key, left_key
                left_alias_bit = (
                    self.graph.mask_of_alias.get(left_key[0])
                    if left_key[0] is not None
                    else None
                )
                if (
                    right_key[0] == right_alias
                    and left_alias_bit is not None
                    and left_alias_bit & left_mask
                ):
                    steps.append(("equi", left_key, right_key, predicate))
                    continue
            steps.append(("res", None, None, predicate))
        self._split_cache[key] = steps
        return steps

    def join_predicates(
        self,
        left_plan: PlanNode,
        left_mask: int,
        right_plan: PlanNode,
        right_alias: str,
        right_bit: int,
    ) -> Tuple[
        List[Tuple[FieldKey, FieldKey]], List[Expression]
    ]:
        equi: List[Tuple[FieldKey, FieldKey]] = []
        residuals: List[Expression] = []
        for kind, left_key, right_key, predicate in self._split_predicates(
            left_mask, right_bit, right_alias
        ):
            if (
                kind == "equi"
                and left_plan.schema.has(*left_key)
                and right_plan.schema.has(*right_key)
            ):
                equi.append((left_key, right_key))
            else:
                residuals.append(predicate)
        return equi, residuals

    def pending_columns(self, subset_mask: int) -> FrozenSet[FieldKey]:
        """Columns of predicates not yet fully applicable within
        *subset_mask* — they must survive projections. Memoized."""
        cached = self._pending_cache.get(subset_mask)
        if cached is not None:
            return cached
        pending: Set[FieldKey] = set()
        for predicate, mask in self._pred_info:
            if mask is None or mask & ~subset_mask:
                pending |= set(predicate.columns())
        result = frozenset(pending)
        self._pending_cache[subset_mask] = result
        return result

    def join_output(
        self,
        left_plan: PlanNode,
        right_plan: PlanNode,
        subset_mask: int,
        kind: str,
    ) -> Tuple[Tuple[FieldKey, ...], RowSchema]:
        """The projection list and output schema of joining the two
        plans into *subset_mask*: the columns an ancestor still
        references. A semi / anti join outputs left columns only."""
        keep = self.top_needed | self.pending_columns(subset_mask)
        left_fields = left_plan.schema.fields
        combined = left_fields + right_plan.schema.fields
        kept: List[Field] = []
        dropped = 0
        for field in combined:
            if field.alias is None or field.key in keep:
                kept.append(field)
            elif field.key in self.needed:
                dropped += 1
        if not kept:
            kept = [combined[0]]
        self.optimizer.stats.projection_columns_pruned += dropped
        if kind in ("semi", "anti"):
            left_set = set(left_fields)
            kept = [field for field in kept if field in left_set]
        return tuple(field.key for field in kept), RowSchema(kept)

    # ------------------------------------------------------------------
    # Index nested-loop support
    # ------------------------------------------------------------------

    def inlj_access(
        self,
        right_plan: PlanNode,
        equi: List[Tuple[FieldKey, FieldKey]],
    ) -> Optional[Tuple[str, List[Tuple[FieldKey, FieldKey]]]]:
        """``(index name, equi keys in index-column order)`` for an index
        NLJ into *right_plan*: a plain scan with an index whose columns
        the equi keys cover; else ``None``."""
        if not isinstance(right_plan, ScanNode) or right_plan.index_name:
            return None
        info = self.catalog.info(right_plan.table_name)
        by_column = {right[1]: (left, right) for left, right in equi}
        for index in info.indexes.values():
            if all(map(by_column.__contains__, index.column_names)):
                return index.name, [
                    by_column[column] for column in index.column_names
                ]
        return None

    # ------------------------------------------------------------------
    # Early grouping (eager aggregation)
    # ------------------------------------------------------------------

    def _eager_keep(self, subset_mask: int) -> Set[FieldKey]:
        """Columns an eager group-by over *subset_mask* must keep as
        grouping keys: everything still needed above this point —
        pending predicate columns (which cover the border join keys),
        the final grouping columns, output columns, and any columns
        shared finalizations ask for, less ``eager_exclude``."""
        keep = set(self.extra_needed)
        keep -= self.eager_exclude
        keep |= self.pending_columns(subset_mask)
        if self.spec is not None:
            keep |= set(self.spec.group_keys)
        for _, source in self.select:
            keep |= {key for key in source.columns() if key[0] is not None}
        return keep

    def _eager_shrinks(self, plan: PlanNode, keys: List[FieldKey]) -> bool:
        """NDV prescreen over PR 5 statistics: generate the eager
        alternative only when the estimated partial-group count actually
        collapses the input. Skipping is safe — the lazy plan is always
        retained — so unknown statistics (reduction 1.0) mean skip."""
        props = plan.props
        if props is None:
            return True
        groups, reduction = self.model.estimator.partial_group_rows(
            props.rows, tuple(keys), props.colmeta
        )
        return groups > 0 and reduction >= 1.05

    def early_group(
        self,
        plan: PlanNode,
        subset_mask: int,
        already_grouped: bool,
    ) -> Optional[PlanNode]:
        """Wrap *plan* in an early (partial) group-by, or None when no
        sound grouping keys exist (or, under retention, when the
        statistics estimate no collapse)."""
        assert self.decomposed is not None
        keys = eager_group_keys(
            plan.schema, self._eager_keep(subset_mask)
        )
        if not keys:
            return None
        aggregates = partial_aggregates(
            self.decomposed, plan.schema, already_grouped
        )
        if aggregates is None:
            return None
        if self.retain and not self._eager_shrinks(plan, keys):
            return None
        return self._eager_node(plan, keys, aggregates, "partial")

    def carry_group(
        self, plan: PlanNode, subset_mask: int
    ) -> Optional[PlanNode]:
        """Collapse *plan* to one row per live-column combination plus
        a ``__cnt = COUNT(*)`` carry, or None when unsound (no grouping
        keys, or the schema already holds alias-``None`` columns whose
        multiplicity a collapse would destroy) or when the statistics
        estimate no collapse."""
        for field in plan.schema:
            if field.alias is None:
                return None
        keys = eager_group_keys(
            plan.schema, self._eager_keep(subset_mask)
        )
        if not keys:
            return None
        if not self._eager_shrinks(plan, keys):
            return None
        return self._eager_node(plan, keys, carry_aggregates(), "carry")

    def _eager_node(
        self,
        plan: PlanNode,
        keys: List[FieldKey],
        aggregates: Tuple[Tuple[str, AggregateCall], ...],
        eager: str,
    ) -> PlanNode:
        """An annotated eager group-by over *plan*: sort-based when
        *plan* already arrives ordered on *keys*, hash-based otherwise."""
        group = GroupByNode(
            plan,
            group_keys=keys,
            aggregates=aggregates,
            method="sort" if _ordered_on(plan, keys) else "hash",
            eager=eager,
        )
        self.model.annotate(group)
        self.group_formed(group)
        return group

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def final_plans(
        self,
        plan: PlanNode,
        undo: Optional[Callable[[DecomposedAggregates], Aggregates]],
        spec: Optional[GroupingSpec] = None,
        select: Optional[Tuple[Tuple[str, Expression], ...]] = None,
    ) -> List[PlanNode]:
        """Finalize one DP entry's plan: attach the post-join filter
        (:meth:`_apply_post_stage`), the final group-by (per
        *spec*, defaulting to the block's own) and the output projection
        (:meth:`_project`).
        *undo* is the entry's ``FINALIZATION`` row: ``None`` for a lazy
        plan, else the aggregates that merge its eager state."""
        plan = self._apply_post_stage(plan)
        if spec is None:
            spec = self.spec
        if select is None:
            select = self.select
        if spec is None:
            if undo is not None:
                raise PlanError(
                    "an eagerly aggregated plan cannot finalize "
                    "without a spec"
                )
            return [self._project(plan, select)]

        eager_marker: Optional[str] = None
        if undo is not None:
            assert self.decomposed is not None
            eager_marker = "merge"
            aggregates = undo(self.decomposed)
            finalize = self.decomposed.finalize_substitution()
            having = tuple(p.substitute(finalize) for p in spec.having)
            select = tuple(
                (name, source.substitute(finalize))
                for name, source in select
            )
        else:
            aggregates = spec.aggregates
            having = spec.having

        results: List[PlanNode] = []
        keys = list(spec.group_keys)
        methods = ["hash"]
        if self.ordered and _ordered_on(plan, keys):
            methods.append("sort")
        for method in methods:
            group = GroupByNode(
                plan,
                group_keys=keys,
                aggregates=aggregates,
                having=having,
                method=method,
                eager=eager_marker,
            )
            self.model.annotate(group)
            self.group_formed(group)
            results.append(self._project(group, select))
        return results

    def _apply_post_stage(self, plan: PlanNode) -> PlanNode:
        """The post-join filter: WHERE conjuncts over LEFT-unit columns
        (which must see the NULL-padded rows, never act as match
        conditions). Runs between the joins and the final group-by."""
        if self.post_predicates:
            filter_node = FilterNode(plan, self.post_predicates)
            self.model.annotate(filter_node)
            plan = filter_node
        return plan

    def _project(
        self,
        plan: PlanNode,
        select: Tuple[Tuple[str, Expression], ...],
    ) -> PlanNode:
        """The output projection, under the block's conjuncts that read
        no column (``constant_predicates``)."""
        project = ProjectNode(
            plan, [(None, name, source) for name, source in select]
        )
        self.model.annotate(project)
        if not self.constant_predicates:
            return project
        constant = FilterNode(project, self.constant_predicates)
        self.model.annotate(constant)
        return constant

    # ------------------------------------------------------------------
    # Order bookkeeping
    # ------------------------------------------------------------------

    def useful_order(
        self, order: Tuple[FieldKey, ...]
    ) -> Tuple[FieldKey, ...]:
        useful: List[FieldKey] = []
        for key in order:
            if key in self.interesting:
                useful.append(key)
            else:
                break
        return tuple(useful)


# ----------------------------------------------------------------------
# The extension protocol: one generator per DP alternative
# ----------------------------------------------------------------------

# The eager state of a DP entry: what its plan already did that the
# final group-by must undo. A *partial* plan computed the decomposed
# partial aggregates below a join; a *carry* plan pre-collapsed one
# side's duplicates into a ``__cnt`` count. A plan carries at most one
# carry and a carry-bearing plan is never re-grouped into partials, so
# these four states are all there are.
LAZY, PARTIAL, CARRY = "lazy", "partial", "carry"
PARTIAL_CARRY = "partial+carry"

Aggregates = Tuple[Tuple[str, AggregateCall], ...]


class Extension(NamedTuple):
    """One DP alternative. ``moves`` maps, for each side the generator
    may group, every left-entry state it accepts to the state of the
    join it yields (the plain join groups no side: its state is its left
    input's). ``generate(context, left entry, left mask, right plan,
    right bit)`` yields the ``(left input, right input, state)``
    triples the core costs."""

    moves: Tuple[Dict[str, str], ...]
    generate: Callable[..., Iterable[Tuple[PlanNode, PlanNode, str]]]


def _lazy(context, left, left_mask, right_plan, right_bit):
    """Plan (1) of Section 5.2: the plain join."""
    return ((left.plan, right_plan, left.state),)


_PARTIAL_LEFT = {LAZY: PARTIAL, PARTIAL: PARTIAL}
_PARTIAL_RIGHT = {LAZY: PARTIAL, CARRY: PARTIAL_CARRY}


def _partial(context, left, left_mask, right_plan, right_bit):
    """Plan (2) of Section 5.2: an early (partial) group-by on the side
    holding every aggregate argument — one-sided, per the paper; the
    prefix when no aggregate has an argument. A carry-bearing left is
    never partial-grouped: its rows stand for collapsed duplicates, and
    unweighted partials would ignore the multiplicity (the carry is only
    ever consumed at finalization)."""
    mask = context.agg_arg_mask
    if mask is None:
        return
    on_left = not mask & ~left_mask
    if not on_left and mask & ~right_bit:
        return
    state = (_PARTIAL_LEFT if on_left else _PARTIAL_RIGHT).get(left.state)
    if state is None:
        return
    stats = context.optimizer.stats
    stats.early_groupby_considered += 1
    if context.retain:
        stats.eager_alternatives_considered += 1
    if on_left:
        early = context.early_group(
            left.plan, left_mask, left.state == PARTIAL
        )
        if early is not None:
            yield early, right_plan, state
    else:
        early = context.early_group(right_plan, right_bit, False)
        if early is not None:
            yield left.plan, early, state


_CARRY_RIGHT = {LAZY: CARRY, PARTIAL: PARTIAL_CARRY}
_CARRY_LEFT = {LAZY: CARRY}


def _carry(context, left, left_mask, right_plan, right_bit):
    """COUNT-carry pre-collapse (beyond the paper; *Partial Partial
    Aggregates*): collapse a side that holds *no* aggregate argument to
    one row per live-column combination plus ``__cnt = COUNT(*)``; the
    final group-by restores multiplicity by weighting the
    duplicate-sensitive aggregates. At most one carry per plan, and only
    a plain (never grouped or carry-bearing) left is collapsed — those
    rules keep all weighting out of the DP interior."""
    mask = context.agg_arg_mask
    if not mask:
        return
    stats = context.optimizer.stats
    state = _CARRY_RIGHT.get(left.state)
    if state is not None and not mask & right_bit:
        stats.eager_alternatives_considered += 1
        collapsed = context.carry_group(right_plan, right_bit)
        if collapsed is not None:
            yield left.plan, collapsed, state
    state = _CARRY_LEFT.get(left.state)
    if state is not None and not mask & left_mask:
        stats.eager_alternatives_considered += 1
        collapsed = context.carry_group(left.plan, left_mask)
        if collapsed is not None:
            yield collapsed, right_plan, state


EXTENSIONS: Dict[str, Extension] = {
    "lazy": Extension((), _lazy),
    "partial": Extension((_PARTIAL_LEFT, _PARTIAL_RIGHT), _partial),
    "carry": Extension((_CARRY_RIGHT, _CARRY_LEFT), _carry),
}
"""Every alternative the DP considers when it joins one more leaf onto
an entry. A new alternative is one generator here, a ``FINALIZATION``
row per new state it produces, and its name in ``POLICIES``."""

POLICIES: Dict[str, Tuple[str, ...]] = {
    "off": ("lazy",),
    "greedy": ("lazy", "partial"),
    "eager": ("lazy", "partial", "carry"),
}
"""The generators of each ``OptimizerOptions.early_grouping`` value, in
costing order (of equal-cost plans the first wins). ``_extend`` holds
the first two shapes to the §5.2 verdict."""

FINALIZATION: Dict[
    str, Optional[Callable[[DecomposedAggregates], Aggregates]]
] = {
    LAZY: None,  # nothing to undo: the block's own aggregates
    PARTIAL: attrgetter("coalescers"),  # coalesce the partials
    # the arguments are still raw rows: partials weighted by the carry
    CARRY: weighted_partials,
    # partials on one side, a carry on another: carry-weighted SUMs
    PARTIAL_CARRY: weighted_coalescers,
}
"""The aggregates the final group-by (``final_plans``) merges each
state with."""
