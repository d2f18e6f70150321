"""Optimization of canonical queries (Figure 3) — Sections 5.1–5.4.

Two entry points:

- :func:`optimize_traditional` — the two-phase baseline of Section 5.1:
  every aggregate view optimized locally (Selinger DP, group-by after
  all joins), then a linear join order over base tables and view
  results, with the outer group-by last.
- :func:`optimize_query` — the paper's algorithm:

  1. reduce each view to its minimal invariant set V′ (Section 4.1),
     moving V − V′ into the outer block (B′ = B ∪ ⋃(Vᵢ − Vᵢ′));
  2. enumerate pull-up sets Wᵢ ⊆ B′ per view — restricted to
     predicate-connected sets of size ≤ k (the paper's two search-space
     restrictions), always including ∅ and the "restore" set Vᵢ − Vᵢ′
     (which reproduces the traditional view boundary and anchors the
     no-worse guarantee);
  3. for each consistent (pairwise-disjoint) combination, build the
     pulled-up queries Φ(Vᵢ′, Wᵢ) via the pull-up transformation,
     optimize each with the greedy-conservative DP, then optimize the
     outer block over the Φ results and the remaining B′ relations;
  4. return the cheapest plan over all combinations — never worse than
     the traditional plan, which is a point of the space just searched
     (every Wᵢ = ∅, no early group-by): the outer block's DP reports it
     beside its best plan, so the baseline costs no second search
     except where ``optimize_query``'s "Guarantee" comment says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..algebra.expressions import Expression
from ..algebra.plan import LimitNode, PlanNode, RenameNode, SortNode
from ..algebra.query import AggregateView, CanonicalQuery, QueryBlock
from ..catalog.catalog import Catalog
from ..cost.params import CostParams
from ..transforms.decorrelate import decorrelate_query
from ..transforms.invariant import apply_invariant_split
from ..transforms.propagate import propagate_predicates
from ..transforms.pullup import pull_up
from ..views.matcher import match_view
from ..views.rewrite import build_rewrite_plan
from .block import BaseLeaf, BlockOptimizer, DerivedLeaf, GroupingSpec, Leaf
from .joingraph import JoinGraph
from .options import OptimizerOptions, level_options
from .pruning import prune_plan
from .stats import SearchStats

MAX_COMBINATIONS = 256
"""Cap on multi-view W-combinations (Section 5.4); hitting it is
recorded in ``SearchStats.combinations_truncated``, never silent."""


@dataclass
class OptimizationResult:
    """The chosen plan plus the search's paper-trail."""

    plan: PlanNode
    cost: float
    stats: SearchStats
    pull_choices: Dict[str, Tuple[str, ...]] = dataclass_field(
        default_factory=dict
    )
    # every enumerated combination: ({view: W}, total estimated cost)
    alternatives: List[Tuple[Dict[str, Tuple[str, ...]], float]] = (
        dataclass_field(default_factory=list)
    )
    traditional_cost: Optional[float] = None

    @property
    def improvement_over_traditional(self) -> Optional[float]:
        if self.traditional_cost is None or self.cost <= 0:
            return None
        return self.traditional_cost / self.cost


def _grouping_spec(
    block: Union[QueryBlock, CanonicalQuery]
) -> Optional[GroupingSpec]:
    """The final grouping of a view block or of the outer block."""
    if not block.is_grouped:
        return None
    return GroupingSpec(
        group_keys=tuple(ref.key for ref in block.group_by),
        aggregates=block.aggregates,
        having=block.having,
    )


def _maybe_rewrite_block(
    block: QueryBlock,
    plan: PlanNode,
    optimizer: BlockOptimizer,
    baseline: Optional[PlanNode] = None,
) -> Tuple[PlanNode, Optional[PlanNode]]:
    """Cost-based adoption of materialized-view rewrites: each legal
    match (``views.matcher``) yields an alternative backing-table plan
    for the same block (``views.rewrite``), kept only if cheaper under
    the cost model — the rewrite is an extra leaf alternative, never a
    forced substitution. *baseline*, the block's traditional plan when
    the search read one out, meets the same candidates."""
    if not optimizer.options.enable_view_rewrite:
        return plan, baseline
    best, best_baseline = plan, baseline
    for view in optimizer.catalog.materialized_views():
        match = match_view(block, view)
        if match is None:
            continue
        optimizer.stats.view_rewrites_considered += 1
        candidate = build_rewrite_plan(match, block, optimizer.model)
        if candidate.props.cost < best.props.cost:
            best = candidate
        if (
            baseline is not None
            and candidate.props.cost < best_baseline.props.cost
        ):
            best_baseline = candidate
    if best is not plan:
        optimizer.stats.view_rewrites_adopted += 1
    return best, best_baseline


def _optimize_view(
    view: AggregateView, optimizer: BlockOptimizer
) -> DerivedLeaf:
    """Optimize a view's block and expose it under the view alias."""
    block = view.block
    plan = optimizer.optimize_block(
        leaves=[BaseLeaf(ref) for ref in block.relations],
        predicates=block.predicates,
        spec=_grouping_spec(block),
        select=block.select,
    )
    return _view_leaf(view.alias, block, plan, optimizer)


def _view_leaf(
    alias: str, block: QueryBlock, plan: PlanNode, optimizer: BlockOptimizer
) -> DerivedLeaf:
    """*plan* for a view's *block* (or a cheaper materialized-view
    rewrite of it), its outputs renamed under the view *alias*."""
    plan, _ = _maybe_rewrite_block(block, plan, optimizer)
    rename = RenameNode(
        plan, [(alias, name, (None, name)) for name, _ in block.select]
    )
    optimizer.model.annotate(rename)
    return DerivedLeaf(alias=alias, plan=rename)


def _optimize_outer(
    query: CanonicalQuery,
    derived: Sequence[DerivedLeaf],
    optimizer: BlockOptimizer,
) -> Tuple[PlanNode, Optional[PlanNode]]:
    """``(plan, baseline)`` for the outer block over *derived* view
    leaves: ``BlockOptimizer.search_block``'s pair, each carried
    through view rewriting and ORDER BY / LIMIT."""
    leaves: List[Leaf] = [BaseLeaf(ref) for ref in query.base_tables]
    leaves.extend(derived)
    for unit in query.joins:
        if unit.table is not None:
            leaves.append(BaseLeaf(unit.table))
    # WHERE conjuncts over a LEFT unit's columns must see the padded
    # join output (a residual inside an outer join is a match
    # condition, not a filter): route them to the post-join stage.
    left_aliases = frozenset(
        unit.alias for unit in query.joins if unit.kind == "left"
    )
    post_predicates: List[Expression] = []
    dp_predicates: List[Expression] = []
    for predicate in query.predicates:
        if predicate.aliases() & left_aliases:
            post_predicates.append(predicate)
        else:
            dp_predicates.append(predicate)
    plan, baseline = optimizer.search_block(
        leaves=leaves,
        predicates=dp_predicates,
        spec=_grouping_spec(query),
        select=query.select,
        join_units=query.joins,
        post_predicates=tuple(post_predicates),
    )
    if (
        not derived
        and query.base_tables
        and query.is_grouped
        and not query.joins
    ):
        # A grouped query over base tables only is itself a candidate
        # for answering from a materialized view.
        outer_block = QueryBlock(
            relations=query.base_tables,
            predicates=query.predicates,
            group_by=query.group_by,
            aggregates=query.aggregates,
            having=query.having,
            select=query.select,
        )
        plan, baseline = _maybe_rewrite_block(
            outer_block, plan, optimizer, baseline
        )
    if baseline is not None:
        baseline = _apply_presentation(baseline, query, optimizer)
    return _apply_presentation(plan, query, optimizer), baseline


def _apply_presentation(
    plan: PlanNode, query: CanonicalQuery, optimizer: BlockOptimizer
) -> PlanNode:
    """Wrap the block plan with the query's ORDER BY / LIMIT."""
    if query.order_by:
        plan = SortNode(
            plan,
            keys=[(None, name) for name, _ in query.order_by],
            descending=[descending for _, descending in query.order_by],
        )
        optimizer.model.annotate(plan)
    if query.limit is not None:
        plan = LimitNode(plan, query.limit)
        optimizer.model.annotate(plan)
    return plan


def optimize_traditional(
    query: CanonicalQuery,
    catalog: Catalog,
    params: Optional[CostParams] = None,
    options: Optional[OptimizerOptions] = None,
) -> OptimizationResult:
    """The Section 5.1 baseline: local view optimization, then a linear
    join order treating the views as base relations, group-bys last.

    Subquery flattening and predicate propagation across blocks run
    first — the paper's premise is that traditional optimizers already
    do that much ([MFPR90, LMS94], Section 1). Every field of *options*
    that is not a transformation switch (view rewriting, …) is honored,
    so the baseline is costed under the same model as the search it is
    compared with; the transformations themselves are off by definition
    (``LEVELS["traditional"]``)."""
    options = options or OptimizerOptions()
    stats = SearchStats()
    query = decorrelate_query(query, stats)
    query = propagate_predicates(query)
    optimizer = BlockOptimizer(
        catalog, params, level_options("traditional", options), stats
    )
    derived = [_optimize_view(view, optimizer) for view in query.views]
    plan, _ = _optimize_outer(query, derived, optimizer)
    # View boundaries: the block DP optimized each view for all of its
    # declared outputs; the lifetime pass narrows them to what the
    # outer block actually consumes.
    plan = prune_plan(plan, model=optimizer.model, stats=stats)
    return OptimizationResult(
        plan=plan,
        cost=plan.props.cost,
        stats=stats,
        pull_choices={view.alias: () for view in query.views},
    )


def _same_plan(a: PlanNode, b: PlanNode) -> bool:
    """Node for node the same operator, output schema and derived
    properties (rows, width, pages, cost, order, column metadata) —
    everything a block DP reads off a leaf and ``explain`` /
    ``prune_plan`` read off a tree."""
    return a is b or (
        type(a) is type(b)
        and a.describe() == b.describe()
        and a.schema == b.schema
        and a.props == b.props
        and all(map(_same_plan, a.children, b.children))
    )


def optimize_query(
    query: CanonicalQuery,
    catalog: Catalog,
    params: Optional[CostParams] = None,
    options: Optional[OptimizerOptions] = None,
) -> OptimizationResult:
    """The full cost-based algorithm of Sections 5.3/5.4."""
    options = options or OptimizerOptions()
    stats = SearchStats()
    optimizer = BlockOptimizer(catalog, params, options, stats)

    # Step 0a: flatten subqueries into join units / grouped views (Kim-
    # style decorrelation): every subquery leaves in canonical form.
    query = decorrelate_query(query, stats)
    assert not query.subqueries, "decorrelation left a subquery behind"
    # Join units pin the outer block's shape: the invariant-split /
    # pull-up machinery assumes a pure inner-join outer block, so both
    # stay off when units are present.
    has_units = bool(query.joins)

    # Step 0b: [LMS94]-style predicate propagation (the preprocessing
    # the paper assumes of every optimizer, Section 1).
    query = propagate_predicates(query)

    # Step 1: minimal invariant sets (B' construction).
    working = query
    if options.enable_invariant_split and query.views and not has_units:
        working = apply_invariant_split(query, catalog)
    # what each view lost to the split: its "restore" pull-up set
    restore_sets = {
        reduced.alias: tuple(
            sorted(original.block.aliases - reduced.block.aliases)
        )
        for original, reduced in zip(query.views, working.views)
    }

    # Step 2: pull-up candidates per view. With join units present,
    # pulling a base table into a view would change the unit join's
    # inputs, so only the empty set is enumerated per view.
    candidates: Dict[str, List[Tuple[str, ...]]] = {}
    for view in working.views:
        sets = (
            [()]
            if has_units
            else _pullup_candidates(working, view.alias, options)
        )
        restore = restore_sets[view.alias]
        if restore and restore not in sets:
            sets.append(restore)
        candidates[view.alias] = sets
        stats.pullup_sets_enumerated += len(sets)

    # Step 3: consistent combinations. Disjointness of the pull-up
    # sets is checked over bitmasks (one bit per base table), so each
    # combination costs a couple of integer ops instead of building
    # alias sets.
    view_aliases = [view.alias for view in working.views]
    combos: List[Dict[str, Tuple[str, ...]]] = []
    truncated = 0
    if view_aliases:
        combo_graph = JoinGraph(
            (ref.alias for ref in working.base_tables), working.predicates
        )
        choice_lists = [
            [
                (pulled, combo_graph.mask_of(pulled))
                for pulled in candidates[alias]
            ]
            for alias in view_aliases
        ]
        for choice in itertools.product(*choice_lists):
            used = 0
            consistent = True
            for _, mask in choice:
                if used & mask:
                    consistent = False
                    break
                used |= mask
            if not consistent:
                continue
            if len(combos) >= MAX_COMBINATIONS:
                truncated += 1
                continue
            combos.append(
                {
                    alias: pulled
                    for alias, (pulled, _) in zip(view_aliases, choice)
                }
            )
    else:
        combos.append({})
    stats.combinations_enumerated += len(combos)
    stats.combinations_truncated += truncated

    # Step 4: cost each combination. The plan for Φ(Vᵢ′, Wᵢ) depends
    # only on (view, Wᵢ) — pulls into *other* views never change this
    # view's block — so view plans are shared across combinations, the
    # paper's "we do not need to optimize Φ(V′, W) separately". With
    # ``share_view_dp`` the sharing goes further: one DP over V′ ∪ ⋃W
    # per view serves every W (Section 5.3's construction).
    view_plan_cache: Dict[Tuple[str, Tuple[str, ...]], DerivedLeaf] = {}
    if options.share_view_dp:
        for view in working.views:
            view_plan_cache.update(
                _shared_view_plans(
                    working,
                    view.alias,
                    candidates[view.alias],
                    optimizer,
                    catalog,
                )
            )

    def view_leaf(
        view_alias: str, pulled: Tuple[str, ...], pulled_query
    ) -> DerivedLeaf:
        key = (view_alias, pulled)
        cached = view_plan_cache.get(key)
        if cached is not None:
            stats.view_plans_reused += 1
            return cached
        leaf = _optimize_view(pulled_query.view(view_alias), optimizer)
        view_plan_cache[key] = leaf
        return leaf

    best_plan: Optional[PlanNode] = None
    best_choice: Dict[str, Tuple[str, ...]] = {}
    alternatives: List[Tuple[Dict[str, Tuple[str, ...]], float]] = []
    # the traditional plan as this search found it, and its view leaves
    readout: Optional[PlanNode] = None
    readout_leaves: Sequence[DerivedLeaf] = ()
    for combo in combos:
        pulled_query = working
        for view_alias, pulled in combo.items():
            if pulled:
                pulled_query = pull_up(
                    pulled_query, view_alias, pulled, catalog
                )
        derived = [
            view_leaf(view.alias, combo.get(view.alias, ()), pulled_query)
            for view in pulled_query.views
        ]
        plan, baseline = _optimize_outer(pulled_query, derived, optimizer)
        if pulled_query is query:
            # every W is ∅ and invariant split moved no table: the
            # traditional outer block, leaf for leaf
            readout, readout_leaves = baseline, derived
        alternatives.append((combo, plan.props.cost))
        if best_plan is None or plan.props.cost < best_plan.props.cost:
            best_plan = plan
            best_choice = combo
    assert best_plan is not None

    # Narrow view boundaries *before* the traditional comparison: both
    # plans are compared post-prune, preserving the no-worse guarantee
    # under the narrowed widths.
    best_plan = prune_plan(best_plan, model=optimizer.model, stats=stats)

    # Guarantee: never worse than the traditional optimizer, whose plan
    # is a point of the space just searched. *readout* is that plan when
    # (1) invariant split moved no table, so the all-W = ∅ combination
    # plans the query's own blocks; (2) the outer DP's lazy slice is
    # exactly the traditional table (``search_block``); (3) its view
    # leaves are, plan for plan, the traditional view plans — the shared
    # view DP plans a W = ∅ leaf inside the maximal pulled block, which
    # usually but not provably yields the view's own lazy plan, so the
    # views are planned traditionally (a single-relation view has no
    # join to search) and compared. Failing any of the three, the outer
    # block is searched again, traditionally, on this search's cost
    # model and scans. Either way the baseline is pruned and compared.
    twin = optimizer.traditional_twin()
    derived = [_optimize_view(view, twin) for view in query.views]
    if readout is not None and all(
        _same_plan(ours.plan, theirs.plan)
        for ours, theirs in zip(readout_leaves, derived)
    ):
        traditional = readout
    else:
        stats.baseline_searches += 1
        traditional, _ = _optimize_outer(query, derived, twin)
    traditional = prune_plan(traditional, model=optimizer.model, stats=stats)
    traditional_cost = traditional.props.cost
    if traditional_cost < best_plan.props.cost:
        best_plan = traditional
        best_choice = {view.alias: () for view in query.views}

    return OptimizationResult(
        plan=best_plan,
        cost=best_plan.props.cost,
        stats=stats,
        pull_choices=best_choice,
        alternatives=alternatives,
        traditional_cost=traditional_cost,
    )


def _shared_view_plans(
    working: CanonicalQuery,
    view_alias: str,
    pulled_sets: Sequence[Tuple[str, ...]],
    optimizer: BlockOptimizer,
    catalog: Catalog,
) -> Dict[Tuple[str, Tuple[str, ...]], DerivedLeaf]:
    """One shared DP for all of a view's pull-up sets (Section 5.3).

    The DP runs over the *maximal* pulled block Φ(V′, ⋃W); each W's plan
    is the best retained subplan for the subset V′ ∪ W, extended with
    that W's own group-by — exactly the paper's construction.
    """
    union: Set[str] = set()
    for pulled in pulled_sets:
        union |= set(pulled)
    maximal_query = (
        pull_up(working, view_alias, sorted(union), catalog)
        if union
        else working
    )
    maximal_block = maximal_query.view(view_alias).block

    requests = []
    per_request_blocks: Dict[Tuple[str, ...], QueryBlock] = {}
    for pulled in pulled_sets:
        pulled_query = (
            pull_up(working, view_alias, pulled, catalog)
            if pulled
            else working
        )
        block = pulled_query.view(view_alias).block
        per_request_blocks[pulled] = block
        requests.append(
            (
                pulled,
                frozenset(ref.alias for ref in block.relations),
                _grouping_spec(block),
                block.select,
            )
        )

    plans = optimizer.optimize_block_shared(
        leaves=[BaseLeaf(ref) for ref in maximal_block.relations],
        predicates=maximal_block.predicates,
        base_spec=_grouping_spec(maximal_block),
        base_select=maximal_block.select,
        requests=requests,
    )
    return {
        (view_alias, pulled): _view_leaf(
            view_alias, per_request_blocks[pulled], plan, optimizer
        )
        for pulled, plan in plans.items()
    }


def _pullup_candidates(
    query: CanonicalQuery,
    view_alias: str,
    options: OptimizerOptions,
) -> List[Tuple[str, ...]]:
    """Pull-up sets W for one view: ∅ plus predicate-connected subsets
    of the base tables up to the k-level cap (Section 5.3's practical
    restrictions)."""
    sets: List[Tuple[str, ...]] = [()]
    if options.k_level == 0:
        return sets
    base_aliases = sorted(ref.alias for ref in query.base_tables)
    if not base_aliases:
        return sets

    if not options.require_shared_predicate:
        for size in range(1, min(options.k_level, len(base_aliases)) + 1):
            for combo in itertools.combinations(base_aliases, size):
                sets.append(combo)
        return sets

    # Connectivity: a candidate W must be connected to the view through
    # predicates among W ∪ {view}. The BFS runs over the bitset join
    # graph of base tables plus the view. Edges come from the
    # *tolerant* per-predicate masks — a predicate may also mention
    # other views without that stopping it from connecting base tables
    # here — and bits are assigned in sorted-alias order, so low-to-high
    # bit iteration preserves the original enumeration (and therefore
    # tie-breaking) order.
    graph = JoinGraph([*base_aliases, view_alias], query.predicates)
    base_mask = graph.mask_of(base_aliases)
    view_mask = graph.mask_of_alias[view_alias]
    edge_masks = [
        mask for mask in graph.pred_masks if mask.bit_count() >= 2
    ]

    def neighbors(core_mask: int) -> int:
        scope = core_mask | view_mask
        found = 0
        for mask in edge_masks:
            if mask & scope:
                found |= mask
        return found & base_mask & ~core_mask

    frontier: List[int] = [0]
    seen: Set[int] = {0}
    for _ in range(options.k_level):
        next_frontier: List[int] = []
        for current in frontier:
            for bit in graph.iter_bits(neighbors(current)):
                grown = current | bit
                if grown not in seen:
                    seen.add(grown)
                    sets.append(graph.aliases_of(grown))
                    next_frontier.append(grown)
        frontier = next_frontier
    return sets
