"""Search-effort accounting.

The paper's [CS94] claim — "very moderate increase in search space while
often producing significantly better plans" — is about enumeration
effort, so every optimizer records it (experiment E7). Besides raw
enumeration counters, the stats carry the bitset enumerator's savings
(``connected_subsets_skipped``, ``predicate_split_cache_hits``) and
per-phase wall-clock timings, so speedups are observable rather than
asserted."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict


@dataclass
class SearchStats:
    """Counters accumulated across one optimization."""

    subsets_expanded: int = 0
    joinplan_calls: int = 0
    """Physical join alternatives costed (one per method per pair).
    Like ``plans_retained``, ``blocks_optimized`` and
    ``view_rewrites_considered`` it counts the traditional baseline's
    outer block only when that was searched (``baseline_searches``)."""
    joins_materialized: int = 0
    """Join nodes actually built: the DP costs every alternative as a
    light candidate and builds a node only for the ones pruning
    retains."""
    plans_retained: int = 0
    plans_pruned: int = 0
    early_groupby_considered: int = 0
    early_groupby_accepted: int = 0
    pullup_sets_enumerated: int = 0
    combinations_enumerated: int = 0
    combinations_truncated: int = 0
    blocks_optimized: int = 0
    view_plans_reused: int = 0
    connected_subsets_skipped: int = 0
    """Subsets the bitset enumerator never materialized because they are
    disconnected in the join graph (the seed enumerator visited all of
    them)."""
    predicate_split_cache_hits: int = 0
    """Joins whose per-(subset, alias) predicate classification was
    served from the memo instead of re-scanning every predicate."""
    view_rewrites_considered: int = 0
    """Materialized-view rewrites that matched a block (legal answers
    from a backing table) and were costed as alternative plans."""
    view_rewrites_adopted: int = 0
    """Blocks whose final plan reads a materialized view's backing
    table because it costed cheaper than the computed plan."""
    projection_columns_pruned: int = 0
    """Columns dropped from join projections by the column-lifetime
    analysis — columns the pre-pruning optimizer would have carried
    upward (they appear in some already-applied predicate) but which no
    ancestor operator references."""
    plans_repruned: int = 0
    """Final plans narrowed by the post-DP :func:`prune_plan` pass
    (view boundaries and hand-built shapes the block DP cannot see)."""
    eager_alternatives_considered: int = 0
    """Eager partial-aggregation alternatives (partial group-bys and
    COUNT-carry pre-collapses) generated and costed alongside the lazy
    plan during DP extension."""
    eager_alternatives_adopted: int = 0
    """Finalized block plans whose winning DP entry carried eager
    partial-aggregation state (grouped and/or carry)."""
    decorrelation_considered: int = 0
    """WHERE-clause subquery specs inspected by the decorrelation pass
    (``transforms.decorrelate``)."""
    decorrelation_adopted: int = 0
    """Specs flattened into aggregate views / semi / anti / outer join
    units: every spec considered."""
    baseline_searches: int = 0
    """Outer blocks ``optimize_query`` searched a second time,
    traditionally, for the no-worse comparison (0 or 1 per call): 0
    when the traditional plan was read out of the DP table the search
    had already built."""
    ordered_searches: int = 0
    """Blocks searched with interesting-order classes, sort-merge joins
    and sort group-bys: some relation the search formed exceeded
    ``CostModel.working_pages``, so an order could save IO, or the
    objective has a CPU weight. Every other block is searched with them
    collapsed (DESIGN §6 "Orders only where they can pay")."""
    timings: Dict[str, float] = field(default_factory=dict)
    """Per-phase elapsed seconds (``leaf_plans``, ``dp``, ``finalize``)."""

    def add_time(self, phase: str, seconds: float) -> None:
        """Accumulate *seconds* of wall-clock under *phase*."""
        self.timings[phase] = self.timings.get(phase, 0.0) + seconds

    def as_dict(self) -> Dict[str, Any]:
        """Every counter by field name, timings flattened to
        ``time_<phase>_s`` keys — the CLI never hand-maintains the
        field list."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            if spec.name == "timings":
                continue
            out[spec.name] = getattr(self, spec.name)
        for phase in sorted(self.timings):
            out[f"time_{phase}_s"] = self.timings[phase]
        return out

    def summary(self) -> str:
        return (
            f"subsets={self.subsets_expanded} joinplans={self.joinplan_calls} "
            f"built={self.joins_materialized} "
            f"retained={self.plans_retained} pruned={self.plans_pruned} "
            f"earlyG={self.early_groupby_accepted}/"
            f"{self.early_groupby_considered} "
            f"pullups={self.pullup_sets_enumerated} "
            f"combos={self.combinations_enumerated}"
            + (
                f" (truncated {self.combinations_truncated})"
                if self.combinations_truncated
                else ""
            )
            + (
                f" skipped={self.connected_subsets_skipped}"
                if self.connected_subsets_skipped
                else ""
            )
            + (
                f" eager={self.eager_alternatives_adopted}/"
                f"{self.eager_alternatives_considered}"
                if self.eager_alternatives_considered
                else ""
            )
            + (
                f" decorrelated={self.decorrelation_adopted}/"
                f"{self.decorrelation_considered}"
                if self.decorrelation_considered
                else ""
            )
            + (
                f" baseline_searches={self.baseline_searches}"
                if self.baseline_searches
                else ""
            )
        )
