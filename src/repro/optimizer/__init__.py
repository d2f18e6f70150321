"""Cost-based optimizers for queries with aggregate views (Section 5).

Three optimizer levels, in increasing search-space order, each a set
of forced switches in ``options.LEVELS``:

- ``"traditional"``, :func:`optimize_traditional` — the Section 5.1
  baseline: each view optimized locally with Selinger DP (group-by
  after all joins), then the outer block the same way, views treated
  as base relations.
- ``"greedy"`` — Section 5.2, :func:`optimize_query` with pull-up
  (``k_level=0``) and invariant split off: the block DP also considers
  an early group-by at each extension. Under ``early_grouping="eager"``
  (the default) it keeps the group-by as an alternative and cost
  decides; under ``"greedy"`` the greedy conservative heuristic keeps it
  only when cheaper and no wider. Each alternative is one generator of
  ``block.EXTENSIONS``.
- ``"full"``, :func:`optimize_query` — the full Section 5.3/5.4 algorithm:
  invariant-split each view to its minimal invariant set, enumerate
  pull-up sets W per view (restricted by predicate sharing and k-level
  pull-up), optimize every Φ(V′, W) with the greedy DP, then the outer
  block, and pick the cheapest combination. Guaranteed no worse than
  the traditional plan.
"""

from .options import OptimizerOptions
from .stats import SearchStats
from .block import BlockOptimizer, GroupingSpec, BaseLeaf, DerivedLeaf
from .canonical import (
    OptimizationResult,
    optimize_query,
    optimize_traditional,
)

__all__ = [
    "OptimizerOptions",
    "SearchStats",
    "BlockOptimizer",
    "GroupingSpec",
    "BaseLeaf",
    "DerivedLeaf",
    "OptimizationResult",
    "optimize_query",
    "optimize_traditional",
]
