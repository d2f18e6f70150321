"""Optimizer configuration.

The defaults implement the paper's full algorithm with its two
search-space restrictions (Section 5.3, "Practical Restrictions on the
Search Space"): predicate-sharing for pull-up candidates and the k-level
pull-up cap. Every field is set by some caller outside the tests: the
optimizer levels (``LEVELS``), experiments E4/E7/E9/E10
(``benchmarks/experiments.py``) or the CLI's ``--no-view-rewrite``
(``tests/test_no_orphans.py`` checks). Pull-up is off exactly when
``k_level`` is 0 and ``early_grouping`` picks the block DP's
alternatives, so the levels differ in those two fields and in
``enable_invariant_split`` alone. Values nothing varies are module
constants beside the code that reads them (``block.MAX_PLANS_PER_SET``,
``canonical.MAX_COMBINATIONS``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..errors import ReproError


EARLY_GROUPING = ("off", "greedy", "eager")
"""The values of ``OptimizerOptions.early_grouping``."""


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the aggregate-view optimizer.

    - ``enable_invariant_split``: reduce each view to its minimal
      invariant set first (Section 4.1), freeing V − V′ for reordering.
    - ``k_level``: maximum pull-up applications per view (|W| ≤ k); the
      paper's k-level pull-up restriction. ``0`` enumerates no pull-up
      set, so views keep their (invariant-split) boundaries. The
      "restore" set V − V′ is always considered regardless, preserving
      the no-worse guarantee.
    - ``require_shared_predicate``: only pull a relation through a view
      when connected to it by a predicate (the paper's restriction).
    - ``width_guard``: the greedy conservative safety condition — accept
      an early group-by only when the result is no wider. Disabling it
      is unsound per the paper's argument and exists only for the E9
      ablation.
    """

    enable_invariant_split: bool = True
    k_level: int = 2
    require_shared_predicate: bool = True
    width_guard: bool = True
    share_view_dp: bool = True
    """Run ONE DP over V′ ∪ ⋃W per view and extract the plan for every
    pull-up set W from it (Section 5.3: "we do not need to optimize
    Φ(V′, W) separately"). Off = optimize each Φ(V′, W) independently;
    same plans, more enumeration work (the E7 sharing ablation)."""

    enable_view_rewrite: bool = True
    """Consider answering blocks from materialized aggregate views
    (Cohen & Nutt-style matching + coalescing rewrite); each rewrite is
    adopted only when cheaper under the cost model. ``--no-view-rewrite``
    in the CLI and the differential tests turn this off."""

    early_grouping: str = "eager"
    """Which alternatives the block DP generates at each extension
    (``block.POLICIES``):

    - ``"off"`` — the plain join only; group-bys after all joins.
    - ``"greedy"`` — also an early (partial) group-by on the side
      holding the aggregate arguments, kept *instead of* the plain join
      only when cheaper and no wider: the Section 5.2 greedy
      conservative heuristic.
    - ``"eager"`` — beyond the paper (*Partial Partial Aggregates*):
      the DP *retains* the plain join, the early group-by and COUNT-carry
      pre-collapses of a side without aggregate arguments as separate
      entries, and the final choice is by cost, so the no-worse
      guarantee is kept structurally (the lazy alternative always
      survives). The §5.2 verdict is still counted.

    Answers never change, only plan shapes."""

    def __post_init__(self) -> None:
        if self.k_level < 0:
            raise ValueError("k_level must be non-negative")
        if self.early_grouping not in EARLY_GROUPING:
            raise ValueError(
                f"early_grouping must be one of {EARLY_GROUPING}"
            )


LEVELS: Dict[str, Dict[str, object]] = {
    "full": {},
    "greedy": {"k_level": 0, "enable_invariant_split": False},
    "traditional": {
        "k_level": 0,
        "enable_invariant_split": False,
        "early_grouping": "off",
    },
}
"""The optimizer levels, each as the transformation switches it forces;
every other field of the caller's options passes through unchanged.

- ``"full"`` — the complete Section 5.3/5.4 algorithm (default).
- ``"greedy"`` — no pull-up or invariant split; each block's DP still
  groups early per the caller's ``early_grouping`` (Section 5.2
  push-down).
- ``"traditional"`` — the Section 5.1 baseline: every transformation
  off, group-bys after all joins.
"""


def level_options(
    level: str, options: Optional[OptimizerOptions] = None
) -> OptimizerOptions:
    """*options* (default: the defaults) with *level*'s switches forced."""
    forced = LEVELS.get(level)
    if forced is None:
        raise ReproError(
            f"unknown optimizer {level!r} (choose from {tuple(LEVELS)})"
        )
    return replace(options or OptimizerOptions(), **forced)


TRADITIONAL = level_options("traditional")
"""The Section 5.1 baseline expressed as options."""
