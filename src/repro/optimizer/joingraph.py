"""Integer-bitset join graph for the DP enumerators.

The paper's Section 5 pitch is that aggregate-aware enumeration adds
only a "very moderate increase in search space" over a Selinger
optimizer — which only holds if the underlying subset enumeration is
itself lean. This module gives every enumeration loop in the optimizer
one shared, precomputed view of a block's join structure:

- each leaf alias is assigned a **bit** (in sorted-alias order, so
  ascending-bit iteration reproduces the seed enumerator's
  ``sorted(aliases)`` tie-breaking order);
- every predicate's alias set becomes a precomputed **mask**;
- a per-leaf **adjacency table** (union of the masks of predicates
  touching the leaf) supports neighbor queries in O(1);
- :meth:`JoinGraph.connected_subsets` enumerates exactly the
  *connected* subsets in ascending-size order (DPsize-style: grow each
  connected subset by adjacent leaves), so a connected n-leaf chain
  costs O(n²) DP cells instead of the 2ⁿ the seed's
  ``itertools.combinations`` walk paid.

Disconnected join graphs (cross products) keep the seed semantics:
callers detect ``component_count() > 1`` and fall back to
:meth:`all_subsets`, whose expansion applies the seed's cross-product
extension rule.

Subsets are plain Python ints, so DP-table keys hash in O(1) instead
of frozenset-of-string hashing, and subset algebra (union, remainder,
containment) is single bitwise ops.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..algebra.expressions import Expression


class JoinGraph:
    """The join structure of one block, over integer bitsets."""

    __slots__ = (
        "aliases",
        "mask_of_alias",
        "all_mask",
        "pred_masks",
        "join_pred_masks",
        "adjacency",
    )

    def __init__(
        self, aliases: Iterable[str], predicates: Iterable[Expression]
    ):
        predicates = tuple(predicates)
        # Sorted bit assignment: iterating set bits low-to-high then
        # visits aliases in the same order as ``sorted(subset)`` did in
        # the FrozenSet enumerator, keeping cost-tie winners identical.
        self.aliases: Tuple[str, ...] = tuple(sorted(aliases))
        self.mask_of_alias: Dict[str, int] = {
            alias: 1 << position
            for position, alias in enumerate(self.aliases)
        }
        self.all_mask = (1 << len(self.aliases)) - 1

        self.pred_masks: Tuple[int, ...] = tuple(
            self.mask_of(predicate.aliases()) for predicate in predicates
        )
        # Only multi-leaf predicates induce edges — and only predicates
        # fully inside the block: one referencing a foreign alias can
        # never be applied by any join here, so it connects nothing.
        self.join_pred_masks: Tuple[int, ...] = tuple(
            mask
            for mask in (
                self.strict_mask_of(predicate.aliases())
                for predicate in predicates
            )
            if mask is not None and mask.bit_count() >= 2
        )
        adjacency = [0] * len(self.aliases)
        for mask in self.join_pred_masks:
            remaining = mask
            while remaining:
                low = remaining & -remaining
                adjacency[low.bit_length() - 1] |= mask & ~low
                remaining &= remaining - 1
        self.adjacency: Tuple[int, ...] = tuple(adjacency)

    # ------------------------------------------------------------------
    # Mask algebra
    # ------------------------------------------------------------------

    def mask_of(self, aliases: Iterable[str]) -> int:
        """The bitmask of *aliases*; unknown aliases are ignored (they
        belong to other blocks and can never make a subset connected)."""
        mask_of_alias = self.mask_of_alias
        mask = 0
        for alias in aliases:
            bit = mask_of_alias.get(alias)
            if bit is not None:
                mask |= bit
        return mask

    def strict_mask_of(self, aliases: Iterable[str]) -> Optional[int]:
        """The bitmask of *aliases*, or None if any alias is foreign —
        for containment tests where dropping an alias would be unsound."""
        mask_of_alias = self.mask_of_alias
        mask = 0
        for alias in aliases:
            bit = mask_of_alias.get(alias)
            if bit is None:
                return None
            mask |= bit
        return mask

    def aliases_of(self, mask: int) -> Tuple[str, ...]:
        """The aliases of *mask*, in sorted order."""
        return tuple(self.iter_aliases(mask))

    def alias_set(self, mask: int) -> FrozenSet[str]:
        return frozenset(self.iter_aliases(mask))

    def iter_aliases(self, mask: int) -> Iterator[str]:
        """Yield aliases of *mask* low bit first (= sorted order)."""
        aliases = self.aliases
        while mask:
            low = mask & -mask
            yield aliases[low.bit_length() - 1]
            mask &= mask - 1

    def iter_bits(self, mask: int) -> Iterator[int]:
        """Yield single-bit masks of *mask*, low to high."""
        while mask:
            low = mask & -mask
            yield low
            mask &= mask - 1

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def neighbors(self, mask: int) -> int:
        """All leaves adjacent to *mask* (excluding *mask* itself)."""
        adjacency = self.adjacency
        found = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            found |= adjacency[low.bit_length() - 1]
            remaining &= remaining - 1
        return found & ~mask

    def connects(self, left_mask: int, alias_mask: int) -> bool:
        """True when some predicate joins *alias_mask* to *left_mask*
        using only leaves of ``left_mask | alias_mask`` — the exact
        connectivity test of the seed enumerator (a predicate over
        three leaves does not connect two of them on its own)."""
        scope = left_mask | alias_mask
        for mask in self.join_pred_masks:
            if mask & alias_mask and mask & left_mask and not (mask & ~scope):
                return True
        return False

    def components(self) -> List[int]:
        """Connected components of the whole graph, as masks."""
        remaining = self.all_mask
        found: List[int] = []
        while remaining:
            seed = remaining & -remaining
            component = seed
            while True:
                grown = component | (self.neighbors(component) & remaining)
                if grown == component:
                    break
                component = grown
            found.append(component)
            remaining &= ~component
        return found

    def component_count(self) -> int:
        return len(self.components())

    # ------------------------------------------------------------------
    # Subset enumeration
    # ------------------------------------------------------------------

    def connected_subsets(self) -> Iterator[int]:
        """Yield every connected subset of size ≥ 2, sizes ascending.

        DPsize-style: level k+1 is every level-k subset extended by one
        adjacent leaf, deduplicated. Within a size, subsets come out in
        ascending mask order so enumeration is deterministic.
        """
        level: List[int] = [1 << i for i in range(len(self.aliases))]
        while level:
            next_level_set = set()
            for subset in level:
                for bit in self.iter_bits(self.neighbors(subset)):
                    next_level_set.add(subset | bit)
            level = sorted(next_level_set)
            yield from level

    def all_subsets(self) -> Iterator[int]:
        """Yield every subset of size ≥ 2, sizes ascending — the seed
        enumerator's search space, used as the cross-product-capable
        fallback for disconnected graphs and as the parity reference."""
        n = len(self.aliases)
        by_size: List[List[int]] = [[] for _ in range(n + 1)]
        for mask in range(1, self.all_mask + 1):
            by_size[mask.bit_count()].append(mask)
        for size in range(2, n + 1):
            yield from by_size[size]
