"""Tunable parameters shared by the cost model and the executor.

The executor consumes these too: spill decisions (hash tables or sorts
that exceed ``memory_pages``) are *charged* at execution time with the
same formulas the cost model uses for estimation, keeping the two IO
numbers comparable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostParams:
    """Knobs of the IO cost model.

    - ``memory_pages``: buffer pool pages available to one operator
      (block nested-loop blocking factor, sort run size, hash build
      threshold).
    - ``cpu_tuple_weight``: cost units charged per tuple an operator
      produces, on top of page IO. Zero (the default) is the paper's
      IO-only model (Section 5); a positive weight is the paper's
      "weighted combination of CPU and IO cost" adaptation. Executed
      weighted cost can be recomputed from per-node actual row counts.
    """

    memory_pages: int = 64
    cpu_tuple_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.memory_pages < 3:
            raise ValueError("memory_pages must be at least 3")
        if self.cpu_tuple_weight < 0.0:
            raise ValueError("cpu_tuple_weight must be non-negative")
