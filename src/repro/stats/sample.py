"""Block sampling and sample-based NDV estimation.

ANALYZE on a large table reads a deterministic pseudo-random subset of
its pages (block sampling: whole pages, not scattered rows, so the page
budget bounds I/O exactly) and scales what it sees. Row counts need no
estimation here — the heap knows its exact size in O(1) — so sampling
only has to recover per-column facts: distinct counts, null fraction,
and the value distribution.

NDV from a sample is the famously hard one; we use the Duj1 estimator
(Haas et al., "Sampling-based estimation of the number of distinct
values of an attribute", VLDB 1995):

    D̂ = n·d / (n − f1 + f1·n/N)

where ``n`` is the sample size, ``N`` the table size, ``d`` the sample
distinct count, and ``f1`` the number of values seen exactly once. The
intuition: singletons (f1) are the evidence of unseen values — a column
whose sampled values all repeat is probably low-cardinality, while one
full of singletons extrapolates toward N. Duj1's ratio error is
typically within a small constant factor for sample fractions ≥ ~5%,
degrading on extreme long-tail distributions; DESIGN.md §9 documents
the measured bounds on the generator workloads.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, List, Sequence

from .config import StatsConfig


def sample_pages(
    table_name: str, num_pages: int, config: StatsConfig
) -> List[int]:
    """Page numbers one sampled ANALYZE reads, sorted ascending.

    Deterministic: a pure function of (table name, page count), via
    ``crc32`` rather than ``hash()`` (which is salted per process),
    so differential replays across engine configurations and processes
    collect identical statistics.
    """
    budget = max(
        config.min_sample_pages, int(num_pages * config.sample_fraction)
    )
    if budget >= num_pages:
        return list(range(num_pages))
    rng = random.Random(zlib.crc32(table_name.encode()))
    return sorted(rng.sample(range(num_pages), budget))


def estimate_ndv(
    sample_distinct: int,
    singletons: int,
    sample_rows: int,
    total_rows: int,
) -> int:
    """Duj1 distinct-count estimate, clamped to [d, N]."""
    d, f1, n, total = sample_distinct, singletons, sample_rows, total_rows
    if n <= 0 or d <= 0:
        return 0
    if n >= total:
        return d
    denominator = n - f1 + f1 * n / total
    estimate = n * d / max(denominator, 1e-9)
    return int(min(float(total), max(float(d), estimate)) + 0.5)


def scale_count(sample_count: int, sample_rows: int, total_rows: int) -> int:
    """Linear scale-up of a per-row count (e.g. nulls) from the sample."""
    if sample_rows <= 0:
        return 0
    if sample_rows >= total_rows:
        return sample_count
    return int(sample_count * total_rows / sample_rows + 0.5)


def sampled_values(
    column: Sequence[Any],
    row_count: int,
    pages: Sequence[int],
    rows_per_page: int,
) -> List[Any]:
    """One stored column's values on the given pages of a heap whose
    first *row_count* rows are visible."""
    out: List[Any] = []
    for page in pages:
        start = page * rows_per_page
        out.extend(column[start : min(start + rows_per_page, row_count)])
    return out


__all__ = ["sample_pages", "estimate_ndv", "scale_count", "sampled_values"]
