"""Knobs of the statistics subsystem.

How ANALYZE scans and what it builds, on a :class:`StatsConfig` the
catalog carries. The cost model always consumes what was collected.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StatsConfig:
    """How ANALYZE collects per-table statistics.

    - ``histogram_buckets``: equi-depth buckets per orderable column
      (0 disables histograms — the pure uniform-NDV baseline).
    - ``mcv_entries``: maximum most-common-value entries per column
      (0 disables MCV lists); a value qualifies only at twice the
      column's average frequency (``collect.MCV_MIN_RATIO``).
    - ``full_scan_pages``: tables at most this many pages are scanned
      exactly; beyond it ANALYZE switches to block sampling.
    - ``sample_fraction``: fraction of a large table's pages one
      sampled ANALYZE reads (the "at most a configurable fraction of
      pages" bound).
    - ``min_sample_pages``: floor on the sampled page count, so tiny
      fractions of huge tables still see enough data.
    - ``stale_growth_fraction``: re-analyze lazily only once a table
      has grown by this fraction since the last analyze; row and page
      counts are always served exactly (they are O(1) reads), so
      staleness affects only column-level statistics.
    """

    histogram_buckets: int = 32
    mcv_entries: int = 16
    full_scan_pages: int = 256
    sample_fraction: float = 0.1
    min_sample_pages: int = 64
    stale_growth_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.histogram_buckets < 0:
            raise ValueError("histogram_buckets must be non-negative")
        if self.mcv_entries < 0:
            raise ValueError("mcv_entries must be non-negative")
        if self.full_scan_pages < 1:
            raise ValueError("full_scan_pages must be positive")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.min_sample_pages < 1:
            raise ValueError("min_sample_pages must be positive")
        if self.stale_growth_fraction < 0.0:
            raise ValueError("stale_growth_fraction must be non-negative")


EXACT = StatsConfig(full_scan_pages=2**31, stale_growth_fraction=0.0)
"""Always-exact collection: full scans, refresh on any growth — the
seed's behavior, kept for tests that pin exact estimates."""

UNIFORM = StatsConfig(histogram_buckets=0, mcv_entries=0)
"""NDV-and-range-only collection: the uniform-distribution baseline
experiment E15 compares histograms against."""
