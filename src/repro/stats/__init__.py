"""The statistics subsystem: collection, distributions, and feedback.

- :mod:`repro.stats.config` — :class:`StatsConfig` collection knobs.
- :mod:`repro.stats.collect` — ANALYZE: NULL-aware per-column
  statistics (NDV, range, null count, width, MCVs, histograms).
- :mod:`repro.stats.histogram` — equi-depth histograms.
- :mod:`repro.stats.sample` — block sampling and the Duj1 NDV
  estimator for sublinear ANALYZE on large tables.
- :mod:`repro.stats.feedback` — per-operator estimate-vs-actual
  q-error, closing the loop through ``explain(analyze=True)``.
"""

from .collect import DEFAULT_CONFIG, ColumnStats, TableStats, analyze_table
from .config import EXACT, UNIFORM, StatsConfig
from .histogram import EquiDepthHistogram, build_histogram
from .sample import estimate_ndv, sample_pages

_FEEDBACK_EXPORTS = (
    "EstimateRecord",
    "median",
    "percentile",
    "plan_estimates",
    "q_error",
)


def __getattr__(name):
    # Feedback helpers load lazily: an eager import closes the cycle
    # repro.algebra.expressions -> repro.catalog -> repro.stats ->
    # repro.stats.feedback -> repro.algebra.plan -> repro.algebra.aggregates
    # -> repro.algebra.expressions (still partially initialized).
    if name in _FEEDBACK_EXPORTS:
        from . import feedback

        return getattr(feedback, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ColumnStats",
    "DEFAULT_CONFIG",
    "EXACT",
    "EquiDepthHistogram",
    "EstimateRecord",
    "StatsConfig",
    "TableStats",
    "UNIFORM",
    "analyze_table",
    "build_histogram",
    "estimate_ndv",
    "median",
    "percentile",
    "plan_estimates",
    "q_error",
    "sample_pages",
]
