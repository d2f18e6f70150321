"""Differential fuzzing subsystem.

Exercises the whole stack through the SQL front door: a seeded
grammar-driven generator (:mod:`sqlgen`), a SQLite + brute-force
oracle layer for answers (:mod:`oracle`), the cost model under a run's
actual counts as the oracle for page IO (:mod:`exactio`), metamorphic
plan-space cross-checks (:mod:`metamorphic`), a delta-debugging
shrinker (:mod:`shrink`), and the fuzz loop with profiles and JSON
reporting (:mod:`runner`).
"""

from .exactio import exact_io, has_index_access
from .metamorphic import CONFIGS, CheckReport, Divergence, check_script
from .oracle import OracleError, SqliteOracle, needs_reference
from .runner import (
    PROFILES,
    FuzzConfigError,
    FuzzReport,
    load_corpus_script,
    run_fuzz,
)
from .shrink import shrink_script
from .sqlgen import GenProfile, Stmt, generate_script, render_script

__all__ = [
    "CONFIGS",
    "PROFILES",
    "CheckReport",
    "Divergence",
    "FuzzConfigError",
    "FuzzReport",
    "GenProfile",
    "OracleError",
    "SqliteOracle",
    "Stmt",
    "check_script",
    "exact_io",
    "generate_script",
    "has_index_access",
    "load_corpus_script",
    "needs_reference",
    "render_script",
    "run_fuzz",
    "shrink_script",
]
