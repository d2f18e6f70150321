"""Metric names, units, directions and bounds — and how each is computed
from a measured cycle. ``BENCHMARK.json`` must list exactly these
(``selftest`` checks it)."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

import harness
import workloads
from harness import Block, Cycle

END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    # name, unit, better, bound (share of the parent's median)
    ("pass_p50_ms", "ms", "lower", 0.15),
    ("pass_p90_ms", "ms", "lower", 0.20),
    ("stmts_per_s", "1/s", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("page_io_per_pass", "pages", "lower", 0.02),
)

_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sql.lex_ms", "ms", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.bind_ms", "ms", "lower"),
    ("sql.tokens", "count", "lower"),
    ("transforms.decorrelate_ms", "ms", "lower"),
    ("transforms.decorrelated_share", "ratio", "higher"),
    ("optimizer.search_ms", "ms", "lower"),
    ("optimizer.prune_ms", "ms", "lower"),
    ("optimizer.calls", "count", "lower"),
    ("optimizer.subsets_expanded", "count", "lower"),
    ("optimizer.joinplan_calls", "count", "lower"),
    ("optimizer.plans_retained", "count", "lower"),
    ("optimizer.plans_pruned", "count", "higher"),
    ("optimizer.pullup_sets_enumerated", "count", "lower"),
    ("optimizer.eager_considered", "count", "lower"),
    ("optimizer.eager_adopted", "count", "higher"),
    ("cost.est_over_exec_io", "ratio", "lower"),
    ("cost.q_error_p50", "ratio", "lower"),
    ("stats.analyze_ms", "ms", "lower"),
    ("stats.reanalyze_count", "count", "lower"),
    ("stats.reanalyze_ms", "ms", "lower"),
    ("storage.load_ms", "ms", "lower"),
    ("storage.index_ms", "ms", "lower"),
    ("storage.snapshot_ms", "ms", "lower"),
    ("storage.insert_ms", "ms", "lower"),
    ("storage.page_reads", "pages", "lower"),
    ("storage.page_writes", "pages", "lower"),
    ("storage.spill_pages", "pages", "lower"),
    ("engine.exec_ms", "ms", "lower"),
    ("engine.scan_ms", "ms", "lower"),
    ("engine.join_ms", "ms", "lower"),
    ("engine.groupby_ms", "ms", "lower"),
    ("engine.other_ms", "ms", "lower"),
    ("engine.rows_out", "rows", "lower"),
    ("engine.cells", "cells", "lower"),
    ("engine.rows_per_s", "1/s", "higher"),
    ("views.match_ms", "ms", "lower"),
    ("views.refresh_ms", "ms", "lower"),
    ("views.refreshes", "count", "lower"),
    ("views.incremental_share", "ratio", "higher"),
    ("views.rewrites_adopted", "count", "higher"),
    ("server.signature_ms", "ms", "lower"),
    ("server.clone_ms", "ms", "lower"),
    ("server.session_self_ms", "ms", "lower"),
    ("server.plancache_hit_share", "ratio", "higher"),
    ("server.plancache_invalidations", "count", "lower"),
    ("server.plancache_evictions", "count", "lower"),
    ("server.prepared_replans", "count", "lower"),
    ("server.wire_ms", "ms", "lower"),
    ("server.wire_bytes", "bytes", "lower"),
)

_HARNESS_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("harness.calib_ms", "ms", "lower"),
    ("harness.raw_pass_p50_ms", "ms", "lower"),
    ("harness.block_spread", "ratio", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.hooks_missing", "count", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    _LAYER_METRICS
    + tuple(
        (f"shape.{name}.p50_ms", "ms", "lower")
        for name in workloads.all_shape_names()
    )
    + _HARNESS_METRICS
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _with_units(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }


# ----------------------------------------------------------------------
# End to end (untraced run)
# ----------------------------------------------------------------------


def end_to_end(cycle: Cycle) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(metrics for the result line, raw values for the detail line)."""
    summary = harness.median_over_blocks(cycle.blocks)
    report = cycle.report
    page_io = report.get("page_io_per_pass", cycle.page_io / cycle.passes)
    values = {
        "pass_p50_ms": summary["pass_p50_ms"],
        "pass_p90_ms": summary["pass_p90_ms"],
        "stmts_per_s": summary["stmts_per_s"],
        "setup_s": statistics.median(cycle.setup_s),
        "peak_rss_mb": report["peak_rss_mb"],
        "page_io_per_pass": page_io,
    }
    detail = {
        "raw": {
            key: summary[key]
            for key in (
                "raw_pass_p50_ms",
                "raw_pass_p90_ms",
                "raw_stmts_per_s",
                "calib_ms",
                "factor",
            )
        },
        "block_pass_p50_ms": [b.summary()["pass_p50_ms"] for b in cycle.blocks],
        "setup_samples_s": cycle.setup_s,
        "failed_share": len(cycle.failures) / cycle.attempted,
        "plan_cache": report["plan_cache"],
    }
    return _with_units(values), detail


# ----------------------------------------------------------------------
# Per layer (traced run)
# ----------------------------------------------------------------------


class _TracedBlock:
    """One traced block: the tracer's per-statement rows summed, then
    scaled to calibrated milliseconds (times) or counts per pass."""

    def __init__(self, block: Block, rows: List[Dict[str, float]]) -> None:
        self.block = block
        self.passes = len(block.pass_s)
        first = block.first_statement
        self.rows = rows[first:first + block.statements]
        self.sums: Dict[str, float] = {}
        self.prepared_replans = 0
        for row in self.rows:
            for key, value in row.items():
                self.sums[key] = self.sums.get(key, 0.0) + value
            if row.get("prepared.executions") and row.get("optimizer.calls"):
                self.prepared_replans += 1
        self.to_ms = 1000.0 * block.factor / self.passes

    def ms(self, key: str) -> float:
        return self.sums.get(key, 0.0) * self.to_ms

    def count(self, key: str) -> float:
        return self.sums.get(key, 0.0) / self.passes

    def share(self, part: str, *whole: str) -> float:
        total = sum(self.sums.get(key, 0.0) for key in whole)
        return self.sums.get(part, 0.0) / total if total else 0.0

    def est_over_exec_io(self) -> float:
        estimated: Dict[str, float] = {}
        executed: Dict[str, float] = {}
        for shape, row in zip(self.block.shapes, self.rows):
            if row.get("cost.executed_io"):
                estimated[shape] = estimated.get(shape, 0.0) + row["cost.estimated"]
                executed[shape] = executed.get(shape, 0.0) + row["cost.executed_io"]
        return harness.geomean(
            [estimated[shape] / executed[shape] for shape in executed]
        )

    def values(self, served: bool) -> Dict[str, float]:
        ms, count = self.ms, self.count
        pass_ms = sum(self.block.pass_s) * self.to_ms
        exec_ms = ms("engine.exec")
        scan, join, groupby = (
            ms("engine.scan_s"), ms("engine.join_s"), ms("engine.groupby_s")
        )
        out = {
            "sql.lex_ms": ms("sql.lex"),
            "sql.parse_ms": ms("sql.parse"),
            "sql.bind_ms": ms("sql.bind"),
            "sql.tokens": count("sql.tokens"),
            "transforms.decorrelate_ms": ms("transforms.decorrelate"),
            "transforms.decorrelated_share": self.share(
                "search.decorrelation_adopted", "search.decorrelation_considered"
            ),
            "optimizer.search_ms": ms("optimizer.search"),
            "optimizer.prune_ms": ms("optimizer.prune"),
            "optimizer.calls": count("optimizer.calls"),
            "optimizer.subsets_expanded": count("search.subsets_expanded"),
            "optimizer.joinplan_calls": count("search.joinplan_calls"),
            "optimizer.plans_retained": count("search.plans_retained"),
            "optimizer.plans_pruned": count("search.plans_pruned"),
            "optimizer.pullup_sets_enumerated": count(
                "search.pullup_sets_enumerated"
            ),
            "optimizer.eager_considered": count(
                "search.eager_alternatives_considered"
            ),
            "optimizer.eager_adopted": count("search.eager_alternatives_adopted"),
            "cost.est_over_exec_io": self.est_over_exec_io(),
            "stats.reanalyze_count": count("stats.analyze_calls"),
            "stats.reanalyze_ms": ms("stats.analyze"),
            "storage.snapshot_ms": ms("storage.snapshot"),
            "storage.insert_ms": ms("storage.insert"),
            "storage.page_reads": count("storage.page_reads"),
            "storage.page_writes": count("storage.page_writes"),
            "storage.spill_pages": count("storage.spill_pages"),
            "engine.exec_ms": exec_ms,
            "engine.scan_ms": scan,
            "engine.join_ms": join,
            "engine.groupby_ms": groupby,
            "engine.other_ms": exec_ms - scan - join - groupby,
            "engine.rows_out": count("engine.rows_out"),
            "engine.cells": count("engine.cells"),
            "engine.rows_per_s": (
                count("engine.rows_out") / (exec_ms / 1000.0) if exec_ms else 0.0
            ),
            "views.match_ms": ms("views.match"),
            "views.refresh_ms": ms("views.refresh") + ms("views.stale_scan"),
            "views.refreshes": count("views.refreshes"),
            "views.incremental_share": self.share(
                "views.incremental", "views.refreshes"
            ),
            "views.rewrites_adopted": count("search.view_rewrites_adopted"),
            "server.signature_ms": ms("server.signature"),
            "server.clone_ms": ms("server.clone"),
            "server.session_self_ms": ms("server.session"),
            "server.plancache_hit_share": self.share(
                "plancache.hit", "plancache.hit", "plancache.miss"
            ),
            "server.plancache_invalidations": count("plancache.invalidations"),
            "server.plancache_evictions": count("plancache.evictions"),
            "server.prepared_replans": self.prepared_replans / self.passes,
            "server.wire_ms": (
                pass_ms - ms("server.session.incl") if served else 0.0
            ),
            "server.wire_bytes": self.block.wire_bytes / self.passes,
            "harness.unattributed_share": ms("server.session") / pass_ms,
        }
        for shape, samples in self.block.statement_s.items():
            out[f"shape.{shape}.p50_ms"] = (
                statistics.median(samples) * 1000.0 * self.block.factor
            )
        return out


def per_layer(
    workload: workloads.Workload, reference: Cycle, traced: Cycle
) -> Dict[str, Any]:
    """Every per-layer metric: the median over the traced blocks, set-up
    spans as raw totals, harness health from both cycles."""
    trace = traced.report["trace"]
    per_block = [
        _TracedBlock(block, trace["rows"]).values(workload.served)
        for block in traced.blocks
    ]
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in per_block[0]:
        values[name] = statistics.median(v[name] for v in per_block)

    setup = trace["setup"]
    values["storage.load_ms"] = setup.get("storage.insert", 0.0) * 1000.0
    values["storage.index_ms"] = setup.get("storage.index", 0.0) * 1000.0
    values["stats.analyze_ms"] = setup.get("stats.analyze", 0.0) * 1000.0
    q_errors = [r["cost.q_error"] for r in trace["rows"] if "cost.q_error" in r]
    values["cost.q_error_p50"] = statistics.median(q_errors) if q_errors else 0.0

    summary = harness.median_over_blocks(traced.blocks)
    p50s = [block.summary()["pass_p50_ms"] for block in traced.blocks]
    untraced_p50 = harness.median_over_blocks(reference.blocks)["pass_p50_ms"]
    values["harness.calib_ms"] = summary["calib_ms"]
    values["harness.raw_pass_p50_ms"] = summary["raw_pass_p50_ms"]
    values["harness.block_spread"] = (max(p50s) - min(p50s)) / summary["pass_p50_ms"]
    values["harness.trace_overhead_share"] = (
        summary["pass_p50_ms"] / untraced_p50 - 1.0
    )
    values["harness.hooks_missing"] = float(len(trace["missing"]))
    return _with_units(values)
