"""Sets of runs: ``aa`` (is the benchmark steady?) and ``compare``
(did a change move a metric?).

A *set* is a JSON list of run records ``{"workload", "seed", "metrics",
"calib_ms", "raw_pass_p50_ms"}`` from untraced runs. ``aa`` makes two
interleaved sets — of this checkout, or with ``--other`` of this and
another checkout — and holds them to the rule the driver uses: every
spread within the metric's bound (``setup_s`` excepted), and no median
worse in the second set by more than the bound.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import metrics
import workloads

RUN_SCRIPT = pathlib.Path(__file__).resolve().parent / "run.py"

MIN_RUNS = 5
DRIFT_LIMIT = 0.10
"""Sets whose calibration-kernel medians differ by more than this ran
on what was in effect two machines."""

BOUNDS = {name: (better, bound) for name, _, better, bound in metrics.END_TO_END}
RAW = "raw_pass_p50_ms"


def spawn_run(
    workload: str,
    trace: int,
    seed: Optional[int] = None,
    seconds: Optional[float] = None,
    extra: Sequence[str] = (),
    script: pathlib.Path = RUN_SCRIPT,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run in its own process; ``(result, detail)`` from its last
    two stdout lines. Exits if the run failed or any answer was wrong."""
    command = [sys.executable, str(script), "--workload", workload]
    command += ["--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    command += list(extra)
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"error: {' '.join(command)} printed no result")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if completed.returncode != 0 or not result["correct"]:
        sys.exit(
            f"error: {workload} trace={trace}: {result['failed']} of "
            f"{result['attempted']} statements failed"
        )
    return result, detail


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(better: str, before: float, after: float) -> float:
    """By what share of *before* the metric got worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def record(result: Dict[str, Any], detail: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "workload": detail["workload"],
        "seed": detail["seed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "calib_ms": detail["raw"]["calib_ms"],
        RAW: detail["raw"][RAW],
    }


def column(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run[metric] if metric in run else run["metrics"][metric]
        for run in runs
        if run["workload"] == workload
    ]


# ----------------------------------------------------------------------
# aa
# ----------------------------------------------------------------------


def collect(
    runs: int, seed: Optional[int], other: Optional[str]
) -> Dict[str, List[Dict[str, Any]]]:
    """Two interleaved sets. Run *i* of both uses seed ``base + i``; the
    side that goes first alternates."""
    base = workloads.DEFAULT_SEED if seed is None else seed
    scripts = {
        "A": RUN_SCRIPT,
        "B": pathlib.Path(other) / "benchmarks/e2e/run.py" if other else RUN_SCRIPT,
    }
    sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
    for workload in workloads.WORKLOADS:
        for i in range(runs):
            for side in ("AB", "BA")[i % 2]:
                result, detail = spawn_run(
                    workload, 0, base + i, script=scripts[side]
                )
                sets[side].append(record(result, detail))
                print(
                    f"# {workload} run {i} set {side} seed {base + i} "
                    f"p50={result['metrics']['pass_p50_ms']['value']:.3f}ms",
                    file=sys.stderr,
                )
    return sets


def aa_rows(sets: Dict[str, List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    rows = []
    for workload in workloads.WORKLOADS:
        for metric in list(BOUNDS) + [RAW]:
            a = column(sets["A"], workload, metric)
            b = column(sets["B"], workload, metric)
            bound = BOUNDS[metric][1] if metric in BOUNDS else None
            median_a, median_b = statistics.median(a), statistics.median(b)
            row = {
                "workload": workload,
                "metric": metric,
                "median_a": median_a,
                "median_b": median_b,
                "spread_a": spread(a),
                "spread_b": spread(b),
                "disagreement": abs(median_b - median_a) / median_a,
                "bound": bound,
                "breach": False,
            }
            if bound is not None:
                too_wide = metric != "setup_s" and (
                    max(row["spread_a"], row["spread_b"]) > bound
                )
                row["breach"] = too_wide or row["disagreement"] > bound
            rows.append(row)
    return rows


def print_aa(rows: List[Dict[str, Any]]) -> None:
    print(
        f"{'workload':13s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
        f"{'IQR A':>7s} {'IQR B':>7s} {'A vs B':>7s} {'bound':>6s}"
    )
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.1%}"
        print(
            f"{row['workload']:13s} {row['metric']:18s} "
            f"{row['median_a']:12.4f} {row['median_b']:12.4f} "
            f"{row['spread_a']:7.2%} {row['spread_b']:7.2%} "
            f"{row['disagreement']:7.2%} {bound:>6s}"
            + ("  BREACH" if row["breach"] else "")
        )


def aa(runs: int, seed: Optional[int], out: Optional[str], other: Optional[str]) -> int:
    if runs < MIN_RUNS:
        sys.exit(f"error: aa needs --runs >= {MIN_RUNS}")
    sets = collect(runs, seed, other)
    rows = aa_rows(sets)
    print_aa(rows)
    if out is not None:
        directory = pathlib.Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        for side, records in sets.items():
            (directory / f"{side}.json").write_text(json.dumps(records, indent=1))
    breaches = [row for row in rows if row["breach"]]
    print(f"{len(breaches)} of {len(rows)} rows breach their bound")
    return 1 if breaches else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def verdict(better: str, bound: float, a: Sequence[float], b: Sequence[float]) -> str:
    """The guide's rule. ``improved``: B wins at least nine tenths of the
    pairs (ties count for neither) and the medians are apart by more
    than A's own quartile distance. ``regressed``: B's median is worse
    by more than the bound. Otherwise ``unresolved`` when either spread
    exceeds the bound, else ``unchanged``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if worsening(better, x, y) < 0)
    first, _, third = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(median_b - median_a) > third - first
    ):
        return "improved"
    if worsening(better, median_a, median_b) > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "unchanged"


def compare_files(path_a: str, path_b: str) -> int:
    runs_a = json.loads(pathlib.Path(path_a).read_text())
    runs_b = json.loads(pathlib.Path(path_b).read_text())
    regressed = 0
    print(
        f"{'workload':13s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
        f"{'change':>8s} {'verdict':>10s}"
    )
    for workload in workloads.WORKLOADS:
        calib_a = column(runs_a, workload, "calib_ms")
        calib_b = column(runs_b, workload, "calib_ms")
        if not calib_a or not calib_b:
            continue
        drift = abs(statistics.median(calib_b) / statistics.median(calib_a) - 1.0)
        if drift > DRIFT_LIMIT:
            print(f"{workload:13s} machine drifted: calib_ms medians {drift:.1%} apart")
        for metric, (better, bound) in BOUNDS.items():
            a = column(runs_a, workload, metric)
            b = column(runs_b, workload, metric)
            outcome = verdict(better, bound, a, b)
            regressed += outcome == "regressed"
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(
                f"{workload:13s} {metric:18s} {median_a:12.4f} {median_b:12.4f} "
                f"{(median_b - median_a) / median_a:+8.2%} {outcome:>10s}"
            )
    return 1 if regressed else 0
