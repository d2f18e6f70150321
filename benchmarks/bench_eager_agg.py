"""Eager aggregation payoff — rows into the join on a fan-out PK-FK star.

One workload, the shape *Memory-Efficient Group-by Aggregates over
Multi-Way Joins* motivates: a fact table with heavy fan-out per join
key feeding a PK-FK join into a small dimension, grouped on a
dimension attribute with few distinct groups. The eager alternative
collapses the fact side to one partial row per join key **below** the
join, so the join processes ~keys rows instead of ~facts rows; the
merge group-by above the join coalesces and finalizes.

The same query runs twice against the same database:

- **eager** — the default optimizer, which adopts the partial
  group-by (asserted via ``SearchStats.eager_alternatives_adopted``);
- **lazy** — ``OptimizerOptions(enable_eager_aggregation=False)``,
  the exact pre-eager plan.

For each run the executed plan is walked and every join's input rows
(the actual row counts of its children) are summed. The
``--assert-reduction`` gate (CI uses 2.0) requires
``lazy_rows / eager_rows`` to meet the factor; eager-vs-lazy answer
identity is always asserted. Wall-clock and charged IO are reported
alongside, but the gate is on the row reduction — a plan-shape fact
that is stable across machines.

``make bench-eager`` writes ``BENCH_eager.json`` at the repository
root; ``make bench-eager-smoke`` (CI) runs a small configuration with
the gate asserted.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )

from reporting import machine_metadata, report_table

from repro.algebra.plan import JoinNode, PlanNode
from repro.cost.params import CostParams
from repro.db import Database
from repro.optimizer.options import OptimizerOptions

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_eager.json"
)

LAZY = OptimizerOptions(enable_eager_aggregation=False)

QUERY = (
    "SELECT d.g AS g, SUM(f.v) AS s, COUNT(*) AS c, MAX(f.v) AS m "
    "FROM fact f, dim d WHERE f.k = d.k GROUP BY d.g"
)


def build_database(facts: int, keys: int, groups: int) -> Database:
    """A high-fan-out PK-FK star: *facts* rows over *keys* join keys
    (facts/keys duplicates each), dimension mapping keys to *groups*
    group values. The weighted CPU+IO objective is what lets the
    optimizer see the fan-out collapse pay off; dyadic amounts keep
    SUM exact so answer identity is exact equality."""
    db = Database(CostParams(memory_pages=16, cpu_tuple_weight=0.01))
    db.create_table("fact", [("fno", "int"), ("k", "int"), ("v", "float")])
    db.create_table(
        "dim", [("k", "int"), ("g", "int")], primary_key=["k"]
    )
    db.insert(
        "fact",
        [(i, i % keys, (i % 37) * 0.25) for i in range(facts)],
    )
    db.insert("dim", [(k, k % groups) for k in range(keys)])
    db.analyze()
    return db


def rows_into_joins(plan: PlanNode, metrics) -> int:
    """Total executed rows entering join operators: the sum of every
    join child's actual row count (from the run's ``ExecutionMetrics``),
    over the whole plan."""
    total = 0
    if isinstance(plan, JoinNode):
        for child in plan.children:
            total += metrics.actual_rows(child) or 0
    for child in plan.children:
        total += rows_into_joins(child, metrics)
    return total


def run_mode(
    db: Database,
    options: Optional[OptimizerOptions],
    repeats: int,
) -> Dict[str, object]:
    samples: List[float] = []
    result = None
    for _ in range(repeats):
        start = perf_counter()
        result = db.query(QUERY, options=options)
        samples.append(perf_counter() - start)
    stats = db.optimize(QUERY, options=options).stats
    return {
        "rows_into_joins": rows_into_joins(result.plan, result.exec_metrics),
        "rows": sorted(tuple(row) for row in result.rows),
        "io_total": result.executed_io.total,
        "estimated_cost": result.estimated_cost,
        "mean_ms": 1000.0 * sum(samples) / len(samples),
        "best_ms": 1000.0 * min(samples),
        "eager_adopted": stats.eager_alternatives_adopted,
        "eager_considered": stats.eager_alternatives_considered,
        "explain": result.explain(analyze=True),
    }


def run_workload(
    facts: int, keys: int, groups: int, repeats: int
) -> Tuple[Dict[str, object], List[str]]:
    db = build_database(facts, keys, groups)
    eager = run_mode(db, None, repeats)
    lazy = run_mode(db, LAZY, repeats)

    failures: List[str] = []
    if eager["rows"] != lazy["rows"]:
        failures.append(
            "eager and lazy plans disagree on the answer bag: "
            f"{len(eager['rows'])} vs {len(lazy['rows'])} rows"
        )
    if not eager["eager_adopted"]:
        failures.append(
            "the optimizer did not adopt an eager alternative "
            f"(considered {eager['eager_considered']})"
        )
    if lazy["eager_considered"]:
        failures.append(
            "the lazy baseline still generated eager alternatives — "
            "enable_eager_aggregation=False is not ablating"
        )

    reduction = eager["rows_into_joins"] and (
        lazy["rows_into_joins"] / eager["rows_into_joins"]
    )
    payload = {
        "facts": facts,
        "keys": keys,
        "groups": groups,
        "fanout": facts // keys,
        "repeats": repeats,
        "rows_into_joins_eager": eager["rows_into_joins"],
        "rows_into_joins_lazy": lazy["rows_into_joins"],
        "row_reduction": reduction,
        "io_eager": eager["io_total"],
        "io_lazy": lazy["io_total"],
        "mean_ms_eager": eager["mean_ms"],
        "mean_ms_lazy": lazy["mean_ms"],
        "eager_adopted": eager["eager_adopted"],
        "eager_considered": eager["eager_considered"],
        "answer_identical": eager["rows"] == lazy["rows"],
        "explain_eager": eager["explain"],
        "explain_lazy": lazy["explain"],
    }
    return payload, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (fewer fact rows, fewer repeats)",
    )
    parser.add_argument(
        "--assert-reduction",
        type=float,
        default=None,
        metavar="X",
        help="fail unless rows entering the join shrink by at least "
        "X times under the eager plan (answer identity is always "
        "asserted)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        workload, failures = run_workload(
            facts=12_000, keys=96, groups=8, repeats=3
        )
    else:
        workload, failures = run_workload(
            facts=60_000, keys=240, groups=12, repeats=5
        )

    payload = {
        "experiment": "eager_aggregation",
        "smoke": bool(args.smoke),
        "machine": machine_metadata(),
        "query": QUERY,
        "workload": workload,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    reduction = workload["row_reduction"]
    report_table(
        "eager_aggregation",
        f"rows into the join, eager vs lazy "
        f"(fan-out {workload['fanout']}x, "
        f"{workload['groups']} groups)",
        ["mode", "rows into join", "charged IO", "mean ms"],
        [
            [
                "lazy (pushdown off)",
                workload["rows_into_joins_lazy"],
                workload["io_lazy"],
                f"{workload['mean_ms_lazy']:.2f}",
            ],
            [
                "eager (partial below join)",
                workload["rows_into_joins_eager"],
                workload["io_eager"],
                f"{workload['mean_ms_eager']:.2f}",
            ],
        ],
        notes=[
            f"row reduction {reduction:.1f}x; answers identical: "
            f"{workload['answer_identical']}; eager alternatives "
            f"adopted {workload['eager_adopted']}"
            f"/{workload['eager_considered']}",
            f"query: {QUERY}",
        ],
    )

    if args.assert_reduction is not None and (
        not reduction or reduction < args.assert_reduction
    ):
        failures.append(
            f"rows-into-join reduction {reduction:.2f}x is below the "
            f"{args.assert_reduction:.1f}x gate"
        )
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
