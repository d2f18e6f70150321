"""E12 — cost-model fidelity: estimated vs executed page IO — and the
cardinality q-error study (histograms/MCVs vs the uniform baseline).

Every cost-based claim in the paper rides on the cost model ranking
plans correctly. Two measurement families:

- **E12 (pytest)**: the model's estimates compared to executed page IO
  for whole optimized queries on uniform data — exact on filter-free
  shapes, close on filtered ones.
- **Cardinality study (standalone + pytest)**: per-operator q-error of
  join and group-by estimates on a *Zipf-skewed* star workload, with
  full statistics (MCVs + equi-depth histograms) vs the uniform
  baseline (NDV + range only). Writes ``BENCH_cardinality.json`` via
  ``make bench-card`` and asserts the acceptance bars: median join +
  group-by q-error improves >= 5x, at least one end-to-end query runs
  measurably cheaper (lower actual page reads) with histograms on, and
  sampled ANALYZE stays within its page budget and NDV error bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import pytest

from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, plan_nodes
from repro.stats import EXACT, StatsConfig, UNIFORM, median, percentile, q_error
from repro.workloads import EmpDeptConfig, build_empdept
from repro.workloads.generator import RandomQueryConfig, build_star_database
from reporting import report_table

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_cardinality.json"
)

QUERIES = [
    ("full scan", "select e.sal from emp e"),
    (
        "filter+join",
        "select e.sal, d.budget from emp e, dept d "
        "where e.dno = d.dno and e.age < 30",
    ),
    (
        "group-by",
        "select e.dno, avg(e.sal) as a from emp e group by e.dno",
    ),
    (
        "view join",
        "with v(dno, a) as (select e.dno, avg(e.sal) from emp e "
        "group by e.dno) "
        "select d.budget, v.a from dept d, v where d.dno = v.dno",
    ),
    (
        "nested subquery",
        "select e1.sal from emp e1 where e1.age < 25 and e1.sal > "
        "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
    ),
    (
        "having",
        "select e.dno, sum(e.sal) as s from emp e group by e.dno "
        "having sum(e.sal) > 100000",
    ),
]


@pytest.fixture(scope="module")
def fidelity_rows():
    db = build_empdept(
        EmpDeptConfig(
            employees=6000,
            departments=500,
            uniform_ages=True,
            memory_pages=8,
            with_indexes=False,
        )
    )
    rows = []
    for label, sql in QUERIES:
        result = db.query(sql, optimizer="full")
        estimated = result.estimated_cost
        executed = result.executed_io.total
        rows.append(
            (
                label,
                f"{estimated:.0f}",
                executed,
                f"{executed / max(estimated, 1e-9):.3f}",
            )
        )
    report_table(
        "E12",
        "Cost-model fidelity (estimated vs executed page IO)",
        ["query", "estimated", "executed", "exec/est"],
        rows,
        notes=[
            "shape: ratios ~1.0; deviations come only from cardinality "
            "estimation (uniformity), never from the IO formulas, which "
            "are shared between model and executor."
        ],
    )
    return db, rows


def test_e12_estimates_track_execution(
    fidelity_rows, benchmark, bench_rounds
):
    db, rows = fidelity_rows
    for label, estimated, executed, ratio in rows:
        assert 0.5 <= float(ratio) <= 2.0, (label, ratio)
    benchmark.pedantic(
        lambda: db.query(QUERIES[0][1], optimizer="full"),
        rounds=bench_rounds,
        iterations=1,
    )


def test_e12_exact_on_unfiltered_shapes(
    fidelity_rows, benchmark, bench_rounds
):
    db, rows = fidelity_rows
    by_label = {row[0]: row for row in rows}
    for label in ("full scan", "group-by"):
        _, estimated, executed, _ = by_label[label]
        assert abs(float(estimated) - executed) < 1.0, label
    benchmark.pedantic(
        lambda: db.query(QUERIES[2][1], optimizer="greedy"),
        rounds=bench_rounds,
        iterations=1,
    )


# ---------------------------------------------------------------------------
# Cardinality q-error study: histograms + MCVs vs the uniform baseline
# ---------------------------------------------------------------------------

FULL_STATS = StatsConfig()

#: The end-to-end plan-choice demo: on Zipf-skewed fact keys the uniform
#: baseline estimates |fact|/ndv matches for the hot key and picks the
#: unclustered index probe; MCVs reveal the true hot-key frequency and
#: the optimizer falls back to the (much cheaper) heap scan.
PLAN_PROBE_SQL = "select f.qty from fact f where f.d1_id = 0"

MIN_MEDIAN_IMPROVEMENT = 5.0
NDV_ERROR_BOUND = 3.0  # sampled NDV must land within 3x of exact


def _study_config(smoke: bool) -> RandomQueryConfig:
    if smoke:
        return RandomQueryConfig(
            seed=7, fact_rows=4000, dim_rows=200, zipf_skew=1.3
        )
    return RandomQueryConfig(
        seed=7, fact_rows=20000, dim_rows=500, zipf_skew=1.3
    )


def _skew_queries(dim_rows: int) -> List:
    """Join- and group-by-heavy queries over Zipf-skewed fact keys.

    The hot keys (0, 1, 2) are where uniform NDV division is most
    wrong; the cold key and the range shape keep both estimators
    honest on the tail."""
    cold = dim_rows - 5
    return [
        (
            "join hot d1",
            "select d.val as v, f.qty as q from fact f, dim1 d "
            "where f.d1_id = d.d1_id and f.d1_id = 0",
        ),
        (
            "join hot d2",
            "select d.val as v, f.price as p from fact f, dim2 d "
            "where f.d2_id = d.d2_id and f.d2_id = 1",
        ),
        (
            "join warm d1",
            "select d.cat as c, f.qty as q from fact f, dim1 d "
            "where f.d1_id = d.d1_id and f.d1_id = 2",
        ),
        (
            "group hot d1 by pk",
            "select f.f_id, sum(f.qty) as s from fact f "
            "where f.d1_id = 0 group by f.f_id",
        ),
        (
            "group hot d2 by pk",
            "select f.f_id, sum(f.price) as s from fact f "
            "where f.d2_id = 0 group by f.f_id",
        ),
        (
            "group hot d1 by d2",
            "select f.d2_id, sum(f.qty) as s from fact f "
            "where f.d1_id = 0 group by f.d2_id",
        ),
        (
            "group skew range",
            "select f.flag, count(f.f_id) as c from fact f "
            "where f.d1_id < 10 group by f.flag",
        ),
        (
            "group cold d1",
            "select f.flag, count(f.f_id) as c from fact f "
            f"where f.d1_id = {cold} group by f.flag",
        ),
    ]


def _set_stats_config(db, config: StatsConfig) -> None:
    db.catalog.stats_config = config
    for name in db.catalog.table_names():
        db.catalog.info(name).invalidate_stats()
    db.analyze()


def _operator_q_errors(result) -> Dict[str, List[float]]:
    qs: Dict[str, List[float]] = {"scan": [], "join": [], "group": []}
    for node in plan_nodes(result.plan):
        actual_rows = result.exec_metrics.actual_rows(node)
        if node.props is None or actual_rows is None:
            continue
        q = q_error(node.props.rows, actual_rows)
        if isinstance(node, JoinNode):
            qs["join"].append(q)
        elif isinstance(node, GroupByNode):
            qs["group"].append(q)
        elif isinstance(node, ScanNode):
            qs["scan"].append(q)
    return qs


def _sampling_study(db, check: bool) -> Dict:
    """Sampled ANALYZE stays within its page budget and NDV bounds."""
    info = db.catalog.info("fact")
    pages = info.table.num_pages
    _set_stats_config(db, EXACT)
    exact = db.catalog.stats("fact")
    sampled_config = StatsConfig(
        full_scan_pages=max(1, pages // 4),
        sample_fraction=0.25,
        min_sample_pages=max(4, pages // 20),
    )
    _set_stats_config(db, sampled_config)
    sampled = db.catalog.stats("fact")
    budget = max(
        sampled_config.min_sample_pages,
        int(pages * sampled_config.sample_fraction),
    )
    columns = {}
    for name in ("f_id", "d1_id", "d2_id", "qty", "flag"):
        exact_ndv = exact.column(name).n_distinct
        est_ndv = sampled.column(name).n_distinct
        ratio = est_ndv / max(1.0, exact_ndv)
        columns[name] = {
            "exact_ndv": exact_ndv,
            "sampled_ndv": est_ndv,
            "ratio": round(ratio, 3),
        }
        if check:
            assert 1.0 / NDV_ERROR_BOUND <= ratio <= NDV_ERROR_BOUND, (
                name,
                columns[name],
            )
    if check:
        assert sampled.sampled, "expected a block-sampled ANALYZE"
        assert sampled.pages_scanned <= budget, (
            sampled.pages_scanned,
            budget,
        )
        assert sampled.row_count == info.table.num_rows
    return {
        "fact_pages": pages,
        "page_budget": budget,
        "pages_scanned": sampled.pages_scanned,
        "row_count_exact": sampled.row_count == info.table.num_rows,
        "ndv_error_bound": NDV_ERROR_BOUND,
        "columns": columns,
    }


def run_cardinality_study(smoke: bool = False, check: bool = True) -> Dict:
    """The whole study; ``check=True`` asserts the acceptance bars."""
    config = _study_config(smoke)
    db = build_star_database(config)
    queries = _skew_queries(config.dim_rows)
    per_config: Dict[str, Dict] = {}
    probe_io: Dict[str, int] = {}
    for label, stats_config in (
        ("uniform", UNIFORM),
        ("histograms", FULL_STATS),
    ):
        _set_stats_config(db, stats_config)
        ops: Dict[str, List[float]] = {"scan": [], "join": [], "group": []}
        detail = []
        for qlabel, sql in queries:
            result = db.query(sql)
            qs = _operator_q_errors(result)
            for kind in ops:
                ops[kind].extend(qs[kind])
            interesting = qs["join"] + qs["group"]
            detail.append(
                {
                    "query": qlabel,
                    "rows": len(result),
                    "join_group_q": [round(q, 2) for q in interesting],
                    "scan_q": [round(q, 2) for q in qs["scan"]],
                }
            )
        probe = db.query(PLAN_PROBE_SQL)
        probe_io[label] = probe.executed_io.total
        summary = {
            kind: {
                "ops": len(values),
                "median": round(median(values), 3),
                "p95": round(percentile(values, 0.95), 3),
            }
            for kind, values in ops.items()
            if values
        }
        per_config[label] = {
            "summary": summary,
            "detail": detail,
            "join_group_q": sorted(
                round(q, 2) for q in ops["join"] + ops["group"]
            ),
            "probe_plan": probe.explain().splitlines()[0],
            "probe_io": probe.executed_io.total,
        }
    uniform_median = median(per_config["uniform"]["join_group_q"])
    hist_median = median(per_config["histograms"]["join_group_q"])
    improvement = uniform_median / max(hist_median, 1e-9)
    if check:
        assert improvement >= MIN_MEDIAN_IMPROVEMENT, (
            uniform_median,
            hist_median,
        )
        assert probe_io["histograms"] < probe_io["uniform"], probe_io
    sampling = _sampling_study(db, check)
    return {
        "workload": {
            "fact_rows": config.fact_rows,
            "dim_rows": config.dim_rows,
            "zipf_skew": config.zipf_skew,
            "seed": config.seed,
            "smoke": smoke,
        },
        "configs": per_config,
        "join_group_median_improvement": round(improvement, 2),
        "min_required_improvement": MIN_MEDIAN_IMPROVEMENT,
        "plan_choice": {
            "sql": PLAN_PROBE_SQL,
            "uniform_io": probe_io["uniform"],
            "histograms_io": probe_io["histograms"],
            "uniform_plan": per_config["uniform"]["probe_plan"],
            "histograms_plan": per_config["histograms"]["probe_plan"],
        },
        "sampling": sampling,
    }


def _report_study(study: Dict) -> None:
    rows = []
    for label in ("uniform", "histograms"):
        summary = study["configs"][label]["summary"]
        for kind in ("scan", "join", "group"):
            if kind not in summary:
                continue
            stats = summary[kind]
            rows.append(
                (label, kind, stats["ops"], stats["median"], stats["p95"])
            )
    report_table(
        "E15",
        "Cardinality q-error on Zipf-skewed star workload",
        ["stats", "operator", "ops", "median q", "p95 q"],
        rows,
        notes=[
            "join + group-by median improvement: "
            f"{study['join_group_median_improvement']}x "
            f"(bar: {study['min_required_improvement']}x)",
            "plan choice on hot-key probe: "
            f"uniform {study['plan_choice']['uniform_io']} page reads vs "
            f"histograms {study['plan_choice']['histograms_io']}",
            "sampled ANALYZE: "
            f"{study['sampling']['pages_scanned']} of "
            f"{study['sampling']['fact_pages']} pages "
            f"(budget {study['sampling']['page_budget']}), NDV within "
            f"{study['sampling']['ndv_error_bound']}x on every column",
        ],
    )


@pytest.fixture(scope="module")
def cardinality_study():
    study = run_cardinality_study(smoke=True, check=False)
    _report_study(study)
    return study


def test_e13_skew_median_qerror_improves_5x(cardinality_study):
    assert (
        cardinality_study["join_group_median_improvement"]
        >= MIN_MEDIAN_IMPROVEMENT
    )


def test_e13_histograms_pick_cheaper_plan(cardinality_study):
    choice = cardinality_study["plan_choice"]
    assert choice["histograms_io"] < choice["uniform_io"]
    assert choice["histograms_plan"] != choice["uniform_plan"]


def test_e13_sampled_analyze_within_bounds(cardinality_study):
    sampling = cardinality_study["sampling"]
    assert sampling["pages_scanned"] <= sampling["page_budget"]
    assert sampling["row_count_exact"]
    for name, column in sampling["columns"].items():
        assert (
            1.0 / sampling["ndv_error_bound"]
            <= column["ratio"]
            <= sampling["ndv_error_bound"]
        ), (name, column)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cardinality fidelity study (writes BENCH JSON)."
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: same assertions, faster build "
        "(no JSON written unless --out is given explicitly)",
    )
    args = parser.parse_args(argv)
    study = run_cardinality_study(smoke=args.smoke, check=True)
    _report_study(study)
    if not args.smoke or args.out != DEFAULT_OUTPUT:
        args.out.write_text(
            json.dumps(study, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    else:
        print("smoke mode: no JSON written")
    print(
        "join+group median q-error improvement: "
        f"{study['join_group_median_improvement']}x, plan probe IO "
        f"{study['plan_choice']['uniform_io']} -> "
        f"{study['plan_choice']['histograms_io']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
