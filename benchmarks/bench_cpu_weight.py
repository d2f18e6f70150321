"""E14 — the Section 5 adaptation: weighted CPU + IO cost.

Paper claim: "The algorithms can be adapted to optimize a weighted
combination of CPU and IO cost." Under a pure IO objective, a group-by
whose inputs fit in memory is free, so the greedy heuristic sees no
reason to aggregate early; a CPU-aware objective accounts for the
tuples flowing through the join and prefers shrinking them first.

Regenerates: greedy plan choice and estimated/executed weighted cost as
the CPU weight sweeps from 0 (the paper's base model) upward.
"""

import random

import pytest

from repro import CostParams, Database
from repro.cost.model import executed_weighted_cost
from reporting import report_table

SQL = """
select s.dno, sum(s.amt) as t from sales s, dept d
where s.dno = d.dno
group by s.dno
"""


def build(cpu_weight: float) -> Database:
    db = Database(CostParams(memory_pages=64, cpu_tuple_weight=cpu_weight))
    db.create_table(
        "sales", [("sid", "int"), ("dno", "int"), ("amt", "float")],
        primary_key=["sid"],
    )
    db.create_table(
        "dept", [("dno", "int"), ("name", "int")], primary_key=["dno"]
    )
    rng = random.Random(31)
    db.insert(
        "sales",
        [(i, i % 20, float(rng.randint(1, 99))) for i in range(6000)],
    )
    db.insert("dept", [(d, d) for d in range(20)])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def cpu_rows():
    rows = []
    for weight in (0.0, 0.001, 0.01, 0.05):
        db = build(weight)
        result = db.query(SQL, optimizer="greedy")
        executed = executed_weighted_cost(
            result.plan,
            db.params,
            result.executed_io.total,
            result.exec_metrics,
        )
        early = result.optimization.stats.early_groupby_accepted > 0
        rows.append(
            (
                weight,
                f"{result.estimated_cost:.1f}",
                f"{executed:.1f}",
                "early-G" if early else "late-G",
            )
        )
    report_table(
        "E14",
        "Weighted CPU+IO objective (Section 5 adaptation)",
        ["cpu weight", "est cost", "executed cost", "greedy grouping"],
        rows,
        notes=[
            "paper shape: at weight 0 (IO-only) the in-memory group-by "
            "is free and stays late; as tuples start to cost, the "
            "greedy conservative heuristic moves the group-by below "
            "the join."
        ],
    )
    return rows


def test_e14_weight_flips_the_choice(cpu_rows, benchmark, bench_rounds):
    assert cpu_rows[0][3] == "late-G"
    assert cpu_rows[-1][3] == "early-G"
    db = build(0.05)
    benchmark.pedantic(
        lambda: db.optimize(SQL, optimizer="greedy"),
        rounds=bench_rounds,
        iterations=1,
    )


def test_e14_estimates_track_weighted_execution(
    cpu_rows, benchmark, bench_rounds
):
    for _, estimated, executed, _ in cpu_rows:
        assert float(executed) == pytest.approx(float(estimated), rel=0.02)
    db = build(0.0)
    benchmark.pedantic(
        lambda: db.optimize(SQL, optimizer="greedy"),
        rounds=bench_rounds,
        iterations=1,
    )
