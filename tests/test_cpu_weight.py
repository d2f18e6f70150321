"""Tests for the weighted CPU+IO objective (the Section 5 adaptation:
"the algorithms can be adapted to optimize a weighted combination of
CPU and IO cost")."""

import random

import pytest

from repro import CostParams, Database
from repro.cost.model import executed_weighted_cost
from repro.engine.reference import rows_equal_bag


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
        [(i, i % 20, float(rng.randint(1, 99))) for i in range(5000)],
    )
    db.insert("dept", [(d, d) for d in range(20)])
    db.analyze()
    return db


SQL = """
select s.dno, sum(s.amt) as t from sales s, dept d
where s.dno = d.dno
group by s.dno
"""


class TestCpuWeight:
    def test_zero_weight_is_io_only(self):
        db = build(0.0)
        result = db.query(SQL, optimizer="greedy")
        assert result.estimated_cost == pytest.approx(
            result.executed_io.total
        )

    def test_positive_weight_raises_cost(self):
        io_only = build(0.0).query(SQL, execute=False).estimated_cost
        weighted = build(0.01).query(SQL, execute=False).estimated_cost
        assert weighted > io_only

    def test_cpu_weight_rewards_early_aggregation(self):
        """With everything fitting in memory, IO-only sees no gain from
        early grouping; a CPU-aware objective prefers shrinking the
        20x-expanding join input first."""
        io_only = build(0.0).query(SQL, optimizer="greedy", execute=False)
        assert io_only.optimization.stats.early_groupby_accepted == 0
        cpu_aware = build(0.05).query(SQL, optimizer="greedy", execute=False)
        assert cpu_aware.optimization.stats.early_groupby_accepted > 0

    def test_results_identical_under_any_weight(self):
        baseline = build(0.0).query(SQL)
        weighted = build(0.05).query(SQL)
        assert rows_equal_bag(baseline.rows, weighted.rows)

    def test_executed_weighted_cost_tracks_estimate(self):
        db = build(0.05)
        result = db.query(SQL, optimizer="greedy")
        executed = executed_weighted_cost(
            result.plan,
            db.params,
            result.executed_io.total,
            result.exec_metrics,
        )
        # exact statistics, no filters: estimate equals execution
        assert executed == pytest.approx(result.estimated_cost, rel=0.01)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CostParams(cpu_tuple_weight=-1.0)

    def test_guarantee_holds_under_weighted_objective(self):
        db = build(0.05)
        result = db.query(SQL, optimizer="full", execute=False)
        assert (
            result.estimated_cost
            <= result.optimization.traditional_cost + 1e-9
        )
