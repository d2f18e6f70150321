"""Differential sweep: eager aggregation on vs. off.

Eager partial group-bys and COUNT-carry pre-collapses below joins are
*plan-shape* choices only: under every cost regime, the answer bag with
the alternatives on must equal the one with them off and the reference
evaluator's, executed IO must equal the cost model's under the run's
actual counts, and turning them on must never make the estimated cost
worse (the retained-lazy-alternative guarantee). The sweep pins both
directions, the `explain` markers, the `SearchStats` counters, and the
Grace-spill execution path under a tiny memory budget.

Data uses dyadic-rational floats (multiples of 0.25) so sums are exact
in binary — plan changes and partial-aggregate merges cannot introduce
float noise, which keeps every comparison exact equality.
"""

from collections import Counter, defaultdict

import pytest

from repro.algebra.plan import JoinNode, plan_nodes
from repro.cost.params import CostParams
from repro.db import Database
from repro.optimizer.options import OptimizerOptions
from repro.testing.exactio import exact_io

AGAINST = ("batch", "reference")
"""What the eager-on answer is compared with: the eager-off plan on the
engine, or the brute-force reference evaluator."""

EAGER_OFF = OptimizerOptions(early_grouping="greedy")

#: Weighted CPU+IO objective under which the eager alternatives win on
#: this workload (pure IO ties in memory, and ties keep the lazy plan).
TUNED = CostParams(memory_pages=4, cpu_tuple_weight=0.01)

COST_SLACK = 1e-9

QUERIES = {
    # aggregate arguments on emp, probe side bonus collapses to a
    # COUNT-carry; covers every weighting rule at the merge group-by
    # (sum*cnt, count(*)->sum(cnt), count(x)->sum per non-NULL x,
    # duplicate-insensitive min, avg finalize)
    "carry": (
        "select e.dno as d, sum(e.sal) as s, count(*) as c, "
        "count(e.age) as ca, min(e.sal) as m, avg(e.sal) as a "
        "from emp e, bonus b where e.dno = b.dno group by e.dno"
    ),
    # aggregate arguments on bonus: bonus collapses to partial
    # aggregates below the join, coalesced above it
    "partial": (
        "select e.dno as d, sum(b.amt) as s, max(b.amt) as mx, "
        "count(b.amt) as c "
        "from emp e, bonus b where e.dno = b.dno group by e.dno"
    ),
    # arguments on both sides: no single subset holds them all, so no
    # eager alternative exists — the sweep still must agree
    "mixed": (
        "select e.dno as d, sum(e.sal) as se, sum(b.amt) as sb "
        "from emp e, bonus b where e.dno = b.dno group by e.dno"
    ),
    # three-way join grouped on the third relation, with HAVING over a
    # finalized aggregate: partial and carry combine in one plan
    "threeway": (
        "select d.loc as l, sum(e.sal) as s, count(*) as c "
        "from emp e, bonus b, dept d "
        "where e.dno = b.dno and b.dno = d.dno "
        "group by d.loc having sum(e.sal) > 100"
    ),
}


def build_db(params=None):
    db = Database(params)
    db.create_table(
        "emp",
        [("eno", "int"), ("dno", "int"), ("sal", "float"), ("age", "int")],
        nullable=["age"],
    )
    db.create_table(
        "bonus", [("bno", "int"), ("dno", "int"), ("amt", "float")]
    )
    db.create_table("dept", [("dno", "int"), ("loc", "int")])
    # dno=4 employees are all-NULL in age: COUNT(e.age) must finalize
    # to 0 (not NULL) for that group even through a partial merge
    db.insert(
        "emp",
        [
            (
                i,
                i % 5,
                (i % 40) * 0.25,
                None if (i % 7 == 0 or i % 5 == 4) else 20 + i % 30,
            )
            for i in range(200)
        ],
    )
    db.insert(
        "bonus", [(i, i % 5, (i % 16) * 0.25) for i in range(300)]
    )
    db.insert("dept", [(d, d % 2) for d in range(5)])
    db.analyze()
    return db


def bag(rows):
    return sorted(rows, key=repr)


def expected_rows(db, sql, against):
    if against == "reference":
        return db.reference(sql).rows
    return db.query(sql, options=EAGER_OFF).rows


def assert_exact_io(db, result):
    assert result.executed_io.total == exact_io(
        result.plan, result.exec_metrics, db.catalog, db.params
    )


def rows_into_joins(result):
    """Executed rows entering join operators, over the whole plan."""
    return sum(
        result.exec_metrics.actual_rows(child)
        for node in plan_nodes(result.plan)
        if isinstance(node, JoinNode)
        for child in node.children
    )


@pytest.fixture(scope="module")
def default_db():
    return build_db()


@pytest.fixture(scope="module")
def tuned_db():
    return build_db(TUNED)


class TestDifferential:
    """Eager on vs. off: identical bags, never-worse estimated cost."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("against", AGAINST)
    def test_rows_identical_default_params(
        self, default_db, name, against
    ):
        sql = QUERIES[name]
        on = default_db.query(sql)
        assert bag(on.rows) == bag(expected_rows(default_db, sql, against))

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("against", AGAINST)
    def test_rows_identical_tuned_params(self, tuned_db, name, against):
        sql = QUERIES[name]
        on = tuned_db.query(sql)
        assert bag(on.rows) == bag(expected_rows(tuned_db, sql, against))

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_cost_never_worse(self, default_db, tuned_db, name):
        for db in (default_db, tuned_db):
            on = db.optimize(QUERIES[name])
            off = db.optimize(QUERIES[name], options=EAGER_OFF)
            assert on.cost <= off.cost + COST_SLACK

    def test_all_null_group_counts_zero(self, tuned_db):
        rows = {
            row[0]: row for row in tuned_db.query(QUERIES["carry"]).rows
        }
        assert rows[4][3] == 0  # COUNT over all-NULL ages, not NULL


class TestCrossEngine:
    """One plan, the engine against both oracles: the reference
    evaluator's bag, the cost model's IO under actual counts."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_rows_and_io_identical(self, tuned_db, name):
        sql = QUERIES[name]
        result = tuned_db.query(sql)
        assert bag(result.rows) == bag(tuned_db.reference(sql).rows)
        assert_exact_io(tuned_db, result)


class TestAdoptionAndMarkers:
    """Counters count, explain marks, ties keep the lazy plan."""

    def test_default_costing_keeps_lazy_plan(self, default_db):
        result = default_db.optimize(QUERIES["carry"])
        assert result.stats.eager_alternatives_considered > 0
        assert result.stats.eager_alternatives_adopted == 0
        assert "eager=" not in default_db.query(QUERIES["carry"]).explain()

    def test_carry_adoption_and_markers(self, tuned_db):
        result = tuned_db.optimize(QUERIES["carry"])
        assert result.stats.eager_alternatives_adopted > 0
        text = tuned_db.query(QUERIES["carry"]).explain()
        assert "eager=carry" in text
        assert "eager=merge" in text

    def test_partial_adoption_and_markers(self, tuned_db):
        result = tuned_db.optimize(QUERIES["partial"])
        assert result.stats.eager_alternatives_adopted > 0
        text = tuned_db.query(QUERIES["partial"]).explain()
        assert "eager=partial" in text
        assert "eager=merge" in text

    def test_adopted_partial_halves_the_join_input(self, tuned_db):
        # the plan-shape fact eager aggregation exists for: the join
        # processes ~keys rows instead of ~facts rows
        eager = tuned_db.query(QUERIES["partial"])
        lazy = tuned_db.query(QUERIES["partial"], options=EAGER_OFF)
        assert bag(eager.rows) == bag(lazy.rows)
        assert rows_into_joins(lazy) >= 2 * rows_into_joins(eager)

    def test_partial_and_carry_combine(self, tuned_db):
        text = tuned_db.query(QUERIES["threeway"]).explain()
        assert "eager=partial" in text
        assert "eager=carry" in text
        assert "eager=merge" in text

    def test_stats_summary_mentions_eager(self, tuned_db):
        summary = tuned_db.optimize(QUERIES["carry"]).stats.summary()
        assert "eager=" in summary

    def test_eager_off_generates_no_alternatives(self, tuned_db):
        result = tuned_db.optimize(QUERIES["carry"], options=EAGER_OFF)
        assert result.stats.eager_alternatives_considered == 0
        assert result.stats.eager_alternatives_adopted == 0


class TestGraceSpill:
    """At spill scale the lazy join Grace-partitions while the eager
    plan pre-collapses (and, with many groups, the eager group-by
    spills itself) — answers must agree everywhere and the adopted
    eager plan must charge strictly less IO."""

    @pytest.fixture(scope="class")
    def spill_db(self):
        db = Database(TUNED)
        db.create_table(
            "emp", [("eno", "int"), ("dno", "int"), ("sal", "float")]
        )
        db.create_table(
            "bonus", [("bno", "int"), ("dno", "int"), ("amt", "float")]
        )
        db.insert(
            "emp",
            [(i, i % 800, (i % 40) * 0.25) for i in range(6000)],
        )
        db.insert(
            "bonus",
            [(i, i % 800, (i % 16) * 0.25) for i in range(9000)],
        )
        db.analyze()
        return db

    SQL = (
        "select e.dno as d, sum(e.sal) as s, count(*) as c "
        "from emp e, bonus b where e.dno = b.dno group by e.dno"
    )

    def test_adopted_and_spilling(self, spill_db):
        result = spill_db.optimize(self.SQL)
        assert result.stats.eager_alternatives_adopted > 0
        executed = spill_db.query(self.SQL)
        text = executed.explain(analyze=True)
        assert "eager=carry" in text
        assert "spill" in text  # the eager pre-collapse itself spills

    @staticmethod
    def closed_form(db):
        """The answer from per-dno counts and sums (the brute-force
        evaluator's 54M-row cross product would not finish)."""
        emp, bonus = defaultdict(list), Counter()
        for _, dno, sal in db.catalog.table("emp").rows:
            emp[dno].append(sal)
        for _, dno, _ in db.catalog.table("bonus").rows:
            bonus[dno] += 1
        return [
            (dno, sum(sals) * bonus[dno], len(sals) * bonus[dno])
            for dno, sals in emp.items()
            if bonus[dno]
        ]

    @pytest.mark.parametrize("against", ("batch", "closed-form"))
    def test_rows_identical_under_spill(self, spill_db, against):
        on = spill_db.query(self.SQL)
        off = spill_db.query(self.SQL, options=EAGER_OFF)
        expected = off.rows if against == "batch" else self.closed_form(spill_db)
        assert bag(on.rows) == bag(expected)
        assert on.executed_io.total < off.executed_io.total

    def test_io_identical_across_engines_under_spill(self, spill_db):
        """Both plans' spills charge what the cost model charges them
        under the run's actual counts."""
        for options in (None, EAGER_OFF):
            assert_exact_io(spill_db, spill_db.query(self.SQL, options=options))
