"""Differential sweep: eager aggregation on vs. off.

Eager partial group-bys and COUNT-carry pre-collapses below joins are
*plan-shape* choices only: for both executors (columnar batch,
row-at-a-time) and every cost regime, turning the alternatives off must
leave the answer bag untouched, and turning them on must never make the
estimated cost worse (the retained-lazy-alternative guarantee). The
sweep pins both directions, the `explain` markers, the `SearchStats`
counters, and the Grace-spill execution path under a tiny memory
budget.

Data uses dyadic-rational floats (multiples of 0.25) so sums are exact
in binary — plan changes and partial-aggregate merges cannot introduce
float noise, which keeps every comparison exact equality.
"""

import pytest

from repro.algebra.plan import JoinNode, plan_nodes
from repro.cost.params import CostParams
from repro.db import Database
from repro.optimizer.options import OptimizerOptions

ENGINES = ("batch", "rowexec")

EAGER_OFF = OptimizerOptions(enable_eager_aggregation=False)

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
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rows_identical_default_params(
        self, default_db, name, engine
    ):
        sql = QUERIES[name]
        on = default_db.query(sql, engine=engine)
        off = default_db.query(sql, options=EAGER_OFF, engine=engine)
        assert bag(on.rows) == bag(off.rows)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rows_identical_tuned_params(self, tuned_db, name, engine):
        sql = QUERIES[name]
        on = tuned_db.query(sql, engine=engine)
        off = tuned_db.query(sql, options=EAGER_OFF, engine=engine)
        assert bag(on.rows) == bag(off.rows)

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
    """One plan, both executors: same bags, same IO charges."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_rows_and_io_identical(self, tuned_db, name):
        sql = QUERIES[name]
        results = [
            tuned_db.query(sql, engine=engine) for engine in ENGINES
        ]
        first = results[0]
        for other in results[1:]:
            assert bag(other.rows) == bag(first.rows)
            assert other.executed_io.total == first.executed_io.total


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

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rows_identical_under_spill(self, spill_db, engine):
        on = spill_db.query(self.SQL, engine=engine)
        off = spill_db.query(self.SQL, options=EAGER_OFF, engine=engine)
        assert bag(on.rows) == bag(off.rows)
        assert on.executed_io.total < off.executed_io.total

    def test_io_identical_across_engines_under_spill(self, spill_db):
        totals = {
            spill_db.query(self.SQL, engine=engine).executed_io.total
            for engine in ENGINES
        }
        assert len(totals) == 1
