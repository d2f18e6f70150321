"""Incremental maintenance: staleness tracking, delta merging, and the
full-recompute fallback.

The load-bearing property is byte-identity: after inserts, an
incremental refresh (partials over the delta, merged into the stored
groups through the accumulators' ``merge()``) must leave the backing
table exactly as a from-scratch refresh would — same rows, same order,
same value representations.
"""

import random

import pytest

from repro import Database
from repro.errors import CatalogError
from repro.views.registry import backing_table_name

DECOMPOSABLE = ["sum", "count", "avg", "min", "max", "stddev"]


def make_emp_db(rows=150, dnos=6, seed=11):
    db = Database()
    db.create_table(
        "emp",
        [("eno", "int"), ("dno", "int"), ("sal", "float"), ("age", "int")],
        primary_key=["eno"],
    )
    rng = random.Random(seed)
    db.insert(
        "emp",
        [
            (e, e % dnos, float(rng.randint(100, 999)), 20 + e % 40)
            for e in range(rows)
        ],
    )
    db.analyze()
    return db


def delta_rows(start, count, dnos=6, seed=77):
    rng = random.Random(seed + start)
    return [
        (e, rng.randrange(dnos + 2), float(rng.randint(100, 999)),
         20 + e % 40)
        for e in range(start, start + count)
    ]


def backing_rows(db, name):
    return list(db.catalog.table(backing_table_name(name)).rows)


class TestStaleness:
    def test_insert_marks_stale(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        view = db.catalog.materialized_view("mv")
        assert not view.stale
        db.insert("emp", delta_rows(1000, 3))
        assert view.stale
        assert sum(len(rows) for rows in view.deltas.values()) == 3

    def test_insert_into_unrelated_table_keeps_fresh(self):
        db = make_emp_db()
        db.create_table("other", [("a", "int")])
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        db.insert("other", [(1,)])
        assert not db.catalog.materialized_view("mv").stale

    def test_refresh_noop_when_fresh(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        report = db.refresh_materialized_view("mv")
        assert report.mode == "noop"

    def test_refresh_unknown_view(self):
        db = make_emp_db()
        with pytest.raises(CatalogError):
            db.refresh_materialized_view("nope")


class TestIncrementalByteIdentity:
    @pytest.mark.parametrize("func", DECOMPOSABLE)
    def test_incremental_equals_full(self, func):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            f"select e.dno as dno, {func}(e.sal) as v from emp e "
            "group by e.dno",
        )
        db.insert("emp", delta_rows(1000, 25))
        report = db.refresh_materialized_view("mv")
        assert report.mode == "incremental"
        incremental = backing_rows(db, "mv")
        # Force a from-scratch recompute of the same state.
        full = db.refresh_materialized_view("mv", mode="full")
        assert full.mode == "full"
        assert incremental == backing_rows(db, "mv")
        assert [tuple(map(type, row)) for row in incremental] == [
            tuple(map(type, row))
            for row in backing_rows(db, "mv")
        ]

    def test_multi_aggregate_view(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s, count(e.eno) as n, "
            "avg(e.sal) as a, min(e.sal) as lo, max(e.sal) as hi, "
            "stddev(e.sal) as sd from emp e group by e.dno",
        )
        db.insert("emp", delta_rows(1000, 40))
        assert db.refresh_materialized_view("mv").mode == "incremental"
        incremental = backing_rows(db, "mv")
        db.refresh_materialized_view("mv", mode="full")
        assert incremental == backing_rows(db, "mv")

    def test_new_groups_appear_in_order(self):
        db = make_emp_db(dnos=3)
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, count(e.eno) as n from emp e "
            "group by e.dno",
        )
        before = backing_rows(db, "mv")
        db.insert("emp", [(2000, 99, 500.0, 30), (2001, -1, 400.0, 40)])
        db.refresh_materialized_view("mv")
        after = backing_rows(db, "mv")
        assert len(after) == len(before) + 2
        assert after == sorted(after, key=lambda row: row[0])

    def test_successive_deltas(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, avg(e.sal) as a from emp e "
            "group by e.dno",
        )
        for wave in range(3):
            db.insert("emp", delta_rows(1000 + 10 * wave, 10))
            assert db.refresh_materialized_view("mv").mode == "incremental"
        incremental = backing_rows(db, "mv")
        db.refresh_materialized_view("mv", mode="full")
        assert incremental == backing_rows(db, "mv")


class TestFullFallback:
    def test_holistic_falls_back_to_full(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, median(e.sal) as m from emp e "
            "group by e.dno",
        )
        db.insert("emp", delta_rows(1000, 10))
        report = db.refresh_materialized_view("mv")
        assert report.mode == "full"
        assert not db.catalog.materialized_view("mv").stale

    def test_self_join_falls_back_to_full(self):
        db = make_emp_db(rows=40)
        db.create_materialized_view(
            "mv",
            "select a.dno as dno, count(a.eno) as n from emp a, emp b "
            "where a.dno = b.dno group by a.dno",
        )
        db.insert("emp", delta_rows(1000, 5))
        assert db.refresh_materialized_view("mv").mode == "full"

    def test_join_view_single_table_delta_is_incremental(self):
        db = make_emp_db()
        db.create_table(
            "dept", [("dno", "int"), ("budget", "float")],
            primary_key=["dno"],
        )
        db.insert("dept", [(d, 1000.0 * (d + 1)) for d in range(10)])
        db.analyze()
        db.create_materialized_view(
            "mv",
            "select d.budget as budget, sum(e.sal) as s "
            "from emp e, dept d where e.dno = d.dno group by d.budget",
        )
        db.insert("emp", delta_rows(1000, 15))
        assert db.refresh_materialized_view("mv").mode == "incremental"
        incremental = backing_rows(db, "mv")
        db.refresh_materialized_view("mv", mode="full")
        assert incremental == backing_rows(db, "mv")

    def test_join_view_both_tables_changed_falls_back(self):
        db = make_emp_db()
        db.create_table(
            "dept", [("dno", "int"), ("budget", "float")],
            primary_key=["dno"],
        )
        db.insert("dept", [(d, 1000.0 * (d + 1)) for d in range(10)])
        db.analyze()
        db.create_materialized_view(
            "mv",
            "select d.budget as budget, sum(e.sal) as s "
            "from emp e, dept d where e.dno = d.dno group by d.budget",
        )
        db.insert("emp", delta_rows(1000, 5))
        db.insert("dept", [(20, 500.0)])
        assert db.refresh_materialized_view("mv").mode == "full"


class TestRefreshPlumbing:
    def test_refresh_is_metered(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        db.insert("emp", delta_rows(1000, 10))
        report = db.refresh_materialized_view("mv")
        assert report.io is not None and report.io.total > 0
        assert report.metrics is not None and report.metrics.operators
        assert report.delta_rows == 10
        assert "incremental" in report.describe()

    def test_incremental_refresh_reads_less_than_full(self):
        # merging the delta's partials reads the delta and the backing
        # table; recomputing the same state re-reads the base table
        db = make_emp_db(rows=5000)
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        db.insert("emp", delta_rows(5000, 25))
        incremental = db.refresh_materialized_view("mv")
        assert incremental.mode == "incremental"
        full = db.refresh_materialized_view("mv", mode="full")
        assert 5 * incremental.io.total <= full.io.total

    def test_refresh_via_sql(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        db.execute("insert into emp values (1000, 0, 555.0, 33)")
        assert db.catalog.materialized_view("mv").stale
        db.execute("refresh materialized view mv")
        assert not db.catalog.materialized_view("mv").stale

    def test_lazy_refresh_on_read(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        db.insert("emp", delta_rows(1000, 10))
        view = db.catalog.materialized_view("mv")
        assert view.stale
        rows = db.query("select m.dno, m.s from mv m").rows
        assert not view.stale
        from repro.optimizer.options import OptimizerOptions

        expected = db.query(
            "select e.dno, sum(e.sal) as s from emp e group by e.dno",
            options=OptimizerOptions(enable_view_rewrite=False),
        ).rows
        assert sorted(rows) == sorted(expected)

    def test_delta_temp_table_cleaned_up(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        db.insert("emp", delta_rows(1000, 10))
        db.refresh_materialized_view("mv")
        assert not any(
            name.startswith("__delta__")
            for name in db.catalog.table_names()
        )

    def test_refresh_results_visible_to_rewrite(self):
        db = make_emp_db()
        db.create_materialized_view(
            "mv",
            "select e.dno as dno, sum(e.sal) as s from emp e "
            "group by e.dno",
        )
        from repro.optimizer.options import OptimizerOptions

        off = OptimizerOptions(enable_view_rewrite=False)
        sql = "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        db.insert("emp", delta_rows(1000, 20))
        assert sorted(db.query(sql).rows) == sorted(
            db.query(sql, options=off).rows
        )
