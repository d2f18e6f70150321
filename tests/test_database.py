"""End-to-end tests of the Database facade."""

import pytest

from repro import CostParams, Database, OPTIMIZERS
from repro.engine.reference import rows_equal_bag
from repro.errors import CatalogError, ReproError


@pytest.fixture
def db(emp_dept_db):
    return emp_dept_db


class TestDdl:
    def test_create_table_with_type_names(self):
        database = Database()
        database.create_table("t", [("a", "int"), ("b", "FLOAT")])
        database.insert("t", [(1, 2.0)])
        assert database.catalog.table("t").num_rows == 1

    def test_unknown_type_rejected(self):
        database = Database()
        with pytest.raises(CatalogError):
            database.create_table("t", [("a", "decimal")])

    def test_insert_rebuilds_indexes(self):
        database = Database()
        database.create_table("t", [("a", "int")])
        database.create_index("t_a", "t", ["a"])
        database.insert("t", [(5,), (6,)])
        index = database.catalog.info("t").indexes["t_a"]
        keys, _ = index.snapshot_data()
        assert len(keys) == 2

    def test_create_view_and_query_it(self, db):
        db.create_view(
            "avg_by_dept",
            ["dno", "asal"],
            "select e.dno, avg(e.sal) from emp e group by e.dno",
        )
        result = db.query(
            "select v.asal from avg_by_dept v where v.asal > 0"
        )
        assert len(result.rows) == 7


class TestQueryApi:
    SQL = (
        "select e.sal from emp e where e.age < 25 and e.sal > "
        "(select avg(e2.sal) from emp e2 where e2.dno = e.dno)"
    )

    def test_all_optimizers_agree(self, db):
        reference = db.reference(self.SQL)
        for optimizer in OPTIMIZERS:
            result = db.query(self.SQL, optimizer=optimizer)
            assert rows_equal_bag(reference.rows, result.rows), optimizer

    def test_unknown_optimizer(self, db):
        with pytest.raises(ReproError):
            db.query(self.SQL, optimizer="magic")

    def test_result_columns_named(self, db):
        result = db.query("select e.sal, e.age from emp e")
        assert result.columns == ["sal", "age"]

    def test_as_dicts(self, db):
        result = db.query("select e.sal from emp e where e.eno = 0")
        assert result.as_dicts() == [{"sal": result.rows[0][0]}]

    def test_executed_io_positive(self, db):
        result = db.query("select e.sal from emp e")
        assert result.executed_io.total > 0

    def test_execute_false_skips_execution(self, db):
        result = db.query("select e.sal from emp e", execute=False)
        assert result.rows == []
        assert result.executed_io is None
        assert result.estimated_cost > 0

    def test_explain_contains_plan(self, db):
        text = db.explain("select e.sal from emp e where e.dno = 1")
        assert "Scan emp" in text

    def test_optimize_exposes_alternatives(self, db):
        result = db.optimize(
            "with v(dno, a) as (select e.dno, avg(e.sal) from emp e "
            "group by e.dno) "
            "select d.budget from dept d, v where d.dno = v.dno"
        )
        assert result.alternatives

    def test_estimated_matches_executed_on_exact_plans(self, db):
        # no filters, so cardinalities are exact: est IO == executed IO
        result = db.query(
            "select e.dno, avg(e.sal) as a from emp e group by e.dno"
        )
        assert result.executed_io.total == pytest.approx(
            result.estimated_cost
        )

    def test_arithmetic_in_select(self, db):
        result = db.query("select e.sal / 12 as monthly from emp e")
        assert len(result.rows) == 140

    def test_arith_in_aggregate_arg(self, db):
        result = db.query(
            "select e.dno, sum(e.sal * 2) as d from emp e group by e.dno"
        )
        doubled = db.query(
            "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        by_dno = {row[0]: row[1] for row in doubled.rows}
        assert all(
            row[1] == pytest.approx(2 * by_dno[row[0]])
            for row in result.rows
        )

    def test_stddev_user_defined_aggregate(self, db):
        result = db.query(
            "select e.dno, stddev(e.sal) as sd from emp e group by e.dno"
        )
        assert all(row[1] >= 0 for row in result.rows)

    def test_or_predicate(self, db):
        result = db.query(
            "select e.sal from emp e where e.dno = 1 or e.dno = 2"
        )
        assert len(result.rows) == 40

    def test_self_join_same_view_twice(self, db):
        sql = """
        with v(dno, a) as (select e.dno, avg(e.sal) from emp e group by e.dno)
        select x.a, y.a from v x, v y where x.dno = y.dno
        """
        reference = db.reference(sql)
        result = db.query(sql)
        assert rows_equal_bag(reference.rows, result.rows)


class TestIoAccountingSanity:
    def test_io_scales_with_data(self):
        small = Database(CostParams(memory_pages=8))
        big = Database(CostParams(memory_pages=8))
        for database, rows in ((small, 50), (big, 5000)):
            database.create_table(
                "t", [("k", "int"), ("v", "float")], primary_key=["k"]
            )
            database.insert(
                "t", [(i, float(i % 10)) for i in range(rows)]
            )
        sql = "select t.k from t where t.v = 1"
        small_io = small.query(sql).executed_io.total
        big_io = big.query(sql).executed_io.total
        assert big_io > small_io

    def test_repeated_queries_accumulate_io(self, db):
        db.query("select e.sal from emp e")
        before = db.io.total
        db.query("select e.sal from emp e")
        assert db.io.total > before
