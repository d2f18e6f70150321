"""Sessions: statement dispatch, PREPARE/EXECUTE, and parameter lifting."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Literal
from repro.errors import PlanError, ReproError, SqlSyntaxError
from repro.server.parameterize import parameterize_query
from repro.server.planrewrite import bind_parameters, plan_parameters


def rows_of(result):
    return sorted(tuple(row) for row in result.rows)


class TestDispatch:
    def test_query_matches_facade(self, emp_dept_db):
        sql = "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        direct = emp_dept_db.query(sql)
        with emp_dept_db.session() as session:
            served = session.execute(sql)
        assert served.kind == "query"
        assert served.columns == direct.columns
        assert rows_of(served) == sorted(tuple(r) for r in direct.rows)

    def test_ddl_and_insert(self, emp_dept_db):
        with emp_dept_db.session() as session:
            ddl = session.execute("CREATE TABLE scratch (a int, b int)")
            assert ddl.kind == "ddl"
            session.execute("INSERT INTO scratch VALUES (1, 2), (3, 4)")
            result = session.execute(
                "SELECT s.a, s.b FROM scratch s ORDER BY a"
            )
        assert [tuple(r) for r in result.rows] == [(1, 2), (3, 4)]

    def test_statement_counter(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute("SELECT e.eno FROM emp e")
            session.execute("SELECT e.eno FROM emp e")
            assert session.statements == 2


class TestPrepareExecute:
    def test_prepare_execute_roundtrip(self, emp_dept_db):
        with emp_dept_db.session() as session:
            prepared = session.execute(
                "PREPARE by_age AS SELECT dno, SUM(sal) AS s FROM emp "
                "WHERE age > $1 GROUP BY dno"
            )
            assert prepared.kind == "prepare"
            assert prepared.statement_name == "by_age"
            for threshold in (30, 45, 60):
                served = session.execute(f"EXECUTE by_age({threshold})")
                direct = emp_dept_db.query(
                    "SELECT dno, SUM(sal) AS s FROM emp "
                    f"WHERE age > {threshold} GROUP BY dno"
                )
                assert served.kind == "execute"
                assert rows_of(served) == sorted(
                    tuple(r) for r in direct.rows
                )
            assert session.prepared["by_age"].executions == 3
            assert session.prepared["by_age"].replans == 0

    def test_execute_is_plan_cache_fast_path(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE q AS SELECT e.eno FROM emp e WHERE e.age > $1"
            )
            served = session.execute("EXECUTE q(40)")
        assert served.cache_hit

    def test_string_and_null_arguments(self, emp_dept_db):
        emp_dept_db.execute("CREATE TABLE names (id int, label text null)")
        emp_dept_db.execute(
            "INSERT INTO names VALUES (1, 'ann'), (2, 'bob'), (3, NULL)"
        )
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE who AS SELECT n.id FROM names n "
                "WHERE n.label = $1"
            )
            assert [tuple(r) for r in session.execute(
                "EXECUTE who('ann')"
            ).rows] == [(1,)]
            # NULL never equals anything: empty, not an error.
            assert session.execute("EXECUTE who(null)").rows == []

    def test_a_parameter_in_a_constant_conjunct_is_kept(self, emp_dept_db):
        """``$1 = 1`` reads no column: it was once dropped from the
        plan, so the statement prepared with no parameter and every
        EXECUTE failed on arity."""
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE gate AS SELECT e.eno FROM emp e "
                "WHERE e.age > $2 AND $1 = 1"
            )
            everyone = emp_dept_db.query(
                "SELECT e.eno FROM emp e WHERE e.age > 40"
            )
            assert rows_of(session.execute("EXECUTE gate(1, 40)")) == sorted(
                tuple(r) for r in everyone.rows
            )
            assert session.execute("EXECUTE gate(0, 40)").rows == []
            with pytest.raises(ReproError, match="expects 2 values"):
                session.execute("EXECUTE gate(1)")

    def test_deallocate(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE q AS SELECT e.eno FROM emp e WHERE e.age > $1"
            )
            gone = session.execute("DEALLOCATE q")
            assert gone.kind == "deallocate"
            with pytest.raises(ReproError, match="unknown prepared"):
                session.execute("EXECUTE q(1)")

    def test_duplicate_prepare_rejected(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE q AS SELECT e.eno FROM emp e WHERE e.age > $1"
            )
            with pytest.raises(ReproError, match="already exists"):
                session.execute(
                    "PREPARE q AS SELECT e.eno FROM emp e WHERE e.age > $1"
                )

    def test_wrong_arity_rejected(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE q AS SELECT e.eno FROM emp e WHERE e.age > $1"
            )
            with pytest.raises(PlanError, match="expects 1 values, got 2"):
                session.execute("EXECUTE q(1, 2)")

    def test_gap_in_parameter_numbers_rejected(self, emp_dept_db):
        with emp_dept_db.session() as session:
            with pytest.raises(PlanError, match="contiguously"):
                session.execute(
                    "PREPARE q AS SELECT e.eno FROM emp e "
                    "WHERE e.age > $2"
                )

    def test_raw_parameter_query_rejected(self, emp_dept_db):
        with emp_dept_db.session() as session:
            with pytest.raises(PlanError, match="PREPARE"):
                session.execute(
                    "SELECT e.eno FROM emp e WHERE e.age > $1"
                )

    def test_epoch_change_replans(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE cnt AS SELECT dno, COUNT(*) AS c FROM emp "
                "WHERE dno = $1 GROUP BY dno"
            )
            before = session.execute("EXECUTE cnt(1)")
            session.execute("INSERT INTO emp VALUES (950, 1, 10000.0, 20)")
            after = session.execute("EXECUTE cnt(1)")
        statement = session.prepared["cnt"]
        assert statement.replans == 1
        assert after.rows[0][1] == before.rows[0][1] + 1

    def test_cache_hit_says_whether_execute_replanned(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE cnt AS SELECT dno, COUNT(*) AS c FROM emp "
                "WHERE dno = $1 GROUP BY dno"
            )
            statement = session.prepared["cnt"]
            assert session.execute("EXECUTE cnt(1)").cache_hit
            session.execute("INSERT INTO emp VALUES (951, 1, 10000.0, 20)")
            replanned = session.execute("EXECUTE cnt(1)")
            assert (replanned.cache_hit, statement.replans) == (False, 1)
            session.execute("INSERT INTO dept VALUES (70, 1.0, 1)")
            kept = session.execute("EXECUTE cnt(1)")
            assert (kept.cache_hit, statement.replans) == (True, 1)
            assert kept.rows == replanned.rows


class TestExplainExecute:
    """``EXPLAIN [ANALYZE] EXECUTE name(values)``: the prepared plan,
    revalidated as EXECUTE would, with its replans in the footer."""

    PREPARE = (
        "PREPARE by_age AS SELECT e.dno, COUNT(*) AS n FROM emp e "
        "WHERE e.age > $1 GROUP BY e.dno"
    )

    def lines(self, result):
        assert (result.kind, result.columns) == ("explain", ["plan"])
        return [line for (line,) in result.rows]

    def test_explain_shows_the_prepared_plan_without_running(
        self, emp_dept_db
    ):
        with emp_dept_db.session() as session:
            session.execute(self.PREPARE)
            statement = session.prepared["by_age"]
            result = session.execute("EXPLAIN EXECUTE by_age(40)")
            lines = self.lines(result)
            assert result.cache_hit
            assert result.query_result.plan is statement.optimization.plan
            assert result.query_result.executed_io is None
            assert lines[0] == "Parameters: $1 = 40"
            assert "actual rows=" not in "\n".join(lines)
            assert lines[-2] == (
                f"estimated cost: {statement.optimization.cost:.0f} "
                f"page IOs; replans: 0"
            )
            assert statement.executions == 0

    def test_explain_analyze_runs_with_the_values(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.PREPARE)
            executed = session.execute("EXECUTE by_age(40)")
            result = session.execute("explain analyze execute by_age(40);")
        lines = self.lines(result)
        assert sorted(result.query_result.rows) == sorted(executed.rows)
        assert all("actual rows=" in line for line in lines[1:-2])
        total = result.query_result.executed_io.total
        assert lines[-2].endswith(f"/ executed {total} page IOs; replans: 0")

    def test_revalidated_as_execute_would(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.PREPARE)
            statement = session.prepared["by_age"]
            session.execute("INSERT INTO dept VALUES (70, 1.0, 1)")
            kept = session.execute("EXPLAIN EXECUTE by_age(40)")
            assert kept.cache_hit and statement.replans == 0
            session.execute("INSERT INTO emp VALUES (952, 1, 10000.0, 50)")
            replanned = session.execute("EXPLAIN ANALYZE EXECUTE by_age(40)")
            assert not replanned.cache_hit and statement.replans == 1
            assert self.lines(replanned)[-2].endswith("; replans: 1")
            assert session.execute("EXECUTE by_age(40)").cache_hit
            expected = emp_dept_db.reference(
                "SELECT e.dno, COUNT(*) AS n FROM emp e "
                "WHERE e.age > 40 GROUP BY e.dno"
            ).rows
        assert sorted(replanned.query_result.rows) == sorted(expected)

    def test_errors_are_executes(self, emp_dept_db):
        with emp_dept_db.session() as session:
            with pytest.raises(ReproError, match="unknown prepared"):
                session.execute("EXPLAIN EXECUTE nope(1)")
            session.execute(self.PREPARE)
            with pytest.raises(PlanError, match="expects 1 values, got 2"):
                session.execute("EXPLAIN ANALYZE EXECUTE by_age(1, 2)")
            with pytest.raises(SqlSyntaxError, match="trailing input"):
                session.execute("EXPLAIN EXECUTE by_age(1) garbage")


class TestExecuteArgumentParsing:
    """EXECUTE's argument vector is the grammar's one literal production;
    ``QueryResult.parameters`` says what a run received."""

    @pytest.fixture
    def session(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute("CREATE TABLE kinds (i int, f float, s text, b bool)")
            session.execute(
                "PREPARE six AS SELECT k.i FROM kinds k WHERE k.i = $1 "
                "AND k.f > $2 AND k.s = $3 AND k.s = $4 AND k.b = $5 "
                "AND k.b = $6"
            )
            session.execute("PREPARE two AS SELECT k.i FROM kinds k "
                            "WHERE k.s = $1 AND k.i = $2")
            session.execute("PREPARE none AS SELECT k.i FROM kinds k")
            yield session

    @staticmethod
    def received(session, sql):
        return session.execute(sql).query_result.parameters

    def test_scalar_kinds(self, session):
        values = self.received(
            session, "EXECUTE six(1, -2.5, 'it''s', null, true, false)"
        )
        assert values == (1, -2.5, "it's", None, True, False)
        assert [type(v) for v in values[:2]] == [int, float]

    def test_comma_inside_string(self, session):
        assert self.received(session, "execute two('a,b', 2)") == ("a,b", 2)

    def test_empty_vector(self, session):
        assert self.received(session, "execute none") == ()
        assert self.received(session, "execute none()") == ()
        assert self.received(session, "execute none(   )") == ()

    def test_garbage_rejected(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("execute two(SELECT)")
        with pytest.raises(SqlSyntaxError):
            session.execute("execute two('unterminated")
        with pytest.raises(SqlSyntaxError):
            session.execute("execute two(1,, 2)")


class TestParameterize:
    def test_lifts_outer_literals(self, emp_dept_db):
        bound = emp_dept_db.bind(
            "SELECT dno, SUM(sal) AS s FROM emp "
            "WHERE age > 30 AND dno < 5 GROUP BY dno HAVING SUM(sal) > 100"
        )
        lifted = parameterize_query(bound)
        assert lifted is not None
        query, values = lifted
        assert [v.value for v in values] == [30, 5, 100]
        # The lifted form has no literals left in WHERE/HAVING ...
        with emp_dept_db.session() as session:
            session.prepare_bound("p", query)
            assert session.prepared["p"].parameters == (1, 2, 3)
            served = session.execute_prepared("p", list(values))
        direct = emp_dept_db.query(
            "SELECT dno, SUM(sal) AS s FROM emp "
            "WHERE age > 30 AND dno < 5 GROUP BY dno HAVING SUM(sal) > 100"
        )
        assert sorted(tuple(r) for r in served.rows) == sorted(
            tuple(r) for r in direct.rows
        )

    def test_no_literals_returns_none(self, emp_dept_db):
        bound = emp_dept_db.bind(
            "SELECT e.eno FROM emp e, dept d WHERE e.dno = d.dno"
        )
        assert parameterize_query(bound) is None

    def test_view_body_literals_stay(self, emp_dept_db):
        # Literals inside an aggregate-view block are definitional and
        # must not lift; only the outer predicate's literal does.
        emp_dept_db.create_view(
            "dsal",
            ["dno", "s"],
            "SELECT e.dno, SUM(e.sal) FROM emp e "
            "WHERE e.age > 25 GROUP BY e.dno",
        )
        bound = emp_dept_db.bind(
            "SELECT v.dno, v.s FROM dsal v WHERE v.s > 1000"
        )
        lifted = parameterize_query(bound)
        assert lifted is not None
        query, values = lifted
        assert [v.value for v in values] == [1000]
        inner = query.views[0].block
        assert any(
            isinstance(e, Literal)
            for p in inner.predicates
            for e in _walk(p)
        )

    def test_plan_substitution_validates(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE q AS SELECT e.eno FROM emp e WHERE e.age > $1"
            )
            plan = session.prepared["q"].optimization.plan
        assert plan_parameters(plan) == {1}
        with pytest.raises(PlanError, match="missing values"):
            bind_parameters(plan, {})
        bound_plan = bind_parameters(plan, {1: Literal(40)})
        assert plan_parameters(bound_plan) == set()


def _walk(expression):
    yield expression
    for child in expression.children:
        yield from _walk(child)
