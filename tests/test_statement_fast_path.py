"""The statement fast path: the plan cache's text front, parameter-aware
index probes, and index probes with keys that can equal nothing."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Database
from repro.algebra.plan import ScanNode, explain
from repro.catalog.catalog import Catalog
from repro.errors import BindError, PlanError
from repro.optimizer.options import OptimizerOptions
from repro.server import session as session_module
from repro.server.plancache import PlanCache

SQL = "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
T = frozenset({"t"})


@pytest.fixture
def calls(monkeypatch):
    """Counts of the slow-path steps a front hit must not take. Patched
    where their callers look them up, like the benchmark's tracer."""
    import repro.db as db_module

    counts = {"bind_sql": 0, "cache_key": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(db_module, "bind_sql")
    counting(session_module, "cache_key")
    return counts


def scans(plan):
    if isinstance(plan, ScanNode):
        yield plan
    for child in plan.children:
        yield from scans(child)


class TestTextFront:
    def test_repeat_text_neither_binds_nor_signs(self, emp_dept_db, calls):
        with emp_dept_db.session() as session:
            first = session.execute(SQL)
            assert calls == {"bind_sql": 1, "cache_key": 1}
            second = session.execute(SQL)
            third = session.execute(SQL)
        assert calls == {"bind_sql": 1, "cache_key": 1}
        assert not first.cache_hit
        assert second.cache_hit and third.cache_hit
        assert second.rows == first.rows
        assert second.columns == first.columns == ["dno", "s"]
        stats = emp_dept_db.plan_cache.as_dict()
        assert (stats["hits"], stats["text_hits"], stats["misses"]) == (2, 2, 1)

    def test_front_hit_still_reports_planning_time(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(SQL)
            result = session.execute(SQL)
        assert result.plan_seconds > 0.0
        assert result.exec_seconds > 0.0

    def test_whitespace_and_case_variants_hit_by_signature(
        self, emp_dept_db, calls
    ):
        variant = "select dno,  SUM( sal ) as s\nfrom emp group by dno"
        with emp_dept_db.session() as session:
            session.execute(SQL)
            result = session.execute(variant)
            assert calls == {"bind_sql": 2, "cache_key": 2}
            assert result.cache_hit
            stats = emp_dept_db.plan_cache.as_dict()
            assert (stats["hits"], stats["text_hits"]) == (1, 0)
            assert stats["entries"] == 1 and stats["texts"] == 2
            # ...and the variant is a front entry of its own from now on.
            assert session.execute(variant).cache_hit
        assert calls == {"bind_sql": 2, "cache_key": 2}
        assert emp_dept_db.plan_cache.as_dict()["text_hits"] == 1

    def test_literal_never_shares_a_front_entry(self, emp_dept_db):
        template = "SELECT e.eno FROM emp e WHERE e.age > {}"
        with emp_dept_db.session() as session:
            young = session.execute(template.format(30))
            old = session.execute(template.format(60))
            again = session.execute(template.format(60))
        assert not young.cache_hit and not old.cache_hit
        assert again.cache_hit
        assert len(old.rows) < len(young.rows)
        assert again.rows == old.rows

    def test_optimizer_level_never_shares_a_front_entry(self, emp_dept_db):
        with emp_dept_db.session() as full:
            full.execute(SQL)
            with emp_dept_db.session(optimizer="traditional") as other:
                assert not other.execute(SQL).cache_hit
                assert other.execute(SQL).cache_hit
            assert full.execute(SQL).cache_hit
        assert emp_dept_db.plan_cache.as_dict()["entries"] == 2

    def test_options_never_share_a_front_entry(self, emp_dept_db):
        options = OptimizerOptions(enable_view_rewrite=False)
        with emp_dept_db.session() as plain:
            plain.execute(SQL)
            with emp_dept_db.session(options=options) as other:
                assert not other.execute(SQL).cache_hit
                assert other.execute(SQL).cache_hit
            # Options swapped on a live session (the shell does this
            # before every statement) re-key its texts at once.
            plain.options = options
            assert plain.execute(SQL).cache_hit
            plain.options = OptimizerOptions(k_level=0)
            assert not plain.execute(SQL).cache_hit

    def test_cache_disabled_bypasses_the_front(self, emp_dept_db, calls):
        with emp_dept_db.session() as warm:
            warm.execute(SQL)
            warm.execute(SQL)
        before = emp_dept_db.plan_cache.as_dict()
        with emp_dept_db.session(use_plan_cache=False) as session:
            assert not session.execute(SQL).cache_hit
            assert not session.execute(SQL).cache_hit
        assert calls["bind_sql"] == 3
        assert emp_dept_db.plan_cache.as_dict() == before

    def test_ad_hoc_parameter_raises_the_same_error_twice(self, emp_dept_db):
        sql = "SELECT e.eno FROM emp e WHERE e.dno = $1"
        with emp_dept_db.session() as session:
            with pytest.raises(PlanError) as first:
                session.execute(sql)
            with pytest.raises(PlanError) as second:
                session.execute(sql)
        assert str(first.value) == str(second.value)
        assert "PREPARE" in str(first.value)

    def test_session_commands_and_ddl_stay_off_the_front(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(
                "PREPARE p AS SELECT e.eno FROM emp e WHERE e.dno = $1"
            )
            for _ in range(2):
                assert session.execute("EXECUTE p(3)").kind == "execute"
            for dno in (70, 71):
                result = session.execute(
                    f"INSERT INTO dept VALUES ({dno}, 1.0, 1)"
                )
                assert result.kind == "ddl"
        assert emp_dept_db.plan_cache.as_dict()["texts"] == 0


class TestOneTokenizeOneParse:
    """Off the text front a statement is classified by its first word,
    then lexed once and parsed once — by the command parser or by the
    binder's ``parse_select``, never both."""

    def test_each_statement_is_lexed_once(self, emp_dept_db, monkeypatch):
        import repro.sql.ddl as ddl_module
        import repro.sql.parser as parser_module

        lexed = []
        # Patched where their callers look them up, like the tracer.
        for module in (ddl_module, parser_module):
            original = module.tokenize
            monkeypatch.setattr(
                module,
                "tokenize",
                lambda sql, original=original: lexed.append(sql)
                or original(sql),
            )
        body = "SELECT e.dno, SUM(e.sal) AS s FROM emp e GROUP BY e.dno"
        with emp_dept_db.session() as session:
            session.execute(f"CREATE MATERIALIZED VIEW mv AS {body}")
            for sql in (
                "INSERT INTO dept VALUES (70, 1.0, 1), (71, 2.0, 1);",
                "REFRESH MATERIALIZED VIEW mv",
                "PREPARE p AS SELECT e.eno FROM emp e WHERE e.dno = $1",
                "EXECUTE p(3)",
                "DEALLOCATE p",
                "ANALYZE dept",
                "CREATE MATERIALIZED VIEW mv2 AS " + body,
                "SELECT e.eno FROM emp e WHERE e.dno = 3",
            ):
                del lexed[:]
                session.execute(sql)
                assert lexed == [sql]
            del lexed[:]
            session.execute("SELECT e.eno FROM emp e WHERE e.dno = 3")
            assert lexed == []  # a text-front hit is never lexed


class TestEpochValidity:
    """Every epoch-bumping action makes the next identical text re-bind
    and answer against the new catalog."""

    COUNT = (
        "SELECT e.dno, COUNT(*) AS n FROM emp e WHERE e.dno = 3 "
        "GROUP BY e.dno"
    )

    def _rebinds(self, db, calls, sql, action):
        with db.session() as session:
            session.execute(sql)
            assert session.execute(sql).cache_hit
            bound = calls["bind_sql"]
            action(session)
            rebinds_from = calls["bind_sql"]
            result = session.execute(sql)
            assert calls["bind_sql"] == rebinds_from + 1 > bound
            assert not result.cache_hit
            assert session.execute(sql).cache_hit
            assert calls["bind_sql"] == rebinds_from + 1
        return result

    def test_insert(self, emp_dept_db, calls):
        before = emp_dept_db.execute(self.COUNT).rows[0][1]
        result = self._rebinds(
            emp_dept_db,
            calls,
            self.COUNT,
            lambda s: s.execute("INSERT INTO emp VALUES (900, 3, 1.0, 33)"),
        )
        assert result.rows == [(3, before + 1)]

    def test_create_index(self, calls):
        db = Database()
        db.create_table("t", [("a", "int"), ("b", "int")])
        db.insert("t", [(i, i % 10) for i in range(5000)])
        db.analyze()
        sql = "SELECT t.b FROM t t WHERE t.a = 4321"
        result = self._rebinds(
            db, calls, sql, lambda s: s.execute("CREATE INDEX t_a ON t (a)")
        )
        assert result.rows == [(1,)]
        (scan,) = scans(result.query_result.plan)
        assert scan.index_name == "t_a"

    def test_analyze(self, emp_dept_db, calls):
        self._rebinds(
            emp_dept_db, calls, self.COUNT, lambda s: s.db.analyze()
        )

    def test_matview_refresh(self, emp_dept_db, calls):
        emp_dept_db.execute(
            "CREATE MATERIALIZED VIEW dsum AS "
            "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        )
        sql = "SELECT dno, s FROM dsum WHERE dno = 2"

        def insert_and_refresh(session):
            session.execute("INSERT INTO emp VALUES (901, 2, 60000.0, 41)")
            session.execute("REFRESH MATERIALIZED VIEW dsum")

        with emp_dept_db.session() as session:
            (stale,) = session.execute(sql).rows
        (fresh,) = self._rebinds(
            emp_dept_db, calls, sql, insert_and_refresh
        ).rows
        assert fresh[1] == pytest.approx(stale[1] + 60000.0)

    VIEW_BODY = (
        "select e.dno, count(*) from emp e where e.sal > {} group by e.dno"
    )

    def test_drop_view_then_redefine(self, emp_dept_db, calls):
        emp_dept_db.create_view(
            "rich", ["dno", "n"], self.VIEW_BODY.format(60000)
        )
        sql = "SELECT r.dno, r.n FROM rich r"

        def redefine(session):
            with session.db.write_lock:
                session.db.drop_view("rich")
                session.db.create_view(
                    "rich", ["dno", "n"], self.VIEW_BODY.format(90000)
                )

        with emp_dept_db.session() as session:
            wide = dict(session.execute(sql).rows)
        narrow = dict(self._rebinds(emp_dept_db, calls, sql, redefine).rows)
        assert narrow != wide
        assert all(narrow[dno] <= wide[dno] for dno in narrow)

    def test_dropped_view_is_a_typed_error(self, emp_dept_db):
        emp_dept_db.create_view("v", ["dno", "n"], self.VIEW_BODY.format(0))
        sql = "SELECT v.dno, v.n FROM v v"
        with emp_dept_db.session() as session:
            session.execute(sql)
            assert session.execute(sql).cache_hit
            emp_dept_db.drop_view("v")
            with pytest.raises(BindError, match="unknown table or view"):
                session.execute(sql)

    def test_dropped_table_is_a_typed_error(self):
        db = Database()
        db.create_table("t", [("a", "int")])
        db.insert("t", [(1,), (2,)])
        sql = "SELECT t.a FROM t t"
        with db.session() as session:
            session.execute(sql)
            assert session.execute(sql).cache_hit
            session.execute("DROP TABLE t")
            for _ in range(2):
                with pytest.raises(BindError, match="unknown table"):
                    session.execute(sql)


class TestFrontIsBounded:
    def test_front_and_plans_share_one_capacity(self):
        capacity = 4
        db = Database()
        db.plan_cache = PlanCache(capacity)
        db.create_table("t", [("a", "int")])
        db.insert("t", [(i,) for i in range(10)])
        texts = [
            f"SELECT t.a FROM t t WHERE t.a = {i}"
            for i in range(10 * capacity)
        ]
        with db.session() as session:
            for sql in texts:
                session.execute(sql)
                stats = db.plan_cache.as_dict()
                assert stats["texts"] <= capacity
                assert stats["entries"] <= capacity
            # Once per evicted plan, none for the front's own turnover.
            assert stats["evictions"] == len(texts) - capacity
            assert session.execute(texts[-1]).cache_hit
            assert not session.execute(texts[0]).cache_hit

    def test_front_entry_of_an_evicted_plan_is_dropped(self):
        cache, catalog = PlanCache(capacity=2), Catalog()
        cache.put("sig1", 0, "plan1", T)
        cache.put_text("text1", "sig1", 0)
        assert cache.get_text("text1", catalog) == "plan1"
        cache.put("sig2", 0, "plan2", T)
        cache.put("sig3", 0, "plan3", T)  # evicts sig1
        assert cache.get_text("text1", catalog) is None
        assert cache.as_dict()["texts"] == 0

    def test_front_entry_needs_both_stamps_current(self):
        """Valid means: nothing the text's binding or its plan read
        changed since each was stamped."""
        cache, catalog = PlanCache(capacity=4), Catalog()
        cache.put("sig", 0, "plan", T)
        cache.put_text("text", "sig", 0)
        catalog.bump_epoch("u")  # a write elsewhere: both re-stamped
        assert cache.get_text("text", catalog) == "plan"
        assert cache.as_dict()["revalidated"] == 1
        bound = catalog.change_epoch
        catalog.bump_epoch("t")  # the text's table changed
        assert cache.get_text("text", catalog) is None
        cache.put_text("text", "sig", bound)
        cache.put("sig", catalog.change_epoch, "replanned", T)  # by another text
        # "text" was bound before the change: it may bind elsewhere by now.
        assert cache.get_text("text", catalog) is None
        stats = cache.as_dict()
        assert (stats["hits"], stats["misses"], stats["invalidations"]) == (
            1,
            0,
            0,
        )

    def test_front_hit_refreshes_the_plan_in_the_lru(self):
        cache, catalog = PlanCache(capacity=2), Catalog()
        cache.put("a", 0, "A", T)
        cache.put_text("text-a", "a", 0)
        cache.put("b", 0, "B", T)
        assert cache.get_text("text-a", catalog) == "A"  # b is now LRU
        cache.put("c", 0, "C", T)
        assert cache.get("b", catalog) is None
        assert cache.get_text("text-a", catalog) == "A"

    def test_clear_drops_the_front(self):
        cache, catalog = PlanCache(capacity=2), Catalog()
        cache.put("a", 0, "A", T)
        cache.put_text("text-a", "a", 0)
        cache.clear()
        assert cache.as_dict()["texts"] == 0
        assert cache.get_text("text-a", catalog) is None


class TestNoStaleAnswerUnderWrites:
    def test_reader_never_sees_less_than_was_committed(self):
        """A reader repeating one text while a writer inserts: every
        count is at least what was committed before the statement began
        and at most what was committed when it returned."""
        db = Database()
        db.create_table("t", [("a", "int")])
        sql = "SELECT t.a FROM t t"
        inserts = 150
        committed = [0]
        problems = []
        done = threading.Event()

        def write():
            try:
                with db.session() as session:
                    for i in range(inserts):
                        session.execute(f"INSERT INTO t VALUES ({i})")
                        committed[0] = i + 1
            except Exception as error:  # surfaced by the assert below
                problems.append(repr(error))
            finally:
                done.set()

        def read():
            try:
                with db.session() as session:
                    finishing = False
                    while not finishing:
                        finishing = done.is_set()
                        floor = committed[0]
                        seen = len(session.execute(sql).rows)
                        ceiling = committed[0] + 1  # insert may be mid-commit
                        if not floor <= seen <= ceiling:
                            problems.append((floor, seen, ceiling))
            except Exception as error:
                problems.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write),
                threading.Thread(target=read),
                threading.Thread(target=read),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert committed[0] == inserts
        with db.session() as session:
            assert len(session.execute(sql).rows) == inserts
        assert db.plan_cache.as_dict()["text_hits"] > 0


@pytest.fixture
def keyed_db():
    """5 000 rows over ~35 pages: an index probe beats the heap scan."""
    db = Database()
    db.create_table(
        "orders", [("orderkey", "int"), ("custkey", "int"), ("price", "int")]
    )
    db.insert("orders", [(k, k % 97, k * 3) for k in range(5000)])
    db.create_index("orders_key", "orders", ["orderkey"])
    db.analyze()
    return db


class TestParameterProbes:
    BY_KEY = "SELECT o.orderkey, o.price FROM orders o WHERE o.orderkey = {}"

    def test_parameter_gets_the_probe_a_literal_gets(self, keyed_db):
        with keyed_db.session() as session:
            session.execute("PREPARE p AS " + self.BY_KEY.format("$1"))
            template = session.prepared["p"].optimization.plan
            (scan,) = scans(template)
            assert scan.index_name == "orders_key"
            assert [v.display() for v in scan.index_values] == ["$1"]
            assert scan.filters == ()
            assert "[index orders_key = $1]" in explain(template)
            for key in (0, 1234, 4999, 5000):
                prepared = session.execute(f"EXECUTE p({key})")
                literal = session.execute(self.BY_KEY.format(key))
                assert prepared.rows == literal.rows
                assert (
                    prepared.query_result.executed_io.total
                    == literal.query_result.executed_io.total
                )
                # every EXECUTE runs the one cached plan; the value
                # travels beside it and resolves at the probe
                assert prepared.query_result.plan is template
                assert prepared.query_result.parameters == (key,)
                assert scan.probe_key(prepared.query_result.parameters) == (
                    key,
                )
            assert session.prepared["p"].replans == 0
            # The template still holds its parameter for the next EXECUTE.
            assert [v.display() for v in scan.index_values] == ["$1"]

    def test_parameter_is_costed_like_an_unseen_literal(self, keyed_db):
        with keyed_db.session() as session:
            session.execute("PREPARE p AS " + self.BY_KEY.format("$1"))
            prepared = session.prepared["p"].optimization
            literal = session.execute(self.BY_KEY.format(77)).query_result
        assert prepared.cost == literal.estimated_cost
        assert prepared.plan.props.rows == pytest.approx(1.0)

    def test_unindexed_or_range_parameter_heap_scans(self, keyed_db):
        with keyed_db.session() as session:
            session.execute(
                "PREPARE by_cust AS SELECT o.orderkey FROM orders o "
                "WHERE o.custkey = $1"
            )
            session.execute(
                "PREPARE below AS SELECT o.orderkey FROM orders o "
                "WHERE o.orderkey < $1"
            )
            for name in ("by_cust", "below"):
                (scan,) = scans(session.prepared[name].optimization.plan)
                assert scan.index_name is None
                assert len(scan.filters) == 1
            assert len(session.execute("EXECUTE by_cust(5)").rows) == 52
            assert len(session.execute("EXECUTE below(10)").rows) == 10

    def test_two_parameters_one_indexed(self, keyed_db):
        with keyed_db.session() as session:
            session.execute(
                "PREPARE p AS SELECT o.price FROM orders o "
                "WHERE o.custkey = $1 AND o.orderkey = $2"
            )
            statement = session.prepared["p"]
            assert statement.parameters == (1, 2)
            (scan,) = scans(statement.optimization.plan)
            assert scan.index_name == "orders_key"
            assert [v.display() for v in scan.index_values] == ["$2"]
            assert [f.display() for f in scan.filters] == ["(o.custkey = $1)"]
            assert session.execute("EXECUTE p(3, 100)").rows == [(300,)]
            assert session.execute("EXECUTE p(4, 100)").rows == []

    def test_arity_errors_with_the_parameter_in_the_probe(self, keyed_db):
        from repro.algebra.expressions import Literal
        from repro.server.planrewrite import bind_parameters, plan_parameters

        with keyed_db.session() as session:
            session.execute("PREPARE p AS " + self.BY_KEY.format("$1"))
            plan = session.prepared["p"].optimization.plan
            assert all(not scan.filters for scan in scans(plan))
            assert plan_parameters(plan) == {1}
            for text in ("EXECUTE p", "EXECUTE p(1, 2)"):
                with pytest.raises(PlanError, match="expects 1 values"):
                    session.execute(text)
            with pytest.raises(PlanError, match=r"missing values.*\$1"):
                bind_parameters(plan, {})
            with pytest.raises(PlanError, match=r"unknown parameter \$2"):
                bind_parameters(plan, {1: Literal(1), 2: Literal(2)})
            assert plan_parameters(bind_parameters(plan, {1: Literal(1)})) == set()

    def test_unbound_probe_never_reaches_storage(self, keyed_db):
        from repro.engine.context import ExecutionContext
        from repro.engine.executor import execute_plan
        from repro.storage.iocounter import IOCounter

        with keyed_db.session() as session:
            session.execute("PREPARE p AS " + self.BY_KEY.format("$1"))
            plan = session.prepared["p"].optimization.plan
        context = ExecutionContext(
            keyed_db.catalog, IOCounter(), keyed_db.params
        )
        with pytest.raises(PlanError, match=r"\$1 is unbound"):
            execute_plan(plan, context)


class TestProbeKeysThatEqualNothing:
    """`t.a = 'x'` is false on every row of an int column whether or not
    an index sits on it; so is `t.a = NULL`."""

    KEYS = ("'x'", "5.0", "2.5", "true", "12345")
    SQL = "SELECT t.a FROM t t WHERE t.a = {}"

    def _db(self, indexed: bool) -> Database:
        db = Database()
        db.create_table("t", [("a", "int"), ("b", "int")])
        db.insert("t", [(i, i * 2) for i in range(5000)])
        if indexed:
            db.create_index("t_a", "t", ["a"])
        db.analyze()
        return db

    def test_same_rows_with_and_without_the_index(self):
        answers = []
        for indexed in (False, True):
            db = self._db(indexed)
            rows = {}
            with db.session() as session:
                session.execute("PREPARE p AS " + self.SQL.format("$1"))
                (scan,) = scans(session.prepared["p"].optimization.plan)
                assert (scan.index_name is not None) == indexed
                for key in self.KEYS:
                    literal = session.execute(self.SQL.format(key))
                    (scan,) = scans(literal.query_result.plan)
                    assert (scan.index_name is not None) == indexed
                    rows["literal", key] = literal.rows
                # `= NULL` is not literal syntax here; EXECUTE takes it.
                for key in self.KEYS + ("NULL",):
                    rows["execute", key] = session.execute(
                        f"EXECUTE p({key})"
                    ).rows
            answers.append(rows)
        assert answers[0] == answers[1]
        rows = answers[1]
        for how in ("literal", "execute"):
            assert rows[how, "'x'"] == []
            assert rows[how, "5.0"] == [(5,)]
            assert rows[how, "2.5"] == []
            assert rows[how, "true"] == [(1,)]
            assert rows[how, "12345"] == []
        assert rows["execute", "NULL"] == []

    def test_a_miss_is_charged_the_descent(self):
        from repro.storage.iocounter import IOCounter

        db = self._db(indexed=True)
        index = db.catalog.info("t").indexes["t_a"]
        snapshot = db.catalog.capture_snapshot().table("t")
        for key in ((None,), ("x",), (12345,)):
            for probe in (
                index.lookup_rids,
                lambda io, key: snapshot.index_lookup_rids(
                    io, snapshot.index("t_a"), key
                ),
            ):
                io = IOCounter()
                assert probe(io, key) == []
                assert io.snapshot().total == index.height
