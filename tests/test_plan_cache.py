"""Plan cache: signatures, LRU/epoch behavior, and session integration."""

from __future__ import annotations

import pytest

from repro import Database
from repro.catalog.catalog import Catalog
from repro.optimizer.options import OptimizerOptions
from repro.server.plancache import PlanCache
from repro.server.signature import cache_key, query_signature


T = frozenset({"t"})


class TestPlanCacheUnit:
    def test_put_get_and_counters(self):
        cache, catalog = PlanCache(capacity=4), Catalog()
        assert cache.get("k1", catalog) is None
        cache.put("k1", catalog.change_epoch, "plan1", T)
        assert cache.get("k1", catalog) == "plan1"
        stats = cache.as_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == 4

    def test_epoch_mismatch_invalidates(self):
        """A write to a relation the entry reads drops it."""
        cache, catalog = PlanCache(capacity=4), Catalog()
        cache.put("k1", catalog.change_epoch, "plan1", T)
        catalog.bump_epoch("t")
        assert cache.get("k1", catalog) is None
        stats = cache.as_dict()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 0
        # The stale entry is gone, not resurrected by a later lookup.
        assert cache.get("k1", catalog) is None
        assert cache.as_dict()["misses"] == 1

    def test_write_elsewhere_restamps_schema_change_invalidates(self):
        cache, catalog = PlanCache(capacity=4), Catalog()
        cache.put("k1", catalog.change_epoch, "plan1", T)
        catalog.bump_epoch("u")
        catalog.bump_epoch("v", "w")
        assert cache.get("k1", catalog) == "plan1"
        assert cache.get("k1", catalog) == "plan1"  # re-stamped: no recheck
        stats = cache.as_dict()
        assert (stats["hits"], stats["revalidated"]) == (2, 1)
        assert stats["invalidations"] == 0
        catalog.bump_epoch()  # no names: the schema, read by every plan
        assert cache.get("k1", catalog) is None
        assert cache.as_dict()["invalidations"] == 1

    def test_lru_eviction_order(self):
        cache, catalog = PlanCache(capacity=2), Catalog()
        cache.put("a", 0, "A", T)
        cache.put("b", 0, "B", T)
        assert cache.get("a", catalog) == "A"  # refresh a: b is now LRU
        cache.put("c", 0, "C", T)
        assert cache.get("b", catalog) is None
        assert cache.get("a", catalog) == "A"
        assert cache.get("c", catalog) == "C"
        assert cache.as_dict()["evictions"] == 1

    def test_clear(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 0, "A", T)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a", Catalog()) is None


class TestSignatures:
    def _bind(self, db, sql):
        return db.bind(sql)

    def test_same_sql_same_key(self, emp_dept_db):
        sql = "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        k1 = cache_key(self._bind(emp_dept_db, sql), "full", None)
        k2 = cache_key(self._bind(emp_dept_db, sql), "full", None)
        assert k1 == k2

    def test_whitespace_insensitive(self, emp_dept_db):
        a = self._bind(
            emp_dept_db, "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        )
        b = self._bind(
            emp_dept_db,
            "select dno,  SUM( sal ) as s\nfrom emp group by dno",
        )
        assert query_signature(a) == query_signature(b)

    def test_literal_changes_key(self, emp_dept_db):
        a = self._bind(
            emp_dept_db,
            "SELECT dno, SUM(sal) AS s FROM emp "
            "WHERE age > 30 GROUP BY dno",
        )
        b = self._bind(
            emp_dept_db,
            "SELECT dno, SUM(sal) AS s FROM emp "
            "WHERE age > 40 GROUP BY dno",
        )
        assert query_signature(a) != query_signature(b)

    def test_alias_is_part_of_signature(self, emp_dept_db):
        # Aliases shape the output schema, so they must not normalize
        # away — a cached plan for alias `e` would render wrong column
        # headers for alias `x`.
        a = self._bind(emp_dept_db, "SELECT e.eno FROM emp e")
        b = self._bind(emp_dept_db, "SELECT x.eno FROM emp x")
        assert query_signature(a) != query_signature(b)

    def test_optimizer_and_options_in_key(self, emp_dept_db):
        bound = self._bind(emp_dept_db, "SELECT e.eno FROM emp e")
        assert cache_key(bound, "full", None) != cache_key(
            bound, "traditional", None
        )
        assert cache_key(bound, "full", None) != cache_key(
            bound, "full", OptimizerOptions(enable_view_rewrite=False)
        )


class TestSessionCaching:
    SQL = "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"

    def test_repeat_query_hits(self, emp_dept_db):
        with emp_dept_db.session() as session:
            first = session.execute(self.SQL)
            second = session.execute(self.SQL)
        assert not first.cache_hit
        assert second.cache_hit
        assert sorted(first.rows) == sorted(second.rows)
        stats = emp_dept_db.plan_cache.as_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_hit_skips_reoptimization(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.SQL)
            first = session.execute(self.SQL)
            # A hit returns the cached OptimizationResult object itself.
            second = session.execute(self.SQL)
        assert (
            first.query_result.optimization
            is second.query_result.optimization
        )

    def test_insert_invalidates(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.SQL)
            session.execute("INSERT INTO emp VALUES (900, 1, 50000.0, 33)")
            third = session.execute(self.SQL)
        assert not third.cache_hit
        assert emp_dept_db.plan_cache.as_dict()["invalidations"] == 1

    def test_analyze_invalidates(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.SQL)
            before = emp_dept_db.catalog.change_epoch
            emp_dept_db.analyze()
            assert emp_dept_db.catalog.change_epoch > before
            result = session.execute(self.SQL)
        assert not result.cache_hit

    def test_ddl_invalidates(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.SQL)
            session.execute("CREATE INDEX emp_age_idx ON emp (age)")
            result = session.execute(self.SQL)
        assert not result.cache_hit

    def test_matview_refresh_invalidates(self, emp_dept_db):
        emp_dept_db.execute(
            "CREATE MATERIALIZED VIEW dsum AS "
            "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        )
        with emp_dept_db.session() as session:
            # First query lazily refreshes and caches at the settled
            # epoch; the immediate re-run must still hit.
            session.execute("SELECT dno, s FROM dsum")
            assert session.execute("SELECT dno, s FROM dsum").cache_hit
            # Staleness + explicit refresh both move the epoch.
            emp_dept_db.execute("INSERT INTO emp VALUES (901, 2, 60000.0, 41)")
            epoch = emp_dept_db.catalog.change_epoch
            emp_dept_db.execute("REFRESH MATERIALIZED VIEW dsum")
            assert emp_dept_db.catalog.change_epoch > epoch
            result = session.execute("SELECT dno, s FROM dsum")
        assert not result.cache_hit

    def test_noop_refresh_keeps_cache(self, emp_dept_db):
        # Refreshing a fresh view changes nothing, so cached plans
        # stay valid — the epoch must NOT move.
        emp_dept_db.execute(
            "CREATE MATERIALIZED VIEW dsum2 AS "
            "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        )
        with emp_dept_db.session() as session:
            session.execute("SELECT dno, s FROM dsum2")
            emp_dept_db.execute("REFRESH MATERIALIZED VIEW dsum2")
            result = session.execute("SELECT dno, s FROM dsum2")
        assert result.cache_hit

    def test_cache_disabled(self, emp_dept_db):
        with emp_dept_db.session(use_plan_cache=False) as session:
            session.execute(self.SQL)
            second = session.execute(self.SQL)
        assert not second.cache_hit
        assert len(emp_dept_db.plan_cache) == 0

    def test_sessions_share_cache(self, emp_dept_db):
        with emp_dept_db.session() as one:
            one.execute(self.SQL)
        with emp_dept_db.session() as two:
            result = two.execute(self.SQL)
        assert result.cache_hit

    def test_different_options_miss(self, emp_dept_db):
        with emp_dept_db.session() as session:
            session.execute(self.SQL)
        with emp_dept_db.session(optimizer="traditional") as other:
            result = other.execute(self.SQL)
        assert not result.cache_hit

    def test_cached_plan_is_shared_run_state_is_per_execution(
        self, emp_dept_db
    ):
        with emp_dept_db.session() as session:
            first = session.execute(self.SQL).query_result
            second = session.execute(self.SQL).query_result
        cached = first.optimization.plan
        assert first.plan is cached and second.plan is cached
        assert first.exec_metrics is not second.exec_metrics
        for result in (first, second):
            assert result.exec_metrics.actual_rows(cached) == len(result.rows)

    def test_stats_panel_fields(self, emp_dept_db):
        stats = emp_dept_db.plan_cache.as_dict()
        for field in (
            "entries",
            "capacity",
            "hits",
            "text_hits",
            "misses",
            "invalidations",
            "revalidated",
            "evictions",
        ):
            assert field in stats

    def test_session_counts(self):
        db = Database()
        db.create_table("t", [("a", "int")])
        assert db.active_sessions == 0
        with db.session() as session:
            assert db.active_sessions == 1
            assert db.sessions_opened == 1
            session.execute("SELECT t.a FROM t t")
        assert db.active_sessions == 0
        with db.session():
            pass
        assert db.sessions_opened == 2


class TestSubqueryJoinSignatures:
    """The signature must cover join-unit kinds and subquery structure:
    queries that differ only there can never share a cached plan."""

    def test_in_vs_not_in_distinct(self, emp_dept_db):
        a = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE e.dno IN "
            "(SELECT d.dno FROM dept d)"
        )
        b = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE e.dno NOT IN "
            "(SELECT d.dno FROM dept d)"
        )
        assert query_signature(a) != query_signature(b)

    def test_exists_vs_not_exists_distinct(self, emp_dept_db):
        a = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE EXISTS "
            "(SELECT 1 FROM dept d WHERE d.dno = e.dno)"
        )
        b = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE NOT EXISTS "
            "(SELECT 1 FROM dept d WHERE d.dno = e.dno)"
        )
        assert query_signature(a) != query_signature(b)

    def test_left_vs_inner_join_distinct(self, emp_dept_db):
        a = emp_dept_db.bind(
            "SELECT e.eno FROM emp e LEFT JOIN dept d ON e.dno = d.dno"
        )
        b = emp_dept_db.bind(
            "SELECT e.eno FROM emp e INNER JOIN dept d ON e.dno = d.dno"
        )
        assert query_signature(a) != query_signature(b)

    def test_subquery_aggregate_changes_key(self, emp_dept_db):
        a = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE e.sal > "
            "(SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dno = e.dno)"
        )
        b = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE e.sal > "
            "(SELECT MAX(e2.sal) FROM emp e2 WHERE e2.dno = e.dno)"
        )
        assert query_signature(a) != query_signature(b)

    def test_correlation_changes_key(self, emp_dept_db):
        a = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE e.sal > "
            "(SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dno = e.dno)"
        )
        b = emp_dept_db.bind(
            "SELECT e.eno FROM emp e WHERE e.sal > "
            "(SELECT AVG(e2.sal) FROM emp e2)"
        )
        assert query_signature(a) != query_signature(b)


class TestSubqueryPlanCaching:
    """Cached plans with the new node shapes must survive the per-
    execution clone (kind / null_aware fields, keyless group-bys)."""

    def _roundtrip(self, db, sql):
        expected = db.reference(sql).rows
        with db.session() as session:
            first = session.execute(sql)
            second = session.execute(sql)
        assert not first.cache_hit
        assert second.cache_hit
        assert sorted(first.rows) == sorted(expected)
        assert sorted(second.rows) == sorted(expected)

    def test_semi_join_roundtrip(self, emp_dept_db):
        self._roundtrip(
            emp_dept_db,
            "SELECT e.eno FROM emp e WHERE e.dno IN "
            "(SELECT d.dno FROM dept d WHERE d.budget > 5300)",
        )

    def test_null_aware_anti_roundtrip(self, emp_dept_db):
        self._roundtrip(
            emp_dept_db,
            "SELECT e.eno FROM emp e WHERE e.dno NOT IN "
            "(SELECT d.dno FROM dept d WHERE d.budget > 5300)",
        )

    def test_left_join_roundtrip(self, emp_dept_db):
        self._roundtrip(
            emp_dept_db,
            "SELECT e.eno, d.budget FROM emp e "
            "LEFT JOIN dept d ON e.dno = d.dno AND d.budget > 5600",
        )

    def test_uncorrelated_scalar_roundtrip(self, emp_dept_db):
        # an uncorrelated scalar subquery is a view grouped on nothing
        self._roundtrip(
            emp_dept_db,
            "SELECT e.eno FROM emp e WHERE e.sal > "
            "(SELECT AVG(e2.sal) FROM emp e2)",
        )
