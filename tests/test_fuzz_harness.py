"""Unit tests for the differential fuzzing subsystem itself."""

import json

import pytest

from repro.sql.lexer import split_statements
from repro.testing import (
    CONFIGS,
    PROFILES,
    check_script,
    generate_script,
    load_corpus_script,
    needs_reference,
    render_script,
    run_fuzz,
    shrink_script,
)
from repro.testing.metamorphic import EngineConfig
from repro.testing.runner import (
    classify_statement,
    write_corpus_case,
)
from repro.testing.shrink import Shrinker
from repro.testing.sqlgen import (
    PredSpec,
    QuerySpec,
    RelRef,
    SelectItem,
    Stmt,
)

PLANCACHE = next(config for config in CONFIGS if config.session)

class TestGenerator:
    def test_deterministic_per_seed(self):
        first = render_script(generate_script(11, PROFILES["smoke"]))
        second = render_script(generate_script(11, PROFILES["smoke"]))
        assert first == second

    def test_seeds_differ(self):
        scripts = {
            render_script(generate_script(seed, PROFILES["smoke"]))
            for seed in range(5)
        }
        assert len(scripts) == 5

    def test_script_shape(self):
        script = generate_script(0, PROFILES["smoke"])
        kinds = [stmt.kind for stmt in script]
        assert kinds[0] == "create"
        assert "insert" in kinds
        assert kinds.count("query") == PROFILES["smoke"].queries
        # every statement classifies back to its own kind
        for stmt in script:
            assert classify_statement(stmt.render()) == stmt.kind

    def test_rare_conjuncts_are_drawn(self):
        """Some scripts carry a WHERE conjunct that reads no column and
        a HAVING ``IS [NOT] NULL`` over an aggregate; the statement text
        is the query's."""
        constant = having_null = 0
        for seed in range(40):
            for stmt in generate_script(seed, PROFILES["default"]):
                if stmt.query is None:
                    continue
                assert stmt.sql == stmt.query.to_sql()
                constant += sum(not p.aliases for p in stmt.query.where)
                having_null += sum(
                    p.sql.endswith(" null") and "(" in p.sql
                    for p in stmt.query.having
                )
        assert constant and having_null

    def test_render_parse_roundtrip(self, tmp_path):
        script = generate_script(3, PROFILES["smoke"])
        path = write_corpus_case(
            tmp_path, 3, "smoke", script, "rows", "full-batch", "detail\nx"
        )
        loaded = load_corpus_script(path)
        assert [s.kind for s in loaded] == [s.kind for s in script]
        assert [s.render() for s in loaded] == [
            s.render() for s in script
        ]

    def test_parse_corpus_strips_comments(self):
        statements = split_statements(
            "-- header\ncreate table t (a int);\n-- note\nselect 1"
        )
        assert statements == ["create table t (a int)", "select 1"]


class TestCheckScript:
    def test_clean_seed(self):
        report = check_script(generate_script(0, PROFILES["smoke"]))
        assert report.ok
        assert report.queries_checked == PROFILES["smoke"].queries
        assert report.configs_run == len(CONFIGS)
        # every executed plan went past the IO oracle, and held
        assert set(report.io) == {config.name for config in CONFIGS}
        for tally in report.io.values():
            assert tally.io_checked >= report.queries_checked
            assert tally.io_equal + tally.io_index_exempt >= tally.io_checked

    def test_detects_io_divergence_and_shrinks_it(self, monkeypatch):
        """An index-free plan whose executed IO differs from the model's
        under actual counts is an ``io`` divergence, shrunk like any
        other."""
        from repro.testing import metamorphic

        monkeypatch.setattr(metamorphic, "exact_io", lambda *args: -1.0)
        script, _ = _failing_script()
        signature = ("io", "full-batch")

        def check(candidate):
            report = check_script(candidate, configs=CONFIGS[:1])
            signatures = {d.signature for d in report.divergences}
            return signature if signature in signatures else None

        assert check(script) == signature
        shrunk = shrink_script(script, check)
        assert [s.kind for s in shrunk] == ["create", "query"]

    def test_detects_error_divergence(self):
        """A config whose optimizer does not exist errors on every
        query — the harness must report it, not swallow it."""
        script = [
            Stmt("create", "create table t (a int)"),
            Stmt("insert", "insert into t values (1), (2)"),
            Stmt("query", "select t.a as x from t t"),
        ]
        bogus = EngineConfig("bogus", optimizer="nosuch")
        report = check_script(script, configs=(CONFIGS[0], bogus))
        assert not report.ok
        kinds = {d.signature for d in report.divergences}
        assert ("error", "bogus") in kinds

    def test_setup_error_reported(self):
        script = [Stmt("insert", "insert into ghost values (1)")]
        report = check_script(script)
        assert not report.ok
        assert report.divergences[0].kind == "setup-error"

    def _view_script(self, late_insert: str):
        """A query the view ``mv`` answers, then *late_insert*."""
        rows = ", ".join(f"({i % 10}, {i})" for i in range(3000))
        return [
            Stmt("create", "create table t (a int, b int)"),
            Stmt("create", "create table u (c int)"),
            Stmt("insert", f"insert into t values {rows}"),
            Stmt(
                "matview",
                "create materialized view mv as "
                "select t.a, sum(t.b) as s from t t group by t.a",
            ),
            Stmt("query", "select t.a, sum(t.b) as s from t t group by t.a"),
            Stmt("insert", late_insert),
        ]

    def test_recheck_counts_plans_that_outlived_writes(self):
        configs = (CONFIGS[0], PLANCACHE)
        replanned = check_script(
            self._view_script("insert into t values (1, 5)"), configs=configs
        )
        kept = check_script(
            self._view_script("insert into u values (1)"), configs=configs
        )
        assert replanned.ok and kept.ok
        assert set(replanned.recheck) == {PLANCACHE.name}
        tally = replanned.recheck[PLANCACHE.name]
        assert (tally.rechecked, tally.survived) == (1, 0)
        tally = kept.recheck[PLANCACHE.name]
        assert (tally.rechecked, tally.survived) == (1, 1)

    def test_recheck_catches_a_plan_served_past_its_write(self, monkeypatch):
        """A plan answered from a view that a later insert staled, if
        served again, reads the stale view: a ``recheck`` divergence."""
        from repro.catalog.catalog import Catalog

        monkeypatch.setattr(
            Catalog, "changed_since", lambda self, relations, epoch: False
        )
        report = check_script(
            self._view_script("insert into t values (1, 5)"),
            configs=(CONFIGS[0], PLANCACHE),
        )
        assert [d.signature for d in report.divergences] == [
            ("recheck", PLANCACHE.name)
        ]
        assert "cached" in report.divergences[0].detail

    def test_needs_reference(self):
        assert needs_reference("select stddev(t.a) from t t")
        assert needs_reference("select median(t.a) from t t")
        assert not needs_reference("select sum(t.a) from t t")


def _failing_script():
    """A script that diverges under a bogus-optimizer config, plus the
    check function preserving that signature."""
    script = [
        Stmt("create", "create table t (a int, b int)"),
        Stmt("create", "create table spare (c int)"),
        Stmt("insert", "insert into t values (1, 2), (3, 4)"),
        Stmt("insert", "insert into spare values (9)"),
        Stmt("query", "select t.b as x from t t"),
    ]
    bogus = EngineConfig("bogus", optimizer="nosuch")
    signature = ("error", "bogus")

    def check(candidate):
        report = check_script(candidate, configs=(CONFIGS[0], bogus))
        for divergence in report.divergences:
            # keep the signature precise: a missing table also errors
            # under the bogus config, but with a BindError detail
            if (
                divergence.signature == signature
                and "unknown optimizer" in divergence.detail
            ):
                return signature
        return None

    return script, check


class TestShrinker:
    def test_shrinks_to_minimal_repro(self):
        script, check = _failing_script()
        shrunk = shrink_script(script, check)
        # minimal: the table the query needs, plus the query
        assert [s.kind for s in shrunk] == ["create", "query"]
        assert "spare" not in render_script(shrunk)

    def test_rejects_passing_input(self):
        _, check = _failing_script()
        passing = [Stmt("create", "create table t (a int)")]
        with pytest.raises(ValueError):
            shrink_script(passing, check)

    def test_budget_returns_best_so_far(self):
        script, check = _failing_script()
        shrinker = Shrinker(script, check, max_checks=2)
        result = shrinker.run()
        assert shrinker.budget_exhausted
        # still fails with the original signature
        assert check(result) == ("error", "bogus")

    def test_reduces_to_the_rare_conjuncts(self):
        """The generator's rare conjuncts shrink like any other: a
        repro that needs only an alias-free WHERE conjunct and a HAVING
        ``IS NULL`` of an aggregate keeps those two, one relation and
        the aggregate's select item."""
        query = QuerySpec(
            relations=[RelRef("t1", "r1"), RelRef("t2", "r2")],
            select=[
                SelectItem("x1", "r1.c0", frozenset({"r1"})),
                SelectItem("x2", "sum(r1.c1)", frozenset({"r1"}), True),
                SelectItem("x3", "count(*)", frozenset(), True),
            ],
            where=[
                PredSpec("r1.c0 = r2.c0", frozenset({"r1", "r2"})),
                PredSpec("1 = 0", frozenset()),
                PredSpec("r2.c1 > 3", frozenset({"r2"})),
            ],
            group_by=["r1.c0"],
            having=[
                PredSpec("sum(r1.c1) is null", frozenset({"r1"})),
                PredSpec("count(*) > 1", frozenset()),
            ],
        )
        script = [
            Stmt("create", "create table t1 (c0 int, c1 int)"),
            Stmt("create", "create table t2 (c0 int, c1 int)"),
            Stmt("query", query.to_sql(), query=query),
        ]

        def check(candidate):
            text = render_script(candidate)
            if " 1 = 0" in text and "sum(r1.c1) is null" in text:
                return "both"
            return None

        (shrunk,) = shrink_script(script, check)
        assert [p.sql for p in shrunk.query.where] == ["1 = 0"]
        assert [p.sql for p in shrunk.query.having] == [
            "sum(r1.c1) is null"
        ]
        assert [rel.alias for rel in shrunk.query.relations] == ["r1"]
        assert len(shrunk.query.select) == 1

    def test_synthetic_ddmin(self):
        """ddmin over a pure-statement failure condition: needs both
        marker statements, nothing else."""
        script = [Stmt("query", f"select {i}") for i in range(12)]

        def check(candidate):
            texts = {stmt.sql for stmt in candidate}
            if "select 3" in texts and "select 9" in texts:
                return "both"
            return None

        shrunk = shrink_script(script, check)
        assert sorted(s.sql for s in shrunk) == ["select 3", "select 9"]


class TestRunFuzz:
    def test_clean_run_reports(self):
        report = run_fuzz(seeds=2, profile="smoke")
        assert report.ok
        assert report.seeds_run == 2
        assert report.queries_checked == 2 * PROFILES["smoke"].queries
        decoded = json.loads(report.to_json())
        assert decoded["seeds_planned"] == 2
        assert decoded["divergences"] == []
        assert decoded["io"]["full-batch"] == {
            "io_checked": report.queries_checked,
            "io_equal": report.queries_checked,
            "io_index_exempt": report.io["full-batch"].io_index_exempt,
            "filters_fired": report.io["full-batch"].filters_fired,
            "folds": report.io["full-batch"].folds,
            "ordered_searches": report.io["full-batch"].ordered_searches,
        }

    def test_duration_cap_stops_early(self):
        report = run_fuzz(seeds=500, profile="smoke", duration=0.0)
        assert report.stopped_by_duration
        assert report.seeds_run < 500

    def test_divergence_is_shrunk_and_archived(self, tmp_path, monkeypatch):
        """When a check diverges, the runner shrinks the script and
        writes a self-contained corpus file."""
        from repro.testing import metamorphic, runner

        bogus = EngineConfig("bogus", optimizer="nosuch")
        patched_configs = (CONFIGS[0], bogus)

        def patched_check(script, configs=patched_configs, **kwargs):
            return metamorphic.check_script(script, configs=configs)

        monkeypatch.setattr(runner, "check_script", patched_check)
        report = runner.run_fuzz(
            seeds=1, profile="smoke", corpus_dir=tmp_path
        )
        assert not report.ok
        record = report.divergences[0]
        assert record.kind == "error" and record.config == "bogus"
        assert record.shrunk_statements <= record.original_statements
        assert record.corpus_path is not None
        # the archived case replays to the same divergence
        replay = load_corpus_script(tmp_path / record.corpus_path.split("/")[-1])
        replay_report = metamorphic.check_script(
            replay, configs=patched_configs
        )
        assert ("error", "bogus") in {
            d.signature for d in replay_report.divergences
        }

    def test_one_record_per_signature(self, monkeypatch):
        """Many queries failing the same way collapse into one record."""
        from repro.testing import metamorphic, runner

        bogus = EngineConfig("bogus", optimizer="nosuch")

        def patched_check(script, **kwargs):
            return metamorphic.check_script(
                script, configs=(CONFIGS[0], bogus)
            )

        monkeypatch.setattr(runner, "check_script", patched_check)
        report = runner.run_fuzz(seeds=1, profile="smoke", shrink=False)
        assert len(report.divergences) == 1
