"""One statement grammar: every statement kind is classified by its
first word, tokenized once, parsed by one cursor with one literal
production and one terminator — so each spelling is accepted by every
statement kind or rejected by every one with a positioned error."""

from __future__ import annotations

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro import Database
from repro.errors import SqlSyntaxError
from repro.sql import parse_select
from repro.sql.ddl import maybe_parse_ddl
from repro.sql.lexer import split_statements

ROOT = Path(__file__).resolve().parent.parent

QUERY = "select e.eno from emp e where e.dno = 3"
BODY = "select e.dno, sum(e.sal) as s from emp e group by e.dno"

# One text per production (ANALYZE and EXECUTE have two shapes). None
# can absorb a trailing word, so "<text> garbage" is always an error.
STATEMENTS = [
    "create table t (a int, b text null, c float not null, primary key (a))",
    "create index i on t (a, b)",
    f"create materialized view mv as {BODY}",
    "drop table t",
    "drop index i",
    "drop materialized view mv",
    "refresh materialized view mv",
    "analyze t",
    "insert into t values (1, 'a;b', 2.5), (-2, null, 1e-07)",
    "prepare p as select e.eno from emp e where e.dno = $1",
    "execute p(1, 'it''s', true)",
    "execute p",
    "deallocate p",
    f"explain {BODY}",
    f"explain analyze {BODY}",
    QUERY,
]

_GRAMMAR_WORDS = re.compile(
    r"\b(create|table|index|materialized|view|drop|refresh|analyze|insert"
    r"|into|values|prepare|execute|deallocate|explain|select|from|where"
    r"|group|by|as|on|null|not|primary|key|int|text|float|true|sum)\b"
)


def parse(sql):
    """The parsed statement: a command's dataclass, or a query's AST."""
    statement = maybe_parse_ddl(sql)
    return parse_select(sql) if statement is None else statement


def folded(statement):
    """*statement* with the query text it keeps replaced by that text's
    parse, so spellings that differ in case or comments compare equal."""
    if hasattr(statement, "body_sql"):
        return replace(statement, body_sql=parse_select(statement.body_sql))
    return statement


def upper_words(sql):
    """The grammar's words upper-cased, identifiers and strings left."""
    return _GRAMMAR_WORDS.sub(lambda match: match[0].upper(), sql)


@pytest.mark.parametrize("sql", STATEMENTS)
class TestEveryStatementKind:
    @pytest.mark.parametrize(
        "variant",
        [
            upper_words,
            lambda sql: "  \n\t" + sql,
            lambda sql: sql + ";",
            lambda sql: sql + " ;  ",
            lambda sql: sql + "; -- done; really",
            lambda sql: sql + "\n-- no terminator",
        ],
        ids=["upper", "leading-space", "semicolon", "spaced-semicolon",
             "semicolon-comment", "comment"],
    )
    def test_spelling_variants_parse_alike(self, sql, variant):
        assert folded(parse(variant(sql))) == folded(parse(sql))

    @pytest.mark.parametrize(
        "suffix, line, column_after",
        [(" garbage", 1, 2), ("; garbage", 1, 3), (";\n  garbage", 2, None)],
        ids=["word", "after-semicolon", "next-line"],
    )
    def test_trailing_garbage_is_positioned(
        self, sql, suffix, line, column_after
    ):
        with pytest.raises(SqlSyntaxError) as info:
            parse(sql + suffix)
        assert "unexpected trailing input (found 'garbage')" in str(info.value)
        column = 3 if column_after is None else len(sql) + column_after
        assert (info.value.line, info.value.column) == (line, column)

    def test_a_second_terminator_is_trailing_input(self, sql):
        with pytest.raises(SqlSyntaxError, match="trailing input"):
            parse(sql + ";;")


class TestOneLiteralGrammar:
    """SELECT, INSERT and EXECUTE read a literal through one production."""

    CONTEXTS = {
        "select": ("select t.a from t where t.a = ", ""),
        "insert": ("insert into t values (7, ", ")"),
        "execute": ("execute p(7, ", ")"),
    }

    @staticmethod
    def value_in(context, statement):
        if context == "select":
            return statement.where.right.value
        if context == "insert":
            return statement.rows[0][1]
        return statement.values[1]

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize(
        "spelling, value",
        [
            ("1e0", 1.0),
            ("2.5E-3", 0.0025),
            ("1e+20", 1e20),
            ("'it''s'", "it's"),
            ("'a;b'", "a;b"),
            ("-1", -1),
            ("-1e-07", -1e-07),
            ("10", 10),
            ("true", True),
        ],
    )
    def test_accepted_everywhere(self, context, spelling, value):
        prefix, suffix = self.CONTEXTS[context]
        got = self.value_in(context, parse(prefix + spelling + suffix))
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize(
        "spelling, offending",
        [("1_0", 1), ("１", 0), ("1e", 1), ("1.5e+", 3), ("'unterminated", 0)],
        ids=["underscore", "fullwidth-digit", "bare-exponent",
             "signed-bare-exponent", "unterminated"],
    )
    def test_rejected_everywhere_at_the_offending_character(
        self, context, spelling, offending
    ):
        prefix, suffix = self.CONTEXTS[context]
        with pytest.raises(SqlSyntaxError) as info:
            parse(prefix + spelling + suffix)
        assert info.value.line == 1
        assert info.value.column == len(prefix) + offending + 1

    def test_null_is_a_value_only_where_a_row_or_argument_is_read(self):
        assert parse("insert into t values (null)").rows == ((None,),)
        assert parse("execute p(NULL)").values == (None,)
        with pytest.raises(SqlSyntaxError, match="expected an expression"):
            parse("select t.a from t where t.a = null")

    def test_limit_takes_an_integer_not_an_exponent(self):
        assert parse("select t.a from t limit 3").limit == 3
        with pytest.raises(SqlSyntaxError, match="LIMIT expects an integer"):
            parse("select t.a from t limit 1e3")


class TestFirstWordDecidesTheKind:
    @pytest.mark.parametrize(
        "sql",
        ["creates table t (a int)", "analyzer", "preparex p as select 1",
         "executes p(1)", "insertinto t values (1)", "drop_table t"],
    )
    def test_a_near_miss_is_a_query(self, sql):
        assert maybe_parse_ddl(sql) is None
        word = sql.split()[0]
        with pytest.raises(SqlSyntaxError) as info:
            Database().execute(sql)
        assert f"expected SELECT (found {word!r})" in str(info.value)
        assert (info.value.line, info.value.column) == (1, 1)

    def test_select_and_with_are_queries(self):
        assert maybe_parse_ddl(QUERY) is None
        assert maybe_parse_ddl("  WITH v(a) AS (select 1) select 2") is None
        assert maybe_parse_ddl("") is None and maybe_parse_ddl(" ; ") is None


class TestErrorsNameTheRightPlace:
    def test_execute_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError) as info:
            parse("execute r(2) garbage")
        assert str(info.value) == (
            "unexpected trailing input (found 'garbage') at line 1, column 14"
        )

    @pytest.mark.parametrize(
        "head", ["create materialized view mv as ", "prepare p as ",
                 "explain ", "explain analyze "],
    )
    @pytest.mark.parametrize(
        "body, marker",
        [("select e.dno from emp e @", "@"),
         ("select e.dno from emp e where and e.dno = 1", "and"),
         ("select e.dno\nfrom emp e\nwhere e.dno = = 1", "= 1")],
        ids=["lexical", "syntactic", "third-line"],
    )
    def test_body_errors_are_positioned_in_the_statement(
        self, head, body, marker
    ):
        sql = head + body
        with pytest.raises(SqlSyntaxError) as info:
            parse(sql)
        offset = sql.index(marker)
        line_start = sql.rfind("\n", 0, offset) + 1
        assert info.value.line == sql.count("\n", 0, offset) + 1
        assert info.value.column == offset - line_start + 1

    def test_materialized_view_without_a_body_keeps_its_message(self):
        for sql in (
            "create materialized view mv",
            "create materialized view mv as",
            "create materialized view",
            "create materialized view 7 as select 1",
        ):
            with pytest.raises(SqlSyntaxError) as info:
                parse(sql)
            assert "expected CREATE MATERIALIZED VIEW <name> AS <select>" in str(
                info.value
            )

    def test_body_text_is_the_statements_own_slice(self):
        for head in ("create materialized view mv as ", "prepare p as "):
            statement = parse(f"  {head}{BODY}  ; -- trailing")
            assert statement.body_sql == BODY
            assert statement.body == parse_select(BODY)
        assert parse(f"explain analyze\n{BODY};").body_sql == BODY


class TestThroughTheSession:
    """The Motivation's probes, end to end: what a client sees."""

    @pytest.fixture
    def session(self, emp_dept_db):
        with emp_dept_db.session() as session:
            yield session

    def test_every_kind_takes_a_terminator(self, session):
        for sql in (
            "create table t (a int, b text);",
            "insert into t values (1, 'a;b'), (2, 'it''s');",
            "prepare p as select t.b from t where t.a = $1;",
            "execute p(2);",
            "deallocate p ; ",
            "analyze t;",
        ):
            session.execute(sql)
        result = session.execute("select t.b from t where t.b = 'it''s';")
        assert result.rows == [("it's",)]
        result = session.execute("select t.a from t where t.b = 'a;b'")
        assert result.rows == [(1,)]

    def test_prepared_text_is_the_body(self, session):
        session.execute(f"  PREPARE p AS {BODY} ;")
        assert session.prepared["p"].sql == BODY

    def test_session_statements_are_not_the_databases(self, emp_dept_db):
        from repro.errors import ReproError

        for sql in ("execute p(1)", "deallocate p", f"explain {BODY}"):
            with pytest.raises(ReproError, match="session statement"):
                emp_dept_db.execute(sql)


class TestExplainStatement:
    @pytest.fixture
    def session(self, emp_dept_db):
        with emp_dept_db.session() as session:
            yield session

    def test_explain_plans_but_does_not_run(self, session, emp_dept_db):
        result = session.execute(f"EXPLAIN {BODY}")
        assert (result.kind, result.columns) == ("explain", ["plan"])
        lines = [line for (line,) in result.rows]
        direct = emp_dept_db.query(BODY, execute=False)
        assert lines[:-2] == direct.explain().splitlines()
        assert lines[-2] == (
            f"estimated cost: {direct.estimated_cost:.0f} page IOs"
        )
        assert result.query_result.executed_io is None
        assert "actual rows=" not in "\n".join(lines)

    def test_explain_ends_with_the_traditional_baseline(
        self, session, emp_dept_db
    ):
        """One line after the footer: the baseline the optimizer
        compared with, the gain, and the pull-up that earned it."""
        lines = [line for (line,) in session.execute(f"explain {BODY}").rows]
        assert lines[-1] == "traditional plan: 1 page IOs (1.00x)"
        pulled = (
            "with a1(dno, asal) as (select e2.dno, avg(e2.sal) from emp e2 "
            "group by e2.dno) select e1.sal from emp e1, a1 b "
            "where e1.dno = b.dno and e1.age < 19 and e1.sal > b.asal"
        )
        result = session.execute(f"explain {pulled}")
        optimization = result.query_result.optimization
        assert optimization.pull_choices == {"b": ("e1",)}
        assert result.rows[-1][0] == (
            f"traditional plan: {optimization.traditional_cost:.0f} page IOs "
            f"({optimization.improvement_over_traditional:.2f}x)"
            "; pulled up: b <- (e1)"
        )
        with emp_dept_db.session(optimizer="traditional") as plain:
            rows = plain.execute(f"explain {BODY}").rows
        assert rows[-1][0].startswith("estimated cost: ")  # no baseline

    def test_explain_analyze_runs_and_reports(self, session):
        result = session.execute(f"explain analyze {BODY};")
        lines = [line for (line,) in result.rows]
        assert all("actual rows=" in line for line in lines[:-2])
        executed = result.query_result.executed_io.total
        assert lines[-2].endswith(f"/ executed {executed} page IOs")
        assert executed > 0

    def test_inner_text_goes_through_the_plan_cache(self, session, emp_dept_db):
        assert not session.execute(f"explain {BODY}").cache_hit
        before = emp_dept_db.plan_cache.as_dict()
        assert session.execute(BODY).cache_hit  # the text front knows it
        assert session.execute(f"explain analyze {BODY}").cache_hit
        after = emp_dept_db.plan_cache.as_dict()
        assert after["text_hits"] == before["text_hits"] + 2
        assert after["misses"] == before["misses"]

    def test_explain_works_over_the_wire(self, emp_dept_db):
        from repro.server.net import ServerThread

        with ServerThread(emp_dept_db) as server, server.client() as client:
            columns, rows = client.execute(f"explain analyze {BODY};")
        assert columns == ["plan"]
        assert "GroupBy" in "\n".join(row[0] for row in rows)
        assert rows[-2][0].startswith("estimated ")
        assert rows[-1][0].startswith("traditional plan: ")

    def test_analyze_of_an_ad_hoc_parameter_is_refused(self, session):
        from repro.errors import PlanError

        sql = "select e.eno from emp e where e.dno = $1"
        assert session.execute(f"explain {sql}").rows
        with pytest.raises(PlanError, match="PREPARE"):
            session.execute(f"explain analyze {sql}")


class TestSplitStatements:
    def test_semicolons_in_strings_and_comments_end_nothing(self):
        assert split_statements(
            "-- setup; not a statement\n"
            "insert into t values (1, 'a;b');;\n"
            "  select t.a -- one; two\n  from t ; select 2"
        ) == [
            "insert into t values (1, 'a;b')",
            "select t.a -- one; two\n  from t",
            "select 2",
        ]
        assert split_statements("  ;; -- nothing\n") == []

    def test_a_script_that_cannot_be_lexed_is_a_positioned_error(self):
        with pytest.raises(SqlSyntaxError) as info:
            split_statements("select 1;\nselect 'oops")
        assert (info.value.line, info.value.column) == (2, 8)

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "tests" / "corpus").glob("*.sql")),
        ids=lambda path: path.stem,
    )
    def test_corpus_files_split_as_the_line_filter_did(self, path):
        """Reference: the hand comment filter + ``split(";")`` that
        ``runner.parse_corpus_sql`` was until the lexer took over."""
        text = path.read_text()
        kept = [
            line
            for line in text.splitlines()
            if not line.lstrip().startswith("--")
        ]
        expected = [
            chunk.strip()
            for chunk in "\n".join(kept).split(";")
            if chunk.strip()
        ]
        assert split_statements(text) == expected


def test_every_tracer_hook_resolves():
    """``benchmarks/e2e/tracing.py`` wraps these twenty names from
    outside; a rename here silently drops a layer from the benchmark
    (``harness.hooks_missing``), which only a 60-second run notices."""
    spec = importlib.util.spec_from_file_location(
        "e2e_tracing", ROOT / "benchmarks" / "e2e" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.HOOKS) == 20
    for _, module_name, attribute in tracing.HOOKS:
        owner = tracing.resolve_owner(module_name, attribute)
        name = attribute.rsplit(".", 1)[-1]
        assert callable(getattr(owner, name, None)), (
            f"{module_name}.{attribute} is gone"
        )
