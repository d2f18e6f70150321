"""Property test: SQL round-trip over random canonical queries.

For every generated query: unparse -> re-bind -> evaluate must give the
same bag of rows as the original. Exercises the unparser, the parser,
and the binder together on structurally diverse inputs.

``TestSqlgenFixedPoint`` drives the same loop from the fuzzer's
grammar (:mod:`repro.testing.sqlgen`), whose queries carry subqueries
and LEFT JOIN clauses: ``unparse(bind(sql))`` must be a *fixed point* —
re-binding the emitted text and unparsing again reproduces it
byte-for-byte, so nothing (join kinds, subquery specs, negation,
null-awareness) is dropped or reordered on the way through.

``TestLiteralRoundTrip`` checks the one spelling the unparser and the
lexer must agree on by themselves: a literal. ``repr(float)`` may carry
an exponent and a string may hold a quote (emitted as ``''``), a ``;``
or ``--``; each must re-bind to the value it was written from.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Literal
from repro.db import Database
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.sql import bind_sql
from repro.sql.unparse import expression_to_sql, query_to_sql
from repro.testing.runner import PROFILES
from repro.testing.sqlgen import generate_script
from repro.workloads import RandomQueryConfig, random_queries


@st.composite
def generated_query(draw):
    seed = draw(st.integers(min_value=0, max_value=5000))
    db, queries = random_queries(
        RandomQueryConfig(seed=seed, queries=2, fact_rows=60, dim_rows=8)
    )
    index = draw(st.integers(min_value=0, max_value=len(queries) - 1))
    return db, queries[index]


class TestUnparseRoundTrip:
    @given(case=generated_query())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_semantics(self, case):
        db, query = case
        emitted = query_to_sql(query)
        rebound = bind_sql(emitted, db.catalog)
        original_rows = evaluate_canonical(query, db.catalog).rows
        rebound_rows = evaluate_canonical(rebound, db.catalog).rows
        assert rows_equal_bag(original_rows, rebound_rows), emitted

    @given(case=generated_query())
    @settings(max_examples=15, deadline=None)
    def test_round_trip_optimizes_identically_correct(self, case):
        db, query = case
        rebound = bind_sql(query_to_sql(query), db.catalog)
        from repro.optimizer import optimize_query

        result = optimize_query(rebound, db.catalog, db.params)
        rows, _ = db.execute_plan(result.plan)
        reference = evaluate_canonical(query, db.catalog)
        assert rows_equal_bag(reference.rows, rows.rows)


@st.composite
def sqlgen_query(draw):
    """One fuzz-grammar query (subqueries / LEFT JOIN included) plus a
    database holding its script's schema and data."""
    seed = draw(st.integers(min_value=0, max_value=4000))
    script = generate_script(seed, PROFILES["smoke"])
    db = Database()
    queries = []
    for stmt in script:
        if stmt.kind == "query":
            queries.append(stmt.render())
        else:
            db.execute(stmt.render())
    assume(queries)
    index = draw(st.integers(min_value=0, max_value=len(queries) - 1))
    return db, queries[index]


class TestSqlgenFixedPoint:
    @given(case=sqlgen_query())
    @settings(max_examples=30, deadline=None)
    def test_parse_unparse_parse_fixed_point(self, case):
        db, sql = case
        first = query_to_sql(db.bind(sql))
        second = query_to_sql(db.bind(first))
        assert second == first, sql

    @given(case=sqlgen_query())
    @settings(max_examples=10, deadline=None)
    def test_unparsed_text_answers_identically(self, case):
        db, sql = case
        emitted = query_to_sql(db.bind(sql))
        assert rows_equal_bag(
            db.reference(sql).rows, db.reference(emitted).rows
        ), emitted


literal_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    # non-dyadic, and small or large enough that repr() uses an exponent
    st.sampled_from([1e-07, -1e-07, 1e20, 2.5e-3, 0.1, 1.5e300]),
    st.text(alphabet="ab'; -\n", max_size=8),
)


class TestLiteralRoundTrip:
    @given(value=literal_values)
    @settings(max_examples=200, deadline=None)
    def test_literal_rebinds_to_its_value(self, value):
        db = Database()
        db.create_table("t", [("i", "int"), ("f", "float"), ("s", "str")])
        column = "s" if isinstance(value, str) else "f"
        spelled = expression_to_sql(Literal(value))
        query = db.bind(f"select t.i from t where t.{column} = {spelled}")
        (predicate,) = query.predicates
        assert predicate.right == Literal(value)
        assert type(predicate.right.value) is type(value)
        emitted = query_to_sql(query)
        rebound = db.bind(emitted)
        assert rebound.predicates == query.predicates, emitted
        assert query_to_sql(rebound) == emitted
