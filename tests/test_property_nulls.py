"""NULL / empty-group aggregate semantics, cross-checked three ways.

Property tests drive NULL-bearing data through the engine, the
brute-force reference evaluator, and a real SQLite database, and assert
they all agree: aggregates skip NULLs,
all-NULL groups yield NULL (``count`` yields 0), NULL grouping keys
form one group, comparisons with NULL drop rows, and NULL join keys
never match.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.reference import rows_equal_bag
from repro.workloads.generator import RandomQueryConfig, build_star_database

maybe_int = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
rows_strategy = st.lists(
    st.tuples(maybe_int, maybe_int), min_size=0, max_size=30
)

AGG_SQL = (
    "select t.k as k, count(*) as n, count(t.v) as nv, sum(t.v) as s, "
    "avg(t.v) as a, min(t.v) as lo, max(t.v) as hi from t t group by t.k"
)
HAVING_SQL = (
    "select t.k as k, sum(t.v) as s from t t "
    "group by t.k having sum(t.v) > 0"
)
FILTER_SQL = "select t.k as k, t.v as v from t t where t.v > 0"
JOIN_SQL = (
    "select a.v as x, b.v as y from t a, u b where a.k = b.k"
)


def build_engine_db(t_rows, u_rows=()):
    db = Database()
    db.create_table("t", [("k", "int"), ("v", "int")], nullable=["k", "v"])
    db.insert("t", t_rows)
    db.create_table("u", [("k", "int"), ("v", "int")], nullable=["k", "v"])
    db.insert("u", u_rows)
    return db


def build_sqlite_db(t_rows, u_rows=()):
    connection = sqlite3.connect(":memory:")
    connection.execute("create table t (k integer, v integer)")
    connection.executemany("insert into t values (?, ?)", list(t_rows))
    connection.execute("create table u (k integer, v integer)")
    connection.executemany("insert into u values (?, ?)", list(u_rows))
    return connection


def all_agree(db, connection, sql):
    """Run one query everywhere and assert bag equality."""
    batch = [tuple(row) for row in db.query(sql).rows]
    reference = [tuple(row) for row in db.reference(sql).rows]
    sqlite_rows = [tuple(row) for row in connection.execute(sql)]
    assert rows_equal_bag(batch, sqlite_rows), (sql, batch, sqlite_rows)
    assert rows_equal_bag(reference, sqlite_rows), (
        sql,
        reference,
        sqlite_rows,
    )


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_null_aggregates_agree(rows):
    db = build_engine_db(rows)
    connection = build_sqlite_db(rows)
    try:
        all_agree(db, connection, AGG_SQL)
        all_agree(db, connection, HAVING_SQL)
        all_agree(db, connection, FILTER_SQL)
    finally:
        connection.close()


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy, u_rows=rows_strategy)
def test_null_join_keys_agree(t_rows, u_rows):
    db = build_engine_db(t_rows, u_rows)
    connection = build_sqlite_db(t_rows, u_rows)
    try:
        all_agree(db, connection, JOIN_SQL)
    finally:
        connection.close()


def test_all_null_group_yields_null():
    """An all-NULL aggregate input is NULL for sum/avg/min/max, 0 for
    count(col) — pinned directly, not just differentially."""
    db = build_engine_db([(1, None), (1, None), (2, 3)])
    rows = {row[0]: row for row in db.query(AGG_SQL).rows}
    assert rows[1] == (1, 2, 0, None, None, None, None)
    assert rows[2] == (2, 1, 1, 3, 3.0, 3, 3)


def test_star_schema_null_shapes_agree():
    """The NULL-enabled star generator feeds all three evaluators the
    same answers (grouped measures, NULL cat keys, all-NULL qty group
    under flag = 2, reserved empty categories)."""
    config = RandomQueryConfig(
        seed=5,
        fact_rows=120,
        dim_rows=15,
        categories=6,
        null_fraction=0.3,
        empty_categories=2,
    )
    db = build_star_database(config)

    connection = sqlite3.connect(":memory:")
    for table in ("dim1", "dim2", "fact"):
        schema = db.catalog.table(table)
        columns = ", ".join(column.name for column in schema.columns)
        holes = ", ".join("?" for _ in schema.columns)
        connection.execute(f"create table {table} ({columns})")
        connection.executemany(
            f"insert into {table} values ({holes})",
            [tuple(row) for row in schema.rows],
        )

    queries = [
        "select f.flag as g, count(*) as n, count(f.qty) as nq, "
        "sum(f.qty) as s, avg(f.price) as p from fact f group by f.flag",
        "select d.cat as c, count(*) as n, sum(d.val) as s "
        "from dim1 d group by d.cat",
        "select d.cat as c, sum(f.qty) as s from fact f, dim1 d "
        "where f.d1_id = d.d1_id group by d.cat having sum(f.qty) > 50",
        "select f.flag as g, max(f.qty) as m from fact f "
        "where f.price > 100 group by f.flag",
    ]
    try:
        for sql in queries:
            all_agree(db, connection, sql)
    finally:
        connection.close()

    # the generator's structural guarantees
    fact = db.catalog.table("fact")
    position = [c.name for c in fact.columns].index("qty")
    flag_position = [c.name for c in fact.columns].index("flag")
    flagged = [row for row in fact.rows if row[flag_position] == 2]
    assert flagged and all(row[position] is None for row in flagged)
    cat_position = [c.name for c in db.catalog.table("dim1").columns].index(
        "cat"
    )
    cats = {
        row[cat_position]
        for row in db.catalog.table("dim1").rows
        if row[cat_position] is not None
    }
    assert cats and max(cats) < config.categories - config.empty_categories


def test_default_config_stays_null_free():
    """null_fraction defaults off: the optimizer experiments keep the
    paper's NULL-free data."""
    db = build_star_database(RandomQueryConfig(seed=3, fact_rows=50))
    for table in ("dim1", "dim2", "fact"):
        for row in db.catalog.table(table).rows:
            assert None not in tuple(row)
