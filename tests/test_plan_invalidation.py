"""The invalidation matrix: a write replans exactly the statements that
read what it wrote.

Every mutator runs on a warm session over ``emp_dept_db`` plus a
``sales`` table (large enough that the materialized view ``esales``
answers its grouping), the holistic view ``smed`` over it (left stale),
an index, a plain view and a ``locs`` table nothing else reads. Each
row names the statements the mutator touches; those must replan (a
prepared one counts a replan), the rest must keep their plans, and
every answer must equal ``Database.reference``.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Callable, FrozenSet, NamedTuple

import pytest

from repro import Database
from repro.algebra.plan import ScanNode
from repro.engine.reference import rows_equal_bag
from repro.errors import BindError

SALES_KEY = 7
STATEMENTS = {
    "reads": f"SELECT s.eno, s.amount FROM sales s WHERE s.eno = {SALES_KEY}",
    "other": "SELECT d.dno, d.budget FROM dept d WHERE d.loc = 1",
    "matview": (
        "SELECT s.eno, SUM(s.amount) AS total FROM sales s GROUP BY s.eno"
    ),
    "locs": "SELECT l.loc, l.name FROM locs l",
}
PREPARE = "PREPARE p AS SELECT s.eno, s.amount FROM sales s WHERE s.eno = $1"
EXECUTE = f"EXECUTE p({SALES_KEY})"
ALL = frozenset(STATEMENTS) | {"prepared"}
SALES = frozenset({"reads", "matview", "prepared"})
NONE: FrozenSet[str] = frozenset()
RELATIONS = (
    "sales", "emp", "dept", "locs", "esales", "__mv__esales", "smed",
    "__mv__smed", "scount", "__mv__scount", "extra",
)
"""Every relation name a row may stamp (``test_each_mutator_stamps``)."""
SALES_VIEWS = {"esales", "__mv__esales", "smed", "__mv__smed"}
SCHEMA = "<schema>"


class Mutator(NamedTuple):
    name: str
    action: Callable
    touched: FrozenSet[str]
    """The statements that read what the action writes."""
    stamps: FrozenSet[str]
    """The relations it stamps; ``SCHEMA`` for a schema-wide change."""


def sql(text):
    return lambda session: session.execute(text)


def api(method, *args):
    return lambda session: getattr(session.db, method)(*args)


MUTATORS = [
    Mutator(
        "insert",
        sql(f"INSERT INTO sales VALUES ({SALES_KEY}, 2.5), (9, 1.0)"),
        SALES,
        frozenset({"sales"} | SALES_VIEWS),
    ),
    Mutator(
        "create_index",
        sql("CREATE INDEX sales_amount_idx ON sales (amount)"),
        SALES,
        frozenset({"sales"}),
    ),
    Mutator(
        "drop_index", sql("DROP INDEX sales_eno_idx"), SALES,
        frozenset({"sales"}),
    ),
    Mutator("analyze_table", sql("ANALYZE sales"), SALES, frozenset({"sales"})),
    Mutator(
        "analyze_matview",
        sql("ANALYZE esales"),
        SALES,
        frozenset({"esales", "__mv__esales"}),
    ),
    Mutator("analyze_all", sql("ANALYZE"), ALL, frozenset({SCHEMA})),
    Mutator(
        "add_foreign_key",
        api("add_foreign_key", "sales", ["eno"], "emp", ["eno"]),
        SALES,
        frozenset({"sales", "emp"}),
    ),
    Mutator(
        "create_matview",
        sql(
            "CREATE MATERIALIZED VIEW scount AS "
            "SELECT s.eno, COUNT(*) AS n FROM sales s GROUP BY s.eno"
        ),
        SALES,
        frozenset({"sales", "scount", "__mv__scount"}),
    ),
    Mutator(
        "drop_matview",
        sql("DROP MATERIALIZED VIEW esales"),
        SALES,
        frozenset({"sales", "esales", "__mv__esales"}),
    ),
    Mutator(
        "refresh_stale",
        sql("REFRESH MATERIALIZED VIEW smed"),
        SALES,
        frozenset({"smed", "__mv__smed"}),
    ),
    Mutator(
        "refresh_noop", sql("REFRESH MATERIALIZED VIEW esales"), NONE, NONE
    ),
    Mutator(
        "create_view",
        api(
            "create_view", "poor", ["eno", "n"],
            "select s.eno, count(*) from sales s where s.amount < 5 "
            "group by s.eno",
        ),
        ALL,
        frozenset({SCHEMA}),
    ),
    Mutator(
        "drop_view",
        lambda session: session.db.catalog.drop_view("rich"),
        ALL,
        frozenset({SCHEMA}),
    ),
    Mutator(
        "create_table",
        sql("CREATE TABLE extra (a int)"),
        NONE,
        frozenset({"extra"}),
    ),
    Mutator(
        "drop_table", sql("DROP TABLE locs"), frozenset({"locs"}),
        frozenset({"locs"}),
    ),
]


def reads(plan):
    if isinstance(plan, ScanNode):
        yield plan.table_name
    for child in plan.children:
        yield from reads(child)


@pytest.fixture
def warm(emp_dept_db):
    """The database above and a session on which every statement ran
    twice, the second time from the plan cache."""
    db = emp_dept_db
    rng = random.Random(7)
    db.execute("CREATE TABLE sales (eno int, amount float)")
    db.insert(
        "sales",
        [(rng.randrange(140), rng.randrange(1, 400) / 4) for _ in range(3000)],
    )
    db.execute("CREATE INDEX sales_eno_idx ON sales (eno)")
    db.execute("CREATE TABLE locs (loc int, name text)")
    db.execute("INSERT INTO locs VALUES (0, 'north'), (1, 'south')")
    db.execute(
        "CREATE MATERIALIZED VIEW esales AS "
        "SELECT s.eno, SUM(s.amount) AS total FROM sales s GROUP BY s.eno"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW smed AS "
        "SELECT s.eno, MEDIAN(s.amount) AS m FROM sales s GROUP BY s.eno"
    )
    db.create_view(
        "rich", ["eno", "n"],
        "select s.eno, count(*) from sales s where s.amount > 90 "
        "group by s.eno",
    )
    # stales both views; the warm-up's lazy refresh freshens esales,
    # and smed, holistic, stays stale until REFRESH
    db.execute("INSERT INTO sales VALUES (3, 50.0)")
    with db.session() as session:
        session.execute(PREPARE)
        for first in (True, False):
            for text in STATEMENTS.values():
                assert session.execute(text).cache_hit is not first
            session.execute(EXECUTE)
        assert "__mv__esales" in reads(
            session.execute(STATEMENTS["matview"]).query_result.plan
        )
        assert db.catalog.materialized_view("smed").stale
        assert session.prepared["p"].replans == 0
        yield session


def check(session, name: str, hit: bool) -> None:
    """Run statement *name*: a plan-cache hit iff *hit*, answering as
    the reference evaluator does over the current data."""
    db = session.db
    if name == "prepared":
        replans = session.prepared["p"].replans
        result = session.execute(EXECUTE)
        assert session.prepared["p"].replans == replans + (not hit)
        if hit:
            assert result.cache_hit
        text = STATEMENTS["reads"]
    else:
        text = STATEMENTS[name]
        result = session.execute(text)
        assert result.cache_hit is hit
    expected = db.reference(text).rows
    assert rows_equal_bag(result.rows, expected, rel_tol=1e-9)


@pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.name)
def test_statements_reading_what_it_wrote_replan(warm, mutator):
    mutator.action(warm)
    for name in sorted(mutator.touched):
        if name == "locs" and mutator.name == "drop_table":
            for run in (warm.execute, warm.db.reference):
                with pytest.raises(BindError, match="unknown table"):
                    run(STATEMENTS["locs"])
            continue
        check(warm, name, hit=False)


@pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.name)
def test_statements_not_reading_it_keep_their_plans(warm, mutator):
    mutator.action(warm)
    for name in sorted(ALL - mutator.touched):
        check(warm, name, hit=True)


@pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.name)
def test_each_mutator_stamps_what_it_names(warm, mutator):
    catalog = warm.db.catalog
    before = catalog.change_epoch
    mutator.action(warm)
    stamped = {
        name
        for name in RELATIONS
        if catalog.changed_since({name}, before)
        and not catalog.changed_since(frozenset(), before)
    }
    if catalog.changed_since(frozenset(), before):
        stamped.add(SCHEMA)
    assert stamped == mutator.stamps
    assert (catalog.change_epoch > before) is bool(mutator.stamps)


def test_write_between_prepare_and_execute_elsewhere_keeps_the_plan(warm):
    """The prepared plan is re-stamped, not rebuilt, by a write it does
    not read — repeatedly — and rebuilt once by one it does."""
    for dno in (70, 71, 72):
        warm.execute(f"INSERT INTO dept VALUES ({dno}, 1.0, 1)")
        check(warm, "prepared", hit=True)
    warm.execute(f"INSERT INTO sales VALUES ({SALES_KEY}, 1.5)")
    check(warm, "prepared", hit=False)
    check(warm, "prepared", hit=True)


def test_readers_beside_a_writer_revalidate_and_see_every_commit():
    """Readers repeating a text over a table nobody writes and one over
    the table a writer inserts into: the first keeps its plan through
    every insert, the second never answers with less than was committed
    when it began."""
    db = Database()
    db.create_table("t", [("a", "int")])
    db.insert("t", [(i,) for i in range(50)])
    db.create_table("u", [("a", "int")])
    still, grows = "SELECT t.a FROM t t", "SELECT u.a FROM u u"
    inserts = 120
    committed = [0]
    problems = []
    done = threading.Event()
    readers = 3
    warm = threading.Barrier(readers + 1, timeout=30)

    def write():
        try:
            with db.session() as session:
                warm.wait()  # every reader planned both texts
                for i in range(inserts):
                    session.execute(f"INSERT INTO u VALUES ({i})")
                    committed[0] = i + 1
        except Exception as error:  # surfaced by the assert below
            problems.append(repr(error))
        finally:
            done.set()

    def read():
        try:
            with db.session() as session:
                first, finishing = True, False
                while not finishing:
                    finishing = done.is_set()
                    if len(session.execute(still).rows) != 50:
                        problems.append("t changed")
                    floor = committed[0]
                    seen = len(session.execute(grows).rows)
                    if not floor <= seen <= committed[0] + 1:
                        problems.append((floor, seen))
                    if first:
                        warm.wait()
                        first = False
        except Exception as error:
            problems.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(readers)
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
    stats = db.plan_cache.as_dict()
    assert stats["revalidated"] > 0
    # only the entry over u was ever invalidated, at most once per insert
    assert stats["invalidations"] <= inserts
    with db.session() as session:
        assert session.execute(still).cache_hit
