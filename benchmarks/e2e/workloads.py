"""The four workloads: their shapes, their passes, and their set-up.

A *shape* is one named statement text (with at most one literal slot);
a *pass* runs every shape of the workload once — point shapes run
``reps`` consecutive keys of their hot set. Everything here is a pure
function of ``(workload, seed, pass index)``: the same seed gives the
same statements, inserts and counts on every commit.

Only the public API is used: ``Database`` and its DDL methods for
set-up, SQL text for everything timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import datagen

DEFAULT_SEED = 20260926
"""Seed used when ``--seed`` is absent and by ``aa`` / ``--smoke``."""

HELD_OUT_SEED = 19960325
"""Never used while tuning this benchmark; a later claim must also hold
on it (choosing-metrics §6.3)."""

HOT_KEYS = 32
"""Keys per point shape on ``point_lookup``: 3 text shapes x 32 = 96
plan-cache signatures, below the 128-entry capacity, so every warm
statement hits."""

COLD_LITERALS = 300
"""Distinct literals per ``plan_cold`` shape. A (shape, literal) pair
recurs after 300 passes x 5 shapes = 1500 statements, far beyond the
128-entry LRU, so every statement misses."""

INSERT_EVERY = 4
REFRESH_EVERY = 16

MATVIEW_SQL = (
    "select l.custkey, count(*) as n, sum(l.amount) as total "
    "from ledger l group by l.custkey"
)

# Statement kinds: what the answer is checked against.
STATIC = "static"    # sqlite answer for (shape, literal), fixed for the run
LEDGER = "ledger"    # closed-form ledger model at the current batch count
WRITE = "write"      # acknowledgement only


@dataclass(frozen=True)
class Shape:
    """One named statement text. ``{k}`` is the literal slot."""

    name: str
    sql: str
    kind: str = STATIC
    literal_base: int = 0
    """``plan_cold``: literals are ``literal_base + 0..COLD_LITERALS-1``."""
    key_table: Optional[str] = None
    """Point shapes: the table whose first column supplies hot keys."""
    oracle_sql: Optional[str] = None
    """What sqlite runs when it differs from ``sql`` (EXECUTE)."""
    why: str = ""


class Statement(NamedTuple):
    shape: str
    sql: str
    kind: str
    literal: Optional[int]


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------

_REV_VIEW = (
    "rev(orderkey, revenue) as (select l.orderkey, "
    "sum(l.price * (100 - l.discount)) from lineitem l group by l.orderkey)"
)

DSS_SHAPES = (
    Shape(
        "rev_per_customer",
        f"with {_REV_VIEW} select o.custkey, sum(r.revenue) as total "
        "from orders o, rev r where o.orderkey = r.orderkey "
        "and o.orderdate < 700 group by o.custkey",
        why="aggregate view joined to filtered orders under an outer "
        "group-by: the paper's canonical form",
    ),
    Shape(
        "big_spenders",
        "select c.custkey, c.acctbal from customer c where c.acctbal > "
        "(select avg(o.totalprice) from orders o where o.custkey = c.custkey)",
        why="correlated scalar aggregate, flattened by Kim's transformation",
    ),
    Shape(
        "supplier_share",
        "with srev(suppkey, srevenue) as (select l.suppkey, "
        "sum(l.price * (100 - l.discount)) from lineitem l group by l.suppkey) "
        "select s.nation, max(v.srevenue) as best from supplier s, srev v "
        "where s.suppkey = v.suppkey and s.acctbal > 0 group by s.nation",
        why="view over the fact table rolled up by a dimension attribute",
    ),
    Shape(
        "fanout_grouped",
        "select o.custkey, count(*) as n, sum(l.quantity) as qty "
        "from orders o, lineitem l where o.orderkey = l.orderkey "
        "group by o.custkey",
        why="fan-out join under a group-by: where eager aggregation and "
        "materialised cells matter",
    ),
    Shape(
        "scan_filter_project",
        "select l.orderkey, l.linenumber, l.price * l.quantity as gross "
        "from lineitem l where l.discount < 3 and l.quantity > 40",
        why="one fused scan-filter-project pipeline, no join",
    ),
    Shape(
        "semi_exists",
        "select c.custkey, c.nation from customer c where exists "
        "(select o.orderkey from orders o where o.custkey = c.custkey "
        "and o.totalprice > 38000)",
        why="EXISTS decorrelated into a semi join",
    ),
    Shape(
        "notin_anti",
        "select s.suppkey, s.nation from supplier s where s.suppkey not in "
        "(select l.suppkey from lineitem l where l.quantity > 49 "
        "and l.discount > 8)",
        why="NOT IN decorrelated into a NULL-aware anti join",
    ),
    Shape(
        "left_join_count",
        "select c.custkey, count(o.orderkey) as n from customer c "
        "left join orders o on c.custkey = o.custkey and o.orderdate < 300 "
        "group by c.custkey",
        why="LEFT JOIN unit under a group-by",
    ),
)

COLD_SHAPES = (
    Shape(
        "two_view_4way",
        f"with {_REV_VIEW}, ototal(custkey, spent) as (select o2.custkey, "
        "sum(o2.totalprice) from orders o2 group by o2.custkey) "
        "select c.nation, sum(r.revenue) as total, max(t.spent) as best "
        "from customer c, orders o, rev r, ototal t "
        "where c.custkey = o.custkey and o.orderkey = r.orderkey "
        "and c.custkey = t.custkey and o.orderdate < {k} group by c.nation",
        literal_base=1000,
        why="two aggregate views in one join: Section 5.4 multi-view pull-up",
    ),
    Shape(
        "chain_5way",
        "select c.custkey, o.orderkey, l.linenumber, s.suppkey, "
        "l2.orderkey as other_order from customer c, orders o, lineitem l, "
        "supplier s, lineitem l2 where c.custkey = o.custkey "
        "and o.orderkey = l.orderkey and l.suppkey = s.suppkey "
        "and s.suppkey = l2.suppkey and c.acctbal < {k}",
        literal_base=1000,
        why="plain join-order DP over a chain, no aggregation",
    ),
    Shape(
        "star_4way_grouped",
        "select c.nation, s.nation as snation, count(*) as n, "
        "sum(l.quantity) as qty from customer c, orders o, lineitem l, "
        "supplier s where c.custkey = o.custkey and o.orderkey = l.orderkey "
        "and l.suppkey = s.suppkey and l.price > {k} "
        "group by c.nation, s.nation",
        literal_base=1000,
        why="grouped join: push-down and eager alternatives are generated",
    ),
    Shape(
        "nested_exists_in",
        "select c.custkey, c.acctbal from customer c where exists "
        "(select o.orderkey from orders o where o.custkey = c.custkey "
        "and o.totalprice > {k}) and c.nation in (select s.nation "
        "from supplier s where s.acctbal > 0) and c.acctbal > "
        "(select avg(o2.totalprice) from orders o2 "
        "where o2.custkey = c.custkey)",
        literal_base=10000,
        why="three subqueries: the decorrelation pass does the work",
    ),
    Shape(
        "matview_candidate",
        "with g(custkey, n, total) as (select l.custkey, count(*), "
        "sum(l.amount) from ledger l group by l.custkey) "
        "select c.nation, sum(g.total) as total from customer c, g "
        "where c.custkey = g.custkey and c.acctbal > {k} group by c.nation",
        literal_base=1000,
        why="a block the view matcher can answer from ledger_totals: "
        "matching and rewrite costing run on every statement",
    ),
)

POINT_SHAPES = (
    Shape(
        "order_by_key",
        "select o.orderkey, o.custkey, o.totalprice from orders o "
        "where o.orderkey = {k}",
        key_table="orders",
        why="unique index probe",
    ),
    Shape(
        "customer_by_key",
        "select c.custkey, c.nation, c.acctbal from customer c "
        "where c.custkey = {k}",
        key_table="customer",
        why="unique probe on the smallest table",
    ),
    Shape(
        "lines_of_order",
        "select l.linenumber, l.quantity, l.price from lineitem l "
        "where l.orderkey = {k}",
        key_table="orders",
        why="non-unique index probe returning a few rows",
    ),
    Shape(
        "prepared_order",
        "execute p_order({k})",
        key_table="orders",
        oracle_sql="select o.orderkey, o.custkey, o.totalprice "
        "from orders o where o.orderkey = {k}",
        why="PREPARE/EXECUTE: no lex/parse/bind/signature at all",
    ),
)

PREPARE_SQL = (
    "prepare p_order as select o.orderkey, o.custkey, o.totalprice "
    "from orders o where o.orderkey = $1"
)

CUSTOMER_TOTALS = Shape(
    "customer_totals",
    MATVIEW_SQL,
    kind=LEDGER,
    why="answerable from the materialized view over ledger",
)
INSERT_BATCH = Shape("insert_batch", "insert into ledger values {k}", kind=WRITE)
REFRESH_VIEW = Shape(
    "refresh_view", "refresh materialized view ledger_totals", kind=WRITE
)

_BY_NAME = {s.name: s for s in DSS_SHAPES + POINT_SHAPES}
SERVE_SHAPES = (
    _BY_NAME["rev_per_customer"],
    _BY_NAME["left_join_count"],
    _BY_NAME["order_by_key"],
    _BY_NAME["customer_by_key"],
    CUSTOMER_TOTALS,
    INSERT_BATCH,
    REFRESH_VIEW,
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: datagen.Scale
    shapes: Tuple[Shape, ...]
    passes_per_block: int
    """P at the reference run length (``harness.REFERENCE_SECONDS``)."""
    warmup_passes: int
    reps: int = 1
    hot_keys: int = HOT_KEYS
    served: bool = False
    """True: the database lives in a ``serve()`` child process."""
    expect_cache: Optional[str] = None
    """``"hit"`` / ``"miss"``: asserted for every measured text query."""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dss_exec",
            "eight fixed decision-support texts, plan cache always hits: "
            "engine and storage do the work, the optimizer none",
            datagen.LARGE,
            DSS_SHAPES,
            passes_per_block=128,
            warmup_passes=8,
            expect_cache="hit",
        ),
        Workload(
            "plan_cold",
            "five join shapes over tiny tables with a never-recurring "
            "literal: every statement is lexed, bound, decorrelated and "
            "searched, execution is negligible",
            datagen.TINY,
            COLD_SHAPES,
            passes_per_block=100,
            warmup_passes=8,
            expect_cache="miss",
        ),
        Workload(
            "point_lookup",
            "indexed point statements over a 32-key hot set plus one "
            "EXECUTE: per-statement overhead in sql and server dominates",
            datagen.LARGE,
            POINT_SHAPES,
            passes_per_block=176,
            warmup_passes=8,
            reps=16,
            expect_cache="hit",
        ),
        Workload(
            "serve_mixed",
            "loopback serve() child, one client, closed loop: reads beside "
            "ledger inserts and view refreshes that invalidate every plan",
            datagen.LARGE,
            SERVE_SHAPES,
            passes_per_block=128,
            warmup_passes=16,
            reps=4,
            # The same four keys every pass: a statement text recurs
            # before the next write, so warm passes hit the plan cache.
            hot_keys=4,
            served=True,
        ),
    )
}


def all_shape_names() -> List[str]:
    """Every shape name, once, in first-use order (metric names)."""
    seen: List[str] = []
    for workload in WORKLOADS.values():
        for shape in workload.shapes:
            if shape.name not in seen:
                seen.append(shape.name)
    return seen


class PassPlan:
    """The statements of every pass of one (workload, seed)."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(seed)
        scale = workload.scale
        key_space = {"orders": scale.orders, "customer": scale.customers}
        self._hot: Dict[str, List[int]] = {}
        self._cold: Dict[str, List[int]] = {}
        for shape in workload.shapes:
            if shape.key_table is not None:
                self._hot[shape.name] = rng.sample(
                    range(key_space[shape.key_table]), workload.hot_keys
                )
            elif shape.literal_base:
                literals = [
                    shape.literal_base + i for i in range(COLD_LITERALS)
                ]
                rng.shuffle(literals)
                self._cold[shape.name] = literals

    def statements(self, index: int) -> List[Statement]:
        """Pass *index* (0-based, warm-up included in the numbering)."""
        workload = self.workload
        out: List[Statement] = []
        for shape in workload.shapes:
            if shape.kind == WRITE:
                continue
            if shape.name in self._hot:
                hot = self._hot[shape.name]
                for r in range(workload.reps):
                    key = hot[(index * workload.reps + r) % len(hot)]
                    out.append(_statement(shape, key))
            elif shape.name in self._cold:
                literals = self._cold[shape.name]
                out.append(_statement(shape, literals[index % COLD_LITERALS]))
            else:
                out.append(Statement(shape.name, shape.sql, shape.kind, None))
        if workload.served:
            if (index + 1) % INSERT_EVERY == 0:
                batch = (index + 1) // INSERT_EVERY
                rows = datagen.ledger_batch(workload.scale, self.seed, batch)
                values = ", ".join(
                    "(" + ", ".join(map(str, row)) + ")" for row in rows
                )
                out.append(
                    Statement(
                        INSERT_BATCH.name,
                        INSERT_BATCH.sql.format(k=values),
                        WRITE,
                        batch,
                    )
                )
            if (index + 1) % REFRESH_EVERY == 0:
                out.append(
                    Statement(REFRESH_VIEW.name, REFRESH_VIEW.sql, WRITE, None)
                )
        return out


def cold_pass(workload: Workload, seed: int) -> List[Statement]:
    """Pass 0, which holds no write (the first is at pass
    ``INSERT_EVERY - 1``): what set-up runs once, cold, and what the
    ``serve()`` child replays to count page IO."""
    return PassPlan(workload, seed).statements(0)


def _statement(shape: Shape, literal: int) -> Statement:
    return Statement(
        shape.name, shape.sql.format(k=literal), shape.kind, literal
    )


def oracle_sql(workload: Workload, statement: Statement) -> str:
    """The text sqlite runs for *statement* (same text unless the shape
    is an EXECUTE)."""
    for shape in workload.shapes:
        if shape.name == statement.shape and shape.oracle_sql is not None:
            return shape.oracle_sql.format(k=statement.literal)
    return statement.sql


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def build_database(data: Dict[str, List[datagen.Row]]):
    """Create tables, bulk load, indexes, FKs, ANALYZE, and the
    materialized view — the work ``setup_s`` times (plus one cold pass,
    added by the caller)."""
    from repro.db import Database

    db = Database()
    for table, (columns, primary_key) in datagen.SCHEMA.items():
        db.create_table(
            table,
            [(column, "int") for column in columns],
            primary_key=list(primary_key),
        )
        db.insert(table, data[table])
    for name, table, columns in datagen.INDEXES:
        db.create_index(name, table, list(columns))
    for table, columns, ref_table, ref_columns in datagen.FOREIGN_KEYS:
        db.add_foreign_key(table, list(columns), ref_table, list(ref_columns))
    db.analyze()
    db.create_materialized_view("ledger_totals", MATVIEW_SQL)
    return db


def open_session(workload: Workload, db):
    """A session ready for the workload's statements (PREPAREd where
    the workload EXECUTEs)."""
    session = db.session()
    if any(shape.name == "prepared_order" for shape in workload.shapes):
        session.execute(PREPARE_SQL)
    return session
