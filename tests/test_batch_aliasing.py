"""The zero-copy aliasing contract of :class:`ColumnBatch`
(``engine/batch.py``): batches share column objects freely, so no
operator may mutate a column it received. Projection pruning increases
sharing (more pass-through, fewer gathers), making this hazard class
the one to pin down with regressions."""

from __future__ import annotations

import random

import pytest

from repro import CostParams, Database
from repro.engine.batch import ColumnBatch, ColumnBatchBuilder


def build_db(memory_pages: int = 64) -> Database:
    db = Database(CostParams(memory_pages=memory_pages))
    db.create_table(
        "emp",
        [("eno", "int"), ("dno", "int"), ("sal", "float"), ("age", "int")],
        primary_key=["eno"],
    )
    db.create_table(
        "dept",
        [("dno", "int"), ("budget", "float")],
        primary_key=["dno"],
    )
    rng = random.Random(5)
    db.insert(
        "emp",
        [
            (e, e % 9, float(rng.randint(100, 999)), rng.randint(20, 60))
            for e in range(300)
        ],
    )
    db.insert(
        "dept", [(d, float(rng.randint(1_000, 9_000))) for d in range(9)]
    )
    db.analyze()
    return db


def test_project_is_zero_copy_and_batches_own_their_column_lists():
    base = ColumnBatch([[1, 2, 3], [4.0, 5.0, 6.0], ["a", "b", "c"]], 3)
    picked = base.project([2, 0])
    # zero-copy: the column objects are shared...
    assert picked.columns[0] is base.columns[2]
    assert picked.columns[1] is base.columns[0]
    # ...but the column *list* is owned: replacing a downstream slot
    # must never disturb the upstream batch (the one supported form of
    # downstream mutation).
    picked.columns[0] = ["x", "y", "z"]
    assert base.columns[2] == ["a", "b", "c"]
    assert base.to_rows() == [(1, 4.0, "a"), (2, 5.0, "b"), (3, 6.0, "c")]


def test_builder_drain_copies_out_of_the_accumulators():
    builder = ColumnBatchBuilder(size=4, width=2)
    shared = [1, 2, 3]
    builder.extend([shared, [9, 9, 9]], 3)
    batch = builder.drain()
    # the drained batch keeps the accumulator lists; the builder starts
    # fresh ones, so later extends cannot retroactively grow the batch
    builder.extend([[7], [7]], 1)
    assert batch.length == 3
    assert list(batch.columns[0]) == [1, 2, 3]
    # and the builder copied out of the producer's column up front
    shared.append(99)
    assert list(batch.columns[0]) == [1, 2, 3]


QUERIES = [
    # hash join with pass-through projection columns
    "select e.sal, d.budget from emp e, dept d where e.dno = d.dno",
    # residual join (gather + cached-column reuse path)
    "select e.eno from emp e, dept d "
    "where e.dno = d.dno and e.sal > d.budget / 20",
    # group-by over a join (aggregate args computed from shared columns)
    "select d.dno, sum(e.sal) as s from emp e, dept d "
    "where e.dno = d.dno group by d.dno",
    # sort over shared columns (order by must not reorder its input)
    "select e.eno, e.sal from emp e where e.dno < 5 order by e.sal",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_operators_never_mutate_scanned_columns(sql):
    """Scan pages transpose to *tuples*: any operator mutating a
    received column in place (sort/setitem/append) raises immediately.
    Running representative shapes end-to-end proves the engine only
    writes into columns it allocated."""
    db = build_db()
    columnar = db.query(sql)
    reference = db.reference(sql)
    assert sorted(columnar.rows) == sorted(reference.rows)


def test_execution_leaves_stored_tables_untouched():
    """The sort-merge path collects and sorts rows; a regression that
    sorted a *received* list in place would reorder the heap."""
    db = build_db()
    table = db.catalog.table("emp")
    before = list(table.rows)
    from repro.optimizer.options import OptimizerOptions

    db.query(
        "select e.sal, d.budget from emp e, dept d where e.dno = d.dno",
        options=OptimizerOptions(),
    )
    db.query(
        "select e.dno, count(e.eno) as n from emp e group by e.dno "
        "order by e.dno"
    )
    assert table.rows == before


def test_repeated_execution_is_stable_under_aliasing():
    """Two executions of the same plan must agree — a mutation of a
    shared column during run one would poison run two's input."""
    db = build_db()
    sql = (
        "select e.sal, d.budget from emp e, dept d "
        "where e.dno = d.dno and e.age < 50"
    )
    plan = db.optimize(sql).plan
    first, _ = db.execute_plan(plan)
    second, _ = db.execute_plan(plan)
    assert sorted(first.rows) == sorted(second.rows)
