"""Answer checking: stdlib ``sqlite3`` as the oracle.

The generated rows are loaded into an in-memory sqlite database at
set-up; for every (shape, literal) a run will issue, the oracle keeps a
row count and an order-insensitive digest. Each timed answer is digested
the same way *after the clock stops* and compared.

Answers over ``ledger`` change as batches are inserted, so they are
checked against :class:`LedgerModel` — the closed-form per-customer
(count, sum) after *k* batches — which ``selftest`` in turn checks
against sqlite on the same prefix.
"""

from __future__ import annotations

import sqlite3
import zlib
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import datagen
import workloads

Digest = Tuple[int, int]
"""(row count, order-insensitive checksum)."""

_NULL = "\\N"


def digest(rows: Iterable[Sequence[Any]]) -> Digest:
    """Order-insensitive digest of a row bag. Values are compared by
    their text form, so an in-process int, a sqlite int and the wire
    protocol's string all digest alike."""
    count = 0
    total = 0
    for row in rows:
        text = "\t".join(_NULL if v is None else str(v) for v in row)
        total += zlib.crc32(text.encode())
        count += 1
    return count, total & 0xFFFFFFFFFFFF


def load_sqlite(data: Dict[str, List[datagen.Row]]) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for table, (columns, _) in datagen.SCHEMA.items():
        declared = ", ".join(f"{column} integer" for column in columns)
        connection.execute(f"create table {table} ({declared})")
        slots = ", ".join("?" * len(columns))
        connection.executemany(
            f"insert into {table} values ({slots})", data[table]
        )
    for name, table, columns in datagen.INDEXES:
        connection.execute(
            f"create index {name} on {table} ({', '.join(columns)})"
        )
    return connection


def statement_key(statement: workloads.Statement) -> str:
    return f"{statement.shape}|{statement.literal}"


def expected_digests(
    workload: workloads.Workload,
    data: Dict[str, List[datagen.Row]],
    seed: int,
    passes: int,
) -> Dict[str, Digest]:
    """sqlite's digest for every distinct static statement of the first
    *passes* passes. Runs in a forked child (``harness.forked``) so
    neither sqlite nor the statement texts count toward the benchmarked
    process's peak RSS."""
    connection = load_sqlite(data)
    plan = workloads.PassPlan(workload, seed)
    out: Dict[str, Digest] = {}
    for index in range(passes):
        for statement in plan.statements(index):
            if statement.kind != workloads.STATIC:
                continue
            key = statement_key(statement)
            if key not in out:
                sql = workloads.oracle_sql(workload, statement)
                out[key] = digest(connection.execute(sql).fetchall())
    connection.close()
    return out


class LedgerModel:
    """Closed form of ``customer_totals`` after *k* insert batches."""

    def __init__(self, scale: datagen.Scale, seed: int, base: List[datagen.Row]):
        self.scale = scale
        self.seed = seed
        self.batches = 0
        self._totals: Dict[int, List[int]] = {}
        self._add(base)

    def _add(self, rows: Iterable[datagen.Row]) -> None:
        for custkey, _, amount in rows:
            entry = self._totals.setdefault(custkey, [0, 0])
            entry[0] += 1
            entry[1] += amount

    def apply_batch(self, batch: int) -> None:
        if batch != self.batches + 1:
            raise ValueError(f"batch {batch} applied after {self.batches}")
        self._add(datagen.ledger_batch(self.scale, self.seed, batch))
        self.batches = batch

    def rows(self) -> List[Tuple[int, int, int]]:
        return [(k, n, total) for k, (n, total) in self._totals.items()]

    def digest(self) -> Digest:
        return digest(self.rows())
