"""Seeded input data for the end-to-end benchmark.

An integer-only TPC-D-like schema (customer / supplier / orders /
lineitem) plus a ``ledger`` table for the write path. Every non-key
column is a *seeded permutation of a fixed multiset*: the seed decides
which row gets which value, never how many rows carry it. Row counts,
fan-outs (orders per customer, lines per order), single-column
histograms and therefore the statistics the optimizer plans from are
identical for every seed; only cross-column correlations move. That is
what lets a page-IO count or a plan choice be compared across seeds.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Row = Tuple[int, ...]

DATE_SPAN = 2556  # days over ~7 years, as in repro.workloads.tpcdlike
NATIONS = 25


@dataclass(frozen=True)
class Scale:
    """Table sizes. Fan-outs are uniform so join sizes repeat exactly."""

    customers: int
    suppliers: int
    orders_per_customer: int
    lines_per_order: int
    ledger_rows: int

    @property
    def orders(self) -> int:
        return self.customers * self.orders_per_customer

    @property
    def lineitems(self) -> int:
        return self.orders * self.lines_per_order


LARGE = Scale(
    customers=400,
    suppliers=40,
    orders_per_customer=10,
    lines_per_order=4,
    ledger_rows=4000,
)
"""Decision-support scale: execution dominates a warm statement."""

TINY = Scale(
    customers=24,
    suppliers=6,
    orders_per_customer=3,
    lines_per_order=2,
    ledger_rows=48,
)
"""Planning scale: execution is negligible beside a cold optimize."""

SCHEMA: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # table -> (columns, primary key)
    "customer": (("custkey", "nation", "acctbal", "segment"), ("custkey",)),
    "supplier": (("suppkey", "nation", "acctbal"), ("suppkey",)),
    "orders": (
        ("orderkey", "custkey", "orderdate", "totalprice"),
        ("orderkey",),
    ),
    "lineitem": (
        ("orderkey", "linenumber", "suppkey", "quantity", "price", "discount"),
        ("orderkey", "linenumber"),
    ),
    "ledger": (("custkey", "seq", "amount"), ("seq",)),
}

INDEXES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("customer_custkey_idx", "customer", ("custkey",)),
    ("orders_orderkey_idx", "orders", ("orderkey",)),
    ("orders_custkey_idx", "orders", ("custkey",)),
    ("lineitem_orderkey_idx", "lineitem", ("orderkey",)),
)

FOREIGN_KEYS: Tuple[Tuple[str, Tuple[str, ...], str, Tuple[str, ...]], ...] = (
    ("orders", ("custkey",), "customer", ("custkey",)),
    ("lineitem", ("orderkey",), "orders", ("orderkey",)),
    ("lineitem", ("suppkey",), "supplier", ("suppkey",)),
)

LEDGER_BATCH_ROWS = 24
"""Rows per ``INSERT`` batch on ``serve_mixed``."""


def _permuted(rng: random.Random, values: Sequence[int]) -> List[int]:
    out = list(values)
    rng.shuffle(out)
    return out


def generate(scale: Scale, seed: int) -> Dict[str, List[Row]]:
    """All five tables for *seed*, as lists of integer tuples."""
    rng = random.Random(seed * 1_000_003 + scale.orders)
    c, s, o, n = scale.customers, scale.suppliers, scale.orders, scale.lineitems

    customer = list(
        zip(
            range(c),
            _permuted(rng, [i % NATIONS for i in range(c)]),
            _permuted(rng, [-999 + (i * 40_999) // c for i in range(c)]),
            _permuted(rng, [i % 5 for i in range(c)]),
        )
    )
    supplier = list(
        zip(
            range(s),
            _permuted(rng, [i % NATIONS for i in range(s)]),
            _permuted(rng, [-999 + (i * 10_998) // s for i in range(s)]),
        )
    )
    orders = list(
        zip(
            range(o),
            _permuted(rng, [i % c for i in range(o)]),
            _permuted(rng, [(i * DATE_SPAN) // o for i in range(o)]),
            _permuted(rng, [500 + (i * 39_500) // o for i in range(o)]),
        )
    )
    lineitem = list(
        zip(
            [i // scale.lines_per_order for i in range(n)],
            [i % scale.lines_per_order for i in range(n)],
            _permuted(rng, [i % s for i in range(n)]),
            _permuted(rng, [1 + i % 50 for i in range(n)]),
            _permuted(rng, [100 + (i * 9_900) // n for i in range(n)]),
            _permuted(rng, [i % 11 for i in range(n)]),
        )
    )
    m = scale.ledger_rows
    ledger = list(
        zip(
            _permuted(rng, [i % c for i in range(m)]),
            range(m),
            _permuted(rng, [1 + i % 97 for i in range(m)]),
        )
    )
    return {
        "customer": customer,
        "supplier": supplier,
        "orders": orders,
        "lineitem": lineitem,
        "ledger": ledger,
    }


def ledger_batch(scale: Scale, seed: int, batch: int) -> List[Row]:
    """The *batch*-th (1-based) ``INSERT`` into ``ledger``: a pure
    function of (scale, seed, batch), so the server, the sqlite oracle
    and the closed-form model all apply the same rows."""
    rng = random.Random(seed * 7_919 + batch)
    first = scale.ledger_rows + (batch - 1) * LEDGER_BATCH_ROWS
    return [
        (rng.randrange(scale.customers), first + j, 1 + rng.randrange(97))
        for j in range(LEDGER_BATCH_ROWS)
    ]


def data_digest(tables: Dict[str, List[Row]]) -> str:
    """Stable fingerprint of a generated instance (selftest pins it)."""
    crc = 0
    for name in sorted(tables):
        crc = zlib.crc32(repr((name, tables[name])).encode(), crc)
    return f"{crc:08x}"
