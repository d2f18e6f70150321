"""Unit tests for storage: pagination, heap tables, indexes, IO."""

import pytest

from repro.catalog.schema import Column
from repro.datatypes import DataType
from repro.errors import SchemaError
from repro.storage import (
    PAGE_SIZE,
    HeapTable,
    IOCounter,
    OrderedIndex,
    pages_for,
    rows_per_page,
)


def make_table(rows=0, name="t"):
    table = HeapTable(
        name,
        [Column("k", DataType.INT), Column("v", DataType.FLOAT)],
    )
    for i in range(rows):
        table.insert((i, float(i % 10)))
    return table


class TestPageMath:
    def test_rows_per_page_positive(self):
        assert rows_per_page(12) == PAGE_SIZE // 20

    def test_rows_per_page_never_zero(self):
        assert rows_per_page(10_000) == 1

    def test_pages_for_empty_is_one(self):
        assert pages_for(0, 12) == 1

    def test_pages_for_exact_boundary(self):
        per = rows_per_page(12)
        assert pages_for(per, 12) == 1
        assert pages_for(per + 1, 12) == 2

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            rows_per_page(-1)


class TestIOCounter:
    def test_counts_reads_and_writes(self):
        io = IOCounter()
        io.read_pages(3)
        io.write_pages(2)
        assert io.page_reads == 3
        assert io.page_writes == 2
        assert io.total == 5

    def test_measure_captures_delta_only(self):
        io = IOCounter()
        io.read_pages(10)
        with io.measure() as span:
            io.read_pages(4)
            io.write_pages(1)
        assert span.delta.page_reads == 4
        assert span.delta.page_writes == 1
        assert span.delta.total == 5

    def test_snapshot_subtraction(self):
        io = IOCounter()
        first = io.snapshot()
        io.read_pages(2)
        assert (io.snapshot() - first).page_reads == 2


class TestHeapTable:
    def test_insert_validates_arity(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.insert((1,))

    def test_insert_validates_types(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.insert(("x", 1.0))

    def test_insert_converts_int_to_float(self):
        table = make_table()
        table.insert((1, 2))
        assert table.rows[0] == (1, 2.0)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            HeapTable(
                "bad",
                [Column("x", DataType.INT), Column("x", DataType.INT)],
            )

    def test_page_count_grows_with_rows(self):
        small = make_table(rows=10)
        big = make_table(rows=5000)
        assert big.num_pages > small.num_pages

    def test_scan_charges_one_read_per_page(self):
        table = make_table(rows=1000)
        io = IOCounter()
        rows = list(table.scan(io))
        assert len(rows) == 1000
        assert io.page_reads == table.num_pages

    def test_empty_scan_charges_header_page(self):
        table = make_table()
        io = IOCounter()
        assert list(table.scan(io)) == []
        assert io.page_reads == 1

    def test_scan_with_rid_appends_position(self):
        table = make_table(rows=5)
        io = IOCounter()
        rows = list(table.scan(io, include_rid=True))
        assert [row[-1] for row in rows] == [0, 1, 2, 3, 4]

    def test_fetch_charges_page_unless_cached(self):
        table = make_table(rows=1000)
        io = IOCounter()
        row, page = table.fetch(io, 0)
        assert io.page_reads == 1
        # same page again, hint supplied: no charge
        table.fetch(io, 1, last_page=page)
        assert io.page_reads == 1
        # a distant rid: new charge
        table.fetch(io, 999, last_page=page)
        assert io.page_reads == 2

    def test_fetch_out_of_range(self):
        table = make_table(rows=3)
        with pytest.raises(SchemaError):
            table.fetch(IOCounter(), 3)


class TestOrderedIndex:
    def test_lookup_finds_all_matches(self):
        table = make_table(rows=100)
        index = OrderedIndex("t_v", table, ["v"])
        io = IOCounter()
        rids = index.lookup_rids(io, (3.0,))
        assert len(rids) == 10
        assert all(table.rows[rid][1] == 3.0 for rid in rids)

    def test_lookup_miss_returns_empty_but_charges_traversal(self):
        table = make_table(rows=100)
        index = OrderedIndex("t_v", table, ["v"])
        io = IOCounter()
        assert index.lookup_rids(io, (99.0,)) == []
        assert io.page_reads >= 1

    def test_lookup_rows_fetches_data_pages(self):
        table = make_table(rows=2000)
        index = OrderedIndex("t_v", table, ["v"])
        io = IOCounter()
        rows = list(index.lookup_rows(io, (7.0,)))
        assert len(rows) == 200
        # traversal + leaves + data pages; strictly more than a miss
        assert io.page_reads > index.height

    def test_build_refreshes_after_insert(self):
        table = make_table(rows=10)
        index = OrderedIndex("t_k", table, ["k"])
        table.insert((100, 1.0))
        index.build()
        io = IOCounter()
        assert index.lookup_rids(io, (100,)) == [10]

    def test_multi_column_key(self):
        table = make_table(rows=30)
        index = OrderedIndex("t_kv", table, ["v", "k"])
        io = IOCounter()
        rids = index.lookup_rids(io, (3.0, 13))
        assert len(rids) == 1
        assert table.rows[rids[0]] == (13, 3.0)

    def test_empty_column_list_rejected(self):
        with pytest.raises(SchemaError):
            OrderedIndex("bad", make_table(), [])
