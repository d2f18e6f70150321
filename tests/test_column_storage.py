"""Column-major heap storage against a row-list model.

``HeapTable`` keeps one list per column and ``TableSnapshot`` a prefix
of them; neither stores a row tuple. The contract under test is that
nothing observable moved: every access path yields the rows, in the
order, and charges the page reads that a plain list of row tuples cut
into ``rows_per_page`` slices would (:class:`RowModel` — what storage
was before it was columns).
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from . import dp_support
from repro import Database
from repro.catalog.schema import Column
from repro.datatypes import DataType
from repro.engine.reference import rows_equal_bag
from repro.errors import SchemaError
from repro.stats.collect import MCV_MIN_RATIO, ColumnStats, analyze_table
from repro.stats.config import StatsConfig
from repro.stats.sample import estimate_ndv, sample_pages, scale_count
from repro.storage import HeapTable, IOCounter, OrderedIndex
from repro.storage.snapshot import TableSnapshot
from repro.testing.exactio import exact_io, has_index_access
from repro.workloads.generator import RandomQueryConfig, build_star_database


class RowModel:
    """Row-major storage: a list of tuples, pages are slices of it."""

    def __init__(self, rows, per_page):
        self.rows, self.per_page = list(rows), per_page

    def pages(self, include_rid=False):
        """``(pages, page reads)`` of a full scan."""
        rows = self.rows
        if include_rid:
            rows = [row + (rid,) for rid, row in enumerate(rows)]
        step = self.per_page
        pages = [rows[i : i + step] for i in range(0, len(rows), step)]
        return pages, max(1, len(pages))  # an empty table: its header page

    def fetch(self, rids):
        """``(rows, page reads)`` of fetching *rids* in order."""
        touched = [rid // self.per_page for rid in rids]
        changes = sum(a != b for a, b in zip(touched, [None] + touched))
        return [self.rows[rid] for rid in rids], changes

    def probe(self, position, key):
        """Rids whose column *position* equals *key*, index order."""
        return [r for r, row in enumerate(self.rows) if row[position] == key]


# ----------------------------------------------------------------------
# (a) every access path of both readers against the model
# ----------------------------------------------------------------------

VALUES = {
    DataType.INT: st.integers(-3, 3),
    DataType.FLOAT: st.integers(-3, 3).map(float),
    DataType.STR: st.sampled_from(["a", "b", "cc"]),
    DataType.BOOL: st.booleans(),
}
ABSENT = {
    DataType.INT: 99,
    DataType.FLOAT: 99.0,
    DataType.STR: "zz",
    DataType.BOOL: 99,
}
"""A probe key no generated row carries."""


@st.composite
def storage_histories(draw):
    """A schema, then inserts / ``replace_rows`` / captures over it.

    Wide STR padding shrinks ``rows_per_page`` to 2–4 so a few dozen
    rows span many pages; without it everything sits on one.
    """
    dtypes = draw(st.lists(st.sampled_from(list(VALUES)), min_size=1, max_size=3))
    columns = [
        Column(f"c{i}", dtype, nullable=draw(st.booleans()))
        for i, dtype in enumerate(dtypes)
    ]
    pad = draw(st.sampled_from([0, 60, 120]))
    columns += [Column(f"pad{i}", DataType.STR) for i in range(pad)]
    cell = [
        st.none() | VALUES[c.dtype] if c.nullable else VALUES[c.dtype]
        for c in columns[: len(dtypes)]
    ]
    row = st.tuples(*cell).map(lambda r: r + ("p",) * pad)
    batch = st.lists(row, max_size=12)
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "replace", "capture"]), batch),
            max_size=8,
        )
    )
    return columns, steps


def check_reader(reader, model, data):
    """Every access path of *reader* against *model*."""
    width = len(model.rows[0]) if model.rows else len(reader.visible()[0])
    for include_rid in (False, True):
        pages, reads = model.pages(include_rid)
        rows = [row for page in pages for row in page]

        io = IOCounter()
        assert list(reader.scan(io, include_rid)) == rows
        assert io.page_reads == reads

        io = IOCounter()
        assert list(reader.scan_pages(io, include_rid)) == pages
        assert io.page_reads == reads

        io = IOCounter()
        runs = list(reader.scan_page_columns(io, include_rid))
        assert [list(zip(*columns)) for columns, _ in runs] == pages
        assert [count for _, count in runs] == [len(page) for page in pages]
        assert io.page_reads == reads

        # a column subset, in multi-page runs
        total = width + include_rid
        wanted = data.draw(
            st.lists(st.integers(0, total - 1), unique=True), label="positions"
        )
        batch_rows = data.draw(st.integers(1, 12), label="batch_rows")
        io = IOCounter()
        seen = 0
        gathered = [[] for _ in wanted]
        for columns, count in reader.scan_page_columns(
            io, include_rid, positions=wanted, batch_rows=batch_rows
        ):
            assert len(columns) == total
            assert all(
                (columns[p] is None) == (p not in wanted) for p in range(total)
            )
            assert all(len(columns[p]) == count for p in wanted)
            # whole pages, at least a batch of rows, charged on delivery
            assert seen % model.per_page == 0
            assert count >= batch_rows or seen + count == len(rows)
            seen += count
            assert io.page_reads == -(-seen // model.per_page)
            for out, position in zip(gathered, wanted):
                out.extend(columns[position])
        assert gathered == [[row[p] for row in rows] for p in wanted]
        assert io.page_reads == reads

    rids = data.draw(
        st.lists(st.integers(0, max(0, len(model.rows) - 1)), max_size=8)
        if model.rows
        else st.just([]),
        label="rids",
    )
    rows, reads = model.fetch(rids)
    io, last_page, fetched = IOCounter(), None, []
    for rid in rids:
        row, last_page = reader.fetch(io, rid, last_page)
        fetched.append(row)
    assert (fetched, io.page_reads) == (rows, reads)
    io = IOCounter()
    columns, count = reader.fetch_columns(io, rids, include_rid=True)
    assert count == len(rids)
    assert list(zip(*columns)) == [row + (rid,) for row, rid in zip(rows, rids)]
    assert io.page_reads == reads
    for out_of_range in (-1, len(model.rows)):
        with pytest.raises(SchemaError):
            reader.fetch(IOCounter(), out_of_range)
        with pytest.raises(SchemaError):
            reader.fetch_columns(IOCounter(), [out_of_range])


def check_probes(probe_rids, probe_rows, model, absent):
    """Index probes on column 0: the model's rows, and data-page reads
    on top of what the index traversal alone charges. (NULL keys are
    not indexed and never probed: NULL equals nothing.)"""
    keys = {row[0] for row in model.rows} - {None} | {absent}
    for key in keys:
        rids = model.probe(0, key)
        rows, data_reads = model.fetch(rids)
        io_index, io_rows = IOCounter(), IOCounter()
        assert list(probe_rids(io_index, (key,))) == rids
        assert list(probe_rows(io_rows, (key,))) == [
            row + (rid,) for row, rid in zip(rows, rids)
        ]
        assert io_rows.page_reads - io_index.page_reads == data_reads


@given(history=storage_histories(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_access_paths_match_row_model(history, data):
    columns, steps = history
    table = HeapTable("t", columns)
    index = OrderedIndex("t_c0", table, ["c0"])
    per_page = table.rows_per_page
    absent = ABSENT[columns[0].dtype]
    live = []
    captures = []
    for step, rows in steps:
        if step == "insert":
            table.insert_many(rows)
            live = live + rows
        elif step == "replace":
            table.replace_rows(rows)
            live = list(rows)
        else:
            captures.append(
                (TableSnapshot.capture(table, {"t_c0": index}), list(live))
            )
            continue
        index.build()

    model = RowModel(live, per_page)
    assert table.num_rows == len(live)
    assert table.num_pages == model.pages()[1]
    assert table.rows == live
    check_reader(table, model, data)
    check_probes(
        index.lookup_rids,
        lambda io, key: index.lookup_rows(io, key, include_rid=True),
        model,
        absent,
    )
    # Every snapshot still reads exactly what was there at its capture,
    # whatever was appended or swapped in afterwards.
    for snapshot, rows_then in captures:
        model = RowModel(rows_then, per_page)
        assert snapshot.num_rows == len(rows_then)
        assert snapshot.num_pages == model.pages()[1]
        check_reader(snapshot, model, data)
        captured = snapshot.index("t_c0")
        check_probes(
            lambda io, key: snapshot.index_lookup_rids(io, captured, key),
            lambda io, key: snapshot.index_lookup_rows(
                io, captured, key, include_rid=True
            ),
            model,
            absent,
        )


# ----------------------------------------------------------------------
# (b) a snapshot keeps its exact prefix
# ----------------------------------------------------------------------


def three_ints(name="t"):
    return HeapTable(name, [Column(c, DataType.INT) for c in "abc"])


def test_snapshot_outlives_appends_and_replace():
    table = three_ints()
    table.insert_many([(i, i, i) for i in range(500)])
    snapshot = TableSnapshot.capture(table, {})
    before = list(snapshot.scan(IOCounter()))
    table.insert_many([(i, i, i) for i in range(500, 900)])
    assert list(snapshot.scan(IOCounter())) == before
    published, _ = table.visible()
    table.replace_rows([(7, 8, 9)])
    assert table.visible()[0] is not published  # swung, not rewritten
    assert [len(column) for column in published] == [900] * 3
    assert list(snapshot.scan(IOCounter())) == before
    assert table.rows == [(7, 8, 9)]


def test_append_becomes_visible_with_its_last_column():
    table = three_ints()
    table.insert_many([(0, 0, 0)])
    seen = []

    class Watched(list):
        def extend(self, values):
            super().extend(values)
            columns, count = table.visible()
            seen.append((count, [len(column) for column in columns]))

    table._data = tuple(Watched(column) for column in table._data)
    table.insert_many([(1, 1, 1), (2, 2, 2)])
    assert seen == [(1, [3, 1, 1]), (1, [3, 3, 1]), (3, [3, 3, 3])]


def test_reader_never_sees_a_ragged_row_under_a_writer_thread():
    """The writer extends column a, then b, then c; the visible count is
    c's length, so a racing reader always finds all three cells."""
    table = three_ints()
    batches, batch = 300, 40
    errors = []

    def writer():
        try:
            for n in range(batches):
                base = n * batch
                table.insert_many([(i, i, i) for i in range(base, base + batch)])
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=writer)
    try:
        thread.start()
        held = []
        while thread.is_alive():
            snapshot = TableSnapshot.capture(table, {})
            count = snapshot.num_rows
            assert count % batch == 0  # whole batches only
            for reader in (snapshot, table):
                for columns, n in reader.scan_page_columns(
                    IOCounter(), batch_rows=4096
                ):
                    assert [len(column) for column in columns] == [n] * 3
                    assert columns[0] == columns[1] == columns[2]
            if len(held) < 5:
                held.append((snapshot, count))
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not thread.is_alive() and not errors
    assert table.num_rows == batches * batch
    for snapshot, count in held:
        assert list(snapshot.scan(IOCounter())) == [
            (i, i, i) for i in range(count)
        ]


# ----------------------------------------------------------------------
# (c) a scan slices only the columns its statement reads
# ----------------------------------------------------------------------


class SpiedColumn(list):
    def __init__(self, values, position, touched):
        super().__init__(values)
        self.position, self.touched = position, touched

    def __getitem__(self, item):
        self.touched.add(self.position)
        return super().__getitem__(item)


@pytest.fixture(scope="module")
def large_db():
    """The ``dss_exec`` database of the end-to-end benchmark."""
    datagen, workloads = dp_support._e2e_modules()
    return workloads.build_database(
        datagen.generate(datagen.LARGE, workloads.DEFAULT_SEED)
    )


def test_scan_slices_only_the_columns_it_reads(large_db, monkeypatch):
    table = large_db.catalog.table("lineitem")
    names = [column.name for column in table.columns]
    columns, count = table.visible()
    touched = set()
    spied = tuple(SpiedColumn(c, i, touched) for i, c in enumerate(columns))
    monkeypatch.setattr(table, "visible", lambda: (spied, count))
    sql = "select l.orderkey from lineitem l where l.quantity > 40"
    answer = large_db.query(sql)
    assert {names[position] for position in touched} == {"orderkey", "quantity"}
    assert answer.executed_io.page_reads == table.num_pages
    monkeypatch.undo()
    assert rows_equal_bag(answer.rows, large_db.reference(sql).rows)


# ----------------------------------------------------------------------
# (d) page charges equal the IO oracle's, statement by statement: the
# cost model under actual counts, or for an index probe the row
# interpreter's charge (pinned from the last commit that had it)
# ----------------------------------------------------------------------

ROWEXEC_INDEX_IO = {
    "select o.orderkey, o.custkey, o.totalprice from orders o "
    "where o.orderkey = ": (3, 0),
    "select l.linenumber, l.quantity, l.price from lineitem l "
    "where l.orderkey = ": (4, 0),
}
"""Index-probe statement, up to its key -> (page reads, page writes) the
row interpreter charged, for each of the keys :func:`benchmark_texts`
probes."""


def assert_io_oracle(db, sql, result):
    io = result.executed_io
    if has_index_access(result.plan):
        pinned = [
            pin for prefix, pin in ROWEXEC_INDEX_IO.items()
            if sql.startswith(prefix)
        ]
        assert [(io.page_reads, io.page_writes)] == pinned, sql
    else:
        exact = exact_io(result.plan, result.exec_metrics, db.catalog, db.params)
        assert io.total == exact, sql


def benchmark_texts(large_db):
    _, workloads = dp_support._e2e_modules()
    for label, db, sql in dp_support.e2e_statements():
        yield label, db, sql
    keys = [row[0] for row in large_db.catalog.table("orders").row_slice(0, 3)]
    for shape in workloads.POINT_SHAPES:
        for key in keys:
            text = (shape.oracle_sql or shape.sql).format(k=key)
            yield f"point_lookup/{shape.name}", large_db, text
    for label, sql in (
        ("limit", "select l.orderkey, l.price from lineitem l limit 7"),
        (
            "filtered limit",
            "select o.orderkey from orders o where o.totalprice > 30000 limit 5",
        ),
        ("thin filter", "select l.price from lineitem l where l.quantity = 50"),
        ("all-pass filter", "select o.custkey from orders o where o.orderkey >= 0"),
        ("empty filter", "select o.custkey from orders o where o.orderkey < 0"),
        (
            "sorted limit",
            "select c.custkey, c.acctbal from customer c "
            "order by acctbal desc limit 3",
        ),
    ):
        yield label, large_db, sql


def test_executed_io_equals_rowexec(large_db):
    oracles = {}
    for label, db, sql in benchmark_texts(large_db):
        columnar = db.query(sql)
        assert_io_oracle(db, sql, columnar)
        # the same through sessions, which scan snapshots, not tables
        with db.session() as session:
            served = session.execute(sql).query_result
        assert served.executed_io == columnar.executed_io, label
        assert_io_oracle(db, sql, served)
        assert rows_equal_bag(served.rows, columnar.rows), label
        if id(db) not in oracles:
            oracles[id(db)] = dp_support.sqlite_copy(db)
        expected = oracles[id(db)].execute(sql).fetchall()
        if " limit " in sql and " order by " not in sql:
            # any rows satisfy an unordered LIMIT: only the count is SQL's
            assert len(columnar.rows) == len(expected), label
        else:
            assert rows_equal_bag(columnar.rows, expected), label
    for oracle in oracles.values():
        oracle.close()


def test_prepared_statement_io_equals_rowexec(large_db):
    _, workloads = dp_support._e2e_modules()
    key = large_db.catalog.table("orders").row_slice(5, 6)[0][0]
    with large_db.session() as session:
        session.execute(workloads.PREPARE_SQL)
        result = session.execute(f"execute p_order({key})").query_result
    sql = f"{next(iter(ROWEXEC_INDEX_IO))}{key}"  # what EXECUTE runs
    assert_io_oracle(large_db, sql, result)
    assert result.rows == large_db.reference(sql).rows
    assert len(result.rows) == 1


# ----------------------------------------------------------------------
# A failed multi-row INSERT stores nothing
# ----------------------------------------------------------------------


def grouped_count(rows):
    return sum(row[1] for row in rows)


def test_failed_multi_row_insert_is_not_half_applied():
    db = Database()
    db.create_table("t", [("a", "int"), ("b", "int")])
    db.insert("t", [(i, i % 7) for i in range(714)])
    db.create_index("t_a", "t", ["a"])
    db.execute(
        "create materialized view t_counts as "
        "select b, count(*) as n from t group by b"
    )
    db.analyze()
    count_sql = "select t.b, count(*) as n from t group by t.b"
    with db.session() as session:
        for run in (db.execute, session.execute):
            with pytest.raises(SchemaError):
                run("insert into t values (5000, 3), (5001, 'x')")
            with pytest.raises(SchemaError):
                run("insert into t values (5000, 3), (5001)")
            assert db.catalog.table("t").num_rows == 714
            assert list(db.catalog.table("t").scan(IOCounter()))[-1] == (713, 6)
            assert db.query("select t.b from t where t.a = 5000").rows == []
            assert grouped_count(db.query(count_sql).rows) == 714
            assert grouped_count(db.reference(count_sql).rows) == 714
            assert grouped_count(session.execute(count_sql).rows) == 714
        # and a well-formed batch still lands everywhere at once
        session.execute("insert into t values (5000, 3), (5001, 4)")
        assert db.query("select t.b from t where t.a = 5000").rows == [(3,)]
        assert grouped_count(session.execute(count_sql).rows) == 716
        assert grouped_count(db.reference(count_sql).rows) == 716


# ----------------------------------------------------------------------
# ANALYZE and index build read columns; the row loop is the reference
# ----------------------------------------------------------------------


def row_loop_column_stats(rows, position, column, total_rows, sampled, config):
    """Column statistics the way ANALYZE computed them from row tuples:
    one ``row[position]`` per row."""
    from repro.stats.collect import _is_numeric, _value_width
    from repro.stats.histogram import build_histogram

    counter, nulls, width_sum = Counter(), 0, 0
    for row in rows:
        value = row[position]
        if value is None:
            nulls += 1
        else:
            counter[value] += 1
            width_sum += _value_width(value, column.dtype.width)
    non_null = len(rows) - nulls
    null_count = scale_count(nulls, len(rows), total_rows) if sampled else nulls
    if not counter:
        return ColumnStats(n_distinct=0, null_count=null_count)
    ndv = len(counter)
    if sampled:
        singletons = sum(1 for count in counter.values() if count == 1)
        ndv = estimate_ndv(
            ndv, singletons, non_null, max(non_null, total_rows - null_count)
        )
    mcvs = ()
    if config.mcv_entries > 0 and ndv > 1:
        mcvs = tuple(
            (value, count / non_null)
            for value, count in counter.most_common(config.mcv_entries)
            if count / non_null >= MCV_MIN_RATIO / ndv
        )
    common = {value for value, _ in mcvs}
    numeric = sorted(v for v in counter if _is_numeric(v) and v not in common)
    histogram = None
    if config.histogram_buckets > 0 and numeric and (
        len(numeric) == len(counter) - len(common)
    ):
        histogram = build_histogram(
            [float(v) for v in numeric for _ in range(counter[v])],
            config.histogram_buckets,
        )
    return ColumnStats(
        n_distinct=ndv,
        min_value=min(counter),
        max_value=max(counter),
        null_count=null_count,
        avg_width=width_sum / non_null,
        mcvs=mcvs,
        histogram=histogram,
    )


@pytest.mark.parametrize(
    "config",
    [
        StatsConfig(),
        StatsConfig(full_scan_pages=4, min_sample_pages=3, sample_fraction=0.3),
    ],
    ids=["exact", "sampled"],
)
def test_analyze_matches_row_loop_reference(large_db, config):
    skewed = build_star_database(
        RandomQueryConfig(
            seed=4,
            fact_rows=3000,
            null_fraction=0.2,
            empty_categories=1,
            zipf_skew=1.2,
            hot_category_fraction=0.3,
        )
    )
    for db in (large_db, skewed):
        for name in db.catalog.table_names():
            table = db.catalog.table(name)
            stats = analyze_table(table, config)
            rows, pages = table.rows, None
            if table.num_pages > config.full_scan_pages:
                pages = sample_pages(name, table.num_pages, config)
                step = table.rows_per_page
                rows = [
                    row for p in pages for row in rows[p * step : (p + 1) * step]
                ]
            sampled = pages is not None and len(pages) < table.num_pages
            assert stats.sampled == sampled
            assert stats.row_count == table.num_rows
            assert stats.pages_scanned == (
                len(pages) if pages is not None else table.num_pages
            )
            for position, column in enumerate(table.columns):
                assert stats.columns[column.name] == row_loop_column_stats(
                    rows, position, column, table.num_rows, sampled, config
                ), (name, column.name)


def test_index_build_matches_row_loop_reference(large_db):
    for name in large_db.catalog.table_names():
        info = large_db.catalog.info(name)
        rows = info.table.rows
        for index in info.indexes.values():
            positions = [info.table.column_position(c) for c in index.column_names]
            pairs = sorted(
                (tuple(row[p] for p in positions), rid)
                for rid, row in enumerate(rows)
            )
            keys, rids = index.snapshot_data()
            assert keys == [key for key, _ in pairs]
            assert rids == [rid for _, rid in pairs]
