"""Copy-on-write snapshots: stable reads under a concurrent writer.

The contract under test (``storage/snapshot.py``): a reader that
captured a snapshot before a write sees the pre-write row count and
byte-identical pages, no matter how many inserts or matview refreshes
land mid-scan — and the writer never waits for readers.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database
from repro.storage.iocounter import IOCounter


def snapshot_pages(snap_table):
    io = IOCounter()
    return [list(page) for page in snap_table.scan_pages(io)]


class TestTableSnapshots:
    def test_insert_invisible_to_prior_snapshot(self, emp_dept_db):
        snapshot = emp_dept_db.catalog.capture_snapshot()
        snap_emp = snapshot.table("emp")
        before_rows = snap_emp.num_rows
        before_pages = snapshot_pages(snap_emp)
        emp_dept_db.insert("emp", [(800 + i, 1, 9e4, 30) for i in range(50)])
        # The live table moved on; the snapshot did not.
        assert emp_dept_db.catalog.table("emp").num_rows == before_rows + 50
        assert snap_emp.num_rows == before_rows
        assert snapshot_pages(snap_emp) == before_pages

    def test_snapshot_scan_io_matches_live(self, emp_dept_db):
        table = emp_dept_db.catalog.table("emp")
        snapshot = emp_dept_db.catalog.capture_snapshot()
        snap_emp = snapshot.table("emp")
        live_io, snap_io = IOCounter(), IOCounter()
        live_rows = list(table.scan(live_io))
        snap_rows = list(snap_emp.scan(snap_io))
        assert snap_rows == live_rows
        assert snap_io.page_reads == live_io.page_reads

    def test_empty_table_charges_header_page(self):
        db = Database()
        db.create_table("t", [("a", "int")])
        snap = db.catalog.capture_snapshot().table("t")
        io = IOCounter()
        assert list(snap.scan(io)) == []
        assert io.page_reads == 1

    def test_matview_refresh_invisible_to_prior_snapshot(self, emp_dept_db):
        emp_dept_db.execute(
            "CREATE MATERIALIZED VIEW dsum AS "
            "SELECT dno, SUM(sal) AS s FROM emp GROUP BY dno"
        )
        backing = emp_dept_db.catalog.materialized_view(
            "dsum"
        ).backing_info.table
        snapshot = emp_dept_db.catalog.capture_snapshot()
        snap_view = snapshot.table(backing.name)
        assert snap_view is not None
        before_pages = snapshot_pages(snap_view)
        before_rows = list(snap_view.scan(IOCounter()))
        # Make the view stale and refresh: the backing table is
        # rewritten in place (replace_rows), publishing fresh columns.
        emp_dept_db.execute("INSERT INTO emp VALUES (990, 1, 77777.0, 28)")
        emp_dept_db.refresh_materialized_view("dsum", mode="full")
        after_rows = list(backing.scan(IOCounter()))
        assert after_rows != before_rows  # the refresh really changed it
        assert snapshot_pages(snap_view) == before_pages

    def test_index_probe_skips_rows_after_capture(self, emp_dept_db):
        snapshot = emp_dept_db.catalog.capture_snapshot()
        snap_emp = snapshot.table("emp")
        io = IOCounter()
        index = snap_emp.index("emp_dno_idx")
        before = list(snap_emp.index_lookup_rows(io, index, (1,)))
        # Insert more dno=1 rows and rebuild the live index.
        emp_dept_db.insert("emp", [(870 + i, 1, 5e4, 25) for i in range(10)])
        # The captured (keys, rids) arrays predate the insert, and any
        # rid beyond the visible count would be filtered anyway.
        after = list(
            snap_emp.index_lookup_rows(IOCounter(), index, (1,))
        )
        assert after == before

    def test_replace_rows_validates_into_fresh_list(self):
        db = Database()
        db.create_table("t", [("a", "int")])
        db.insert("t", [(1,), (2,)])
        table = db.catalog.table("t")
        published, _ = table.visible()
        table.replace_rows([(7,), (8,), (9,)])
        assert table.visible()[0] is not published
        assert published == ([1, 2],)  # history is frozen
        assert table.num_rows == 3


class TestSessionSnapshotIsolation:
    def test_reader_pinned_to_capture_epoch(self, emp_dept_db):
        with emp_dept_db.session() as session:
            count = session.execute(
                "SELECT dno, COUNT(*) AS c FROM emp GROUP BY dno"
            )
            total_before = sum(row[1] for row in count.rows)
            emp_dept_db.execute("INSERT INTO emp VALUES (991, 1, 5.0, 30)")
            count_after = session.execute(
                "SELECT dno, COUNT(*) AS c FROM emp GROUP BY dno"
            )
            total_after = sum(row[1] for row in count_after.rows)
        assert total_after == total_before + 1

    def test_concurrent_readers_and_writer(self):
        """4 readers + 1 writer: every observed (count, sum) pair must
        equal a prefix of the deterministic insert sequence."""
        db = Database()
        db.create_table(
            "ledger", [("g", "int"), ("seq", "int"), ("amount", "int")]
        )
        db.insert("ledger", [(0, 0, 0)])
        batches = 30
        rows_per_batch = 7

        def writer():
            seq = 1
            for _ in range(batches):
                with db.write_lock:
                    db.insert(
                        "ledger",
                        [
                            (0, seq + i, seq + i)
                            for i in range(rows_per_batch)
                        ],
                    )
                seq += rows_per_batch

        errors = []
        observations = []

        def reader():
            try:
                with db.session() as session:
                    for _ in range(40):
                        result = session.execute(
                            "SELECT g, COUNT(*) AS c, SUM(amount) AS s "
                            "FROM ledger GROUP BY g"
                        )
                        observations.append(tuple(result.rows[0][1:]))
            except Exception as error:  # propagate to the main thread
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        write_thread = threading.Thread(target=writer)
        for t in threads:
            t.start()
        write_thread.start()
        for t in threads:
            t.join()
        write_thread.join()
        assert not errors, errors
        # count = 1 + k rows inserted; sum = 0 + 1 + ... + k (prefix
        # sums of the deterministic sequence). Any torn read would
        # break the pairing.
        for count, total in observations:
            k = count - 1
            assert total == k * (k + 1) // 2, (count, total)
        final = db.query(
            "SELECT g, COUNT(*) AS c FROM ledger GROUP BY g"
        ).rows[0][1]
        assert final == 1 + batches * rows_per_batch


class TestEpochs:
    def test_every_mutation_bumps(self):
        db = Database()
        epochs = [db.catalog.change_epoch]

        def step(fn):
            fn()
            epoch = db.catalog.change_epoch
            assert epoch > epochs[-1]
            epochs.append(epoch)

        step(lambda: db.create_table("t", [("a", "int"), ("b", "int")]))
        step(lambda: db.insert("t", [(1, 1), (2, 4)]))
        step(lambda: db.create_index("t_a_idx", "t", ["a"]))
        step(lambda: db.analyze())
        step(
            lambda: db.execute(
                "CREATE MATERIALIZED VIEW ts AS "
                "SELECT a, SUM(b) AS s FROM t GROUP BY a"
            )
        )
        step(lambda: db.execute("INSERT INTO t VALUES (3, 9)"))
        step(lambda: db.refresh_materialized_view("ts"))
        step(lambda: db.execute("DROP MATERIALIZED VIEW ts"))
        step(lambda: db.drop_index("t_a_idx"))
        step(lambda: db.drop_table("t"))

    def test_snapshot_carries_epoch(self, emp_dept_db):
        first = emp_dept_db.catalog.capture_snapshot()
        emp_dept_db.execute("INSERT INTO emp VALUES (992, 2, 1.0, 50)")
        second = emp_dept_db.catalog.capture_snapshot()
        assert second.epoch > first.epoch


class TestFacadeWritesUnderTheLock:
    """``Database.execute`` and a ``Database.query`` that lazily
    refreshes a matview write the catalog; both must hold the write
    lock while they do, or a session could stamp a plan valid at an
    epoch whose write it never saw."""

    def locked_at_each_write(self, db):
        """Patch *db*'s epoch bump to record, per write, whether another
        thread finds the write lock taken."""
        held = []
        bump = db.catalog.bump_epoch

        def probing(*names):
            outcome = []

            def probe():
                free = db.write_lock.acquire(blocking=False)
                if free:
                    db.write_lock.release()
                outcome.append(not free)

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            held.append(outcome[0])
            return bump(*names)

        db.catalog.bump_epoch = probing
        return held

    def test_execute_writes_under_the_lock(self, emp_dept_db):
        held = self.locked_at_each_write(emp_dept_db)
        emp_dept_db.execute("INSERT INTO emp VALUES (993, 2, 1.0, 50)")
        assert held and all(held)

    def test_lazy_refresh_writes_under_the_lock(self, emp_dept_db):
        db = emp_dept_db
        db.create_materialized_view(
            "by_dno", "select e.dno, sum(e.sal) as s from emp e group by e.dno"
        )
        db.insert("emp", [(994, 2, 1.0, 50)])
        (view,) = db.catalog.materialized_views()
        assert view.stale
        held = self.locked_at_each_write(db)
        db.query("select e.dno, sum(e.sal) as s from emp e group by e.dno")
        assert not view.stale
        assert held and all(held)
