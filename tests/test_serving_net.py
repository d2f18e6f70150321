"""The line-protocol server and client, end to end over loopback."""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database
from repro.errors import ReproError
from repro.server.net import (
    LineClient,
    ServerThread,
    decode_value,
    encode_value,
)


@pytest.fixture
def server(emp_dept_db):
    with ServerThread(emp_dept_db, port=0) as thread:
        yield thread


class TestWireEncoding:
    def test_roundtrip(self):
        for value in ("plain", "tab\there", "line\nbreak", "back\\slash",
                      "quote'mix", ""):
            assert decode_value(encode_value(value)) == value

    def test_null(self):
        assert encode_value(None) == "\\N"
        assert decode_value("\\N") is None
        # A literal backslash-N string survives (it encodes escaped).
        assert decode_value(encode_value("\\N")) == "\\N"

    def test_values_are_single_line(self):
        assert "\n" not in encode_value("a\nb")
        assert "\t" not in encode_value("a\tb")


class TestServerRoundtrip:
    def test_query(self, server):
        with server.client() as client:
            columns, rows = client.execute(
                "SELECT dno, COUNT(*) AS c FROM emp GROUP BY dno"
            )
        assert columns == ["dno", "c"]
        assert sum(int(c) for _, c in rows) == 140

    def test_ddl_insert_query(self, server):
        with server.client() as client:
            assert client.execute("CREATE TABLE kv (k int, v text)") == (
                [],
                [],
            )
            client.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
            columns, rows = client.execute(
                "SELECT k.k, k.v FROM kv k ORDER BY k"
            )
        assert columns == ["k", "v"]
        assert rows == [("1", "one"), ("2", "two")]

    def test_empty_result_set(self, server):
        with server.client() as client:
            columns, rows = client.execute(
                "SELECT e.eno FROM emp e WHERE e.age > 1000"
            )
        assert columns == ["eno"]
        assert rows == []

    def test_error_reported_not_fatal(self, server):
        with server.client() as client:
            with pytest.raises(ReproError, match="unknown table"):
                client.execute("SELECT x.a FROM missing x")
            # The connection survives the error.
            columns, _ = client.execute("SELECT e.eno FROM emp e")
            assert columns == ["eno"]

    def test_prepare_execute_over_wire(self, server):
        with server.client() as client:
            client.execute(
                "PREPARE by_dno AS SELECT dno, COUNT(*) AS c FROM emp "
                "WHERE dno = $1 GROUP BY dno"
            )
            _, direct = client.execute(
                "SELECT dno, COUNT(*) AS c FROM emp "
                "WHERE dno = 3 GROUP BY dno"
            )
            _, prepared = client.execute("EXECUTE by_dno(3)")
            client.execute("DEALLOCATE by_dno")
        assert prepared == direct

    def test_null_over_wire(self, server):
        with server.client() as client:
            client.execute("CREATE TABLE opt (id int, note text null)")
            client.execute("INSERT INTO opt VALUES (1, NULL)")
            _, rows = client.execute("SELECT o.id, o.note FROM opt o")
        assert rows == [("1", None)]

    def test_concurrent_clients(self, server):
        results = []
        errors = []

        def worker():
            try:
                with server.client() as client:
                    for _ in range(10):
                        _, rows = client.execute(
                            "SELECT dno, COUNT(*) AS c FROM emp "
                            "GROUP BY dno"
                        )
                        results.append(sum(int(c) for _, c in rows))
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert results == [140] * 40

    def test_sessions_tracked_per_connection(self, emp_dept_db):
        with ServerThread(emp_dept_db, port=0) as thread:
            opened_before = emp_dept_db.sessions_opened
            with thread.client() as one, thread.client() as two:
                one.execute("SELECT e.eno FROM emp e")
                two.execute("SELECT e.eno FROM emp e")
            assert emp_dept_db.sessions_opened >= opened_before + 2

    def test_plan_cache_disabled_server(self, emp_dept_db):
        with ServerThread(
            emp_dept_db, port=0, use_plan_cache=False
        ) as thread:
            with thread.client() as client:
                client.execute("SELECT e.eno FROM emp e")
                client.execute("SELECT e.eno FROM emp e")
        assert len(emp_dept_db.plan_cache) == 0


class TestHostileLines:
    """A line the server cannot read as a statement gets a typed
    ``error`` reply, not EOF, and leaks no session."""

    @pytest.mark.parametrize(
        "line, reply",
        [
            (
                b"SELECT e.eno FROM emp e WHERE e.name = '\xff\xfe'",
                "error UnicodeDecodeError: ",
            ),
            (  # three times asyncio's 64 KiB StreamReader limit
                b"SELECT e.eno FROM emp e WHERE e.eno IN ("
                + b"1," * 100_000
                + b"1)",
                "error ValueError: statement line exceeds the 64 KiB limit",
            ),
        ],
        ids=["non-utf8", "overlong"],
    )
    def test_typed_error_and_connection_survives(
        self, server, emp_dept_db, line, reply
    ):
        sessions_before = emp_dept_db.active_sessions
        with server.client() as client:
            client._file.write(line + b"\n")
            client._file.flush()
            assert client._readline().startswith(reply)
            assert client._readline() == "."
            # the same connection is on a statement boundary again
            columns, rows = client.execute(
                "SELECT d.dno FROM dept d WHERE d.dno = 3"
            )
            assert (columns, rows) == (["dno"], [("3",)])
        # the handler notices the disconnect asynchronously
        deadline = time.monotonic() + 5
        while (
            emp_dept_db.active_sessions != sessions_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert emp_dept_db.active_sessions == sessions_before
