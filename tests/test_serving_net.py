"""The line-protocol server and client, end to end over loopback."""

from __future__ import annotations

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Database
from repro.errors import ReproError
from repro.server.net import (
    LineClient,
    ServerThread,
    _error_reply,
    decode_value,
    encode_value,
)
from repro.server.session import Session

SRC = Path(__file__).resolve().parent.parent / "src"


def wait_for_sessions(db, expected: int) -> None:
    """A handler notices its client's disconnect asynchronously."""
    deadline = time.monotonic() + 5
    while db.active_sessions != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    assert db.active_sessions == expected


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

    def test_explain_execute_over_wire(self, server):
        with server.client() as client:
            client.execute(
                "PREPARE by_dno AS SELECT dno, COUNT(*) AS c FROM emp "
                "WHERE dno = $1 GROUP BY dno"
            )
            columns, rows = client.execute("EXPLAIN EXECUTE by_dno(3);")
            client.execute("INSERT INTO emp VALUES (990, 3, 1.0, 30)")
            _, analyzed = client.execute("explain analyze execute by_dno(3)")
        assert columns == ["plan"]
        assert rows[0] == ("Parameters: $1 = 3",)
        assert rows[-2][0].endswith(" page IOs; replans: 0")
        assert "actual rows=" in analyzed[1][0]
        assert analyzed[-2][0].startswith("estimated ")
        assert analyzed[-2][0].endswith(" page IOs; replans: 1")

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
            (  # three times the 64 KiB line limit
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
        wait_for_sessions(emp_dept_db, sessions_before)


class TestErrorReplies:
    """``error <message>`` is one line whatever the message holds."""

    def test_helper_flattens_cr_and_lf(self):
        assert (
            _error_reply(ReproError("near 'a\rb'\nline 2"))
            == b"error near 'a b' line 2\n.\n"
        )
        assert (
            _error_reply(RuntimeError("lost\r\nit"))
            == b"error RuntimeError: lost  it\n.\n"
        )

    def test_cr_in_a_message_leaves_the_connection_usable(
        self, server, monkeypatch
    ):
        # The lexer and binder quote offending text with repr(), so no
        # statement gets a raw CR into a message; inject one.
        execute = Session.execute

        def boom(self, sql):
            if sql == "boom":
                raise ReproError("offending text: 'a\rb'")
            return execute(self, sql)

        monkeypatch.setattr(Session, "execute", boom)
        with server.client() as client:
            client._file.write(b"boom\n")
            client._file.flush()
            assert client._file.readline() == b"error offending text: 'a b'\n"
            assert client._file.readline() == b".\n"
            _, rows = client.execute("SELECT d.dno FROM dept d WHERE d.dno = 3")
            assert rows == [("3",)]


class TestVanishingClient:
    def test_reset_mid_reply_is_quiet(self, server, emp_dept_db, capfd):
        """Three clients ask for a reply far larger than their receive
        buffer, read its first bytes and reset the connection: the
        server logs nothing, leaks no session and keeps accepting."""
        sessions_before = emp_dept_db.active_sessions
        for _ in range(3):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((server.host, server.port))
            sock.sendall(
                b"SELECT a.eno, a.sal, b.eno, b.sal FROM emp a, emp b\n"
            )
            assert sock.recv(8) == b"ok 19600"
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()  # RST, not FIN
        wait_for_sessions(emp_dept_db, sessions_before)
        with server.client() as client:
            _, rows = client.execute("SELECT d.dno FROM dept d WHERE d.dno = 3")
            assert rows == [("3",)]
        assert capfd.readouterr().err == ""


class TestStop:
    def test_stop_closes_established_connections(self, emp_dept_db):
        """A stopped server ends every connection it was serving — one
        that has run a statement and one that never sent a byte — with
        its thread and its session, not when the client hangs up."""
        sessions_before = emp_dept_db.active_sessions
        with ServerThread(emp_dept_db, port=0) as thread, \
                thread.client() as busy, thread.client() as idle:
            _, rows = busy.execute("SELECT d.dno FROM dept d WHERE d.dno = 3")
            assert rows == [("3",)]
            wait_for_sessions(emp_dept_db, sessions_before + 2)
            thread.stop()
            wait_for_sessions(emp_dept_db, sessions_before)
            for client in (busy, idle):
                with pytest.raises(
                    ReproError, match="server closed the connection"
                ):
                    client.execute("SELECT d.dno FROM dept d WHERE d.dno = 3")


class TestServeEntryPoint:
    def test_serve_announces_answers_and_stops_on_sigint(self):
        """``python -m repro serve``: what ``make serve`` and the
        end-to-end benchmark's child run."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--demo", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            # a shell's background job starts with SIGINT ignored, and
            # Python then installs no KeyboardInterrupt handler
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            announce = child.stdout.readline().strip()
            prefix = "repro server listening on 127.0.0.1:"
            assert announce.startswith(prefix), announce
            with LineClient(port=int(announce[len(prefix):])) as client:
                columns, rows = client.execute(
                    "SELECT d.dno FROM dept d WHERE d.dno = 3"
                )
                assert (columns, rows) == (["dno"], [("3",)])
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=2)
        finally:
            child.kill()
            child.wait()
        assert out == "repro server stopped\n"
        assert err == ""
        assert child.returncode == 0


class TestReadersBesideAWriter:
    def test_every_answer_is_a_committed_prefix(self):
        """Four reading connections beside one inserting connection
        (the shape the retired ``bench_serving.py`` timed): every
        ``(count, sum)`` a reader sees is a whole number of committed
        batches of the deterministic insert sequence."""
        db = Database()
        db.create_table(
            "ledger", [("g", "int"), ("seq", "int"), ("amount", "int")]
        )
        db.insert("ledger", [(0, 0, 0)])
        batches, rows_per_batch, reads = 20, 7, 25
        sessions_before = db.active_sessions
        observations = []
        errors = []

        def guarded(body):
            def run():
                try:
                    with server.client() as client:
                        body(client)
                except Exception as error:  # report on the main thread
                    errors.append(error)

            return threading.Thread(target=run)

        def write(client):
            for batch in range(batches):
                first = 1 + batch * rows_per_batch
                values = ", ".join(
                    f"(0, {n}, {n})" for n in range(first, first + rows_per_batch)
                )
                client.execute(f"INSERT INTO ledger VALUES {values}")

        def read(client):
            for _ in range(reads):
                _, rows = client.execute(
                    "SELECT g, COUNT(*) AS c, SUM(amount) AS s "
                    "FROM ledger GROUP BY g"
                )
                observations.append((int(rows[0][1]), int(rows[0][2])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ServerThread(db, port=0) as server:
                threads = [guarded(read) for _ in range(4)] + [guarded(write)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                wait_for_sessions(db, sessions_before)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(observations) == 4 * reads
        for count, total in observations:
            inserted = count - 1
            assert inserted % rows_per_batch == 0, (count, total)
            assert total == inserted * (inserted + 1) // 2, (count, total)
        final = db.query("SELECT g, COUNT(*) AS c FROM ledger GROUP BY g")
        assert final.rows[0][1] == 1 + batches * rows_per_batch
