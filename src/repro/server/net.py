"""A thread-per-connection server and line-protocol client.

Protocol (text, newline-delimited, UTF-8):

- The client sends one statement per line (``;`` optional). Newlines
  inside a statement are not supported — the shell collapses multi-line
  input before sending.
- The server answers with a header line, zero or more TSV rows, and a
  lone ``.`` sentinel line:

  - ``ok <nrows>`` then a TSV column-name line and ``<nrows>`` TSV value
    rows (queries, EXECUTE, and EXPLAIN's one ``plan`` column), or no
    further lines before the sentinel
    (DDL/PREPARE/DEALLOCATE acknowledgements);
  - ``error <message>`` (single line) on failure — including a line
    that is not UTF-8 or is longer than 64 KiB, after which the
    connection is still usable.

  NULL encodes as ``\\N``; tab/newline/CR/backslash in string values
  are escaped C-style, so a row is always exactly one line. Only
  ``\\n`` ends a line: VT, FF, NEL, U+2028 travel as themselves.

Each connection gets its own :class:`~repro.server.session.Session` and
its own daemon thread looping *blocking readline →* ``session.execute``
*→ one write*. Readers execute concurrently against COW snapshots;
writes serialize on the database write lock like any other session.
Nothing here caps connections or statements in flight (ROADMAP item 2
owns limits); a client that vanishes mid-read or mid-reply ends its
connection quietly, and :meth:`ReproServer.stop` ends every open one.
``tests/golden/wire_transcript.txt`` pins the bytes.
"""

from __future__ import annotations

import re
import socket
import threading
from typing import Any, Iterable, List, Optional, Set, Tuple

from ..errors import ReproError
from .session import Session

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 5433

_LINE_LIMIT = 64 * 1024
_NULL = "\\N"
_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r")]
_UNESCAPES = {escaped[1]: raw for raw, escaped in _ESCAPES}
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
# str() of these holds no character the protocol escapes.
_PLAIN = frozenset({int, float, bool})
_PLAIN_OR_NULL = _PLAIN | {type(None)}


def encode_value(value: Any) -> str:
    if value is None:
        return _NULL
    text = str(value)
    for raw, escaped in _ESCAPES:
        if raw in text:
            text = text.replace(raw, escaped)
    return text


def decode_value(text: str) -> Optional[str]:
    if "\\" not in text:
        return text
    if text == _NULL:
        return None
    # An unknown escape and a trailing backslash stand for themselves.
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[0]), text)


def _encode_column(column: Tuple[Any, ...]) -> Iterable[str]:
    """``encode_value`` over one result column, skipping the escaping
    when the types present cannot need it."""
    kinds = set(map(type, column))
    if kinds <= _PLAIN:
        return map(str, column)
    if kinds <= _PLAIN_OR_NULL:
        return [_NULL if value is None else str(value) for value in column]
    return map(encode_value, column)


def _render(result) -> bytes:
    """The whole reply to a successful statement, sentinel included."""
    if result.kind not in ("query", "execute", "explain"):
        return b"ok 0\n.\n"
    rows = result.rows
    lines = [f"ok {len(rows)}", "\t".join(result.columns)]
    lines.extend(map("\t".join, zip(*map(_encode_column, zip(*rows)))))
    lines.append(".\n")
    return "\n".join(lines).encode("utf-8")


def _error_reply(error: Exception) -> bytes:
    """``error <message>`` and the sentinel: always exactly two lines."""
    message = str(error)
    if not isinstance(error, ReproError):  # surface, never kill the thread
        message = f"{type(error).__name__}: {message}"
    message = message.replace("\n", " ").replace("\r", " ")
    return f"error {message}\n.\n".encode("utf-8")


def _read_line(reader) -> bytes:
    """``reader.readline()`` bounded at 64 KiB: a longer line is
    discarded through its own newline before the ``ValueError``, so the
    next read starts on a statement boundary."""
    line = reader.readline(_LINE_LIMIT + 1)
    if len(line) <= _LINE_LIMIT or line.endswith(b"\n"):
        return line
    while line and not line.endswith(b"\n"):
        line = reader.readline(_LINE_LIMIT + 1)
    raise ValueError("statement line exceeds the 64 KiB limit")


class ReproServer:
    """Serve a shared :class:`~repro.db.Database` over the line protocol."""

    def __init__(
        self,
        db,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        use_plan_cache: bool = True,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.use_plan_cache = use_plan_cache
        self._listener: Optional[socket.socket] = None
        self._open: Set[socket.socket] = set()  # connections being served
        self._lock = threading.Lock()  # orders accept() against stop()

    def _handle(self, conn: socket.socket) -> None:
        session = Session(self.db, use_plan_cache=self.use_plan_cache)
        try:
            with conn, conn.makefile("rb") as reader:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while True:
                    try:
                        line = _read_line(reader)
                        if not line:
                            break
                        statement = line.decode("utf-8").strip()
                        if not statement:
                            continue
                        if statement in ("\\q", "quit", "exit"):
                            break
                        reply = _render(session.execute(statement))
                    except OSError:
                        raise
                    except Exception as error:
                        reply = _error_reply(error)
                    conn.sendall(reply)
        except OSError:
            pass  # the client vanished; there is nobody to tell
        finally:
            self._open.discard(conn)
            session.close()

    def start(self) -> None:
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]  # resolve port 0

    def serve_forever(self) -> None:
        """Accept on :meth:`start`'s socket until :meth:`stop`."""
        listener = self._listener
        while listener is not None and self._listener is listener:
            try:
                conn, _ = listener.accept()
            except OSError:  # an aborted handshake, or stop() closed us
                continue
            with self._lock:
                if self._listener is not listener:  # stop()'s wake-up call
                    conn.close()
                    break
                self._open.add(conn)
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def stop(self) -> None:
        """Stop accepting and shut every open connection down: its
        thread reads end-of-stream, closes its session and exits."""
        with self._lock:
            listener, self._listener = self._listener, None
            open_connections = list(self._open)
        if listener is None:
            return
        # close() does not wake a thread blocked in accept(); this does
        try:
            socket.create_connection(listener.getsockname()[:2], 1).close()
        except OSError:
            pass
        listener.close()
        for conn in open_connections:
            try:  # wakes a thread blocked reading; close() would not
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its client already hung up


class ServerThread:
    """A :class:`ReproServer` accepting on a background daemon thread:
    how tests and embedders run one in process. :meth:`start` binds on
    the caller's thread; with ``port=0`` read the port it got from
    :attr:`port`."""

    def __init__(
        self,
        db,
        host: str = DEFAULT_HOST,
        port: int = 0,
        use_plan_cache: bool = True,
    ):
        self.server = ReproServer(db, host, port, use_plan_cache=use_plan_cache)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self.server.start()
        self._thread.start()
        return self

    def client(self) -> "LineClient":
        return LineClient(self.host, self.port)

    def stop(self) -> None:
        self.server.stop()
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    db,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    use_plan_cache: bool = True,
) -> None:
    """Blocking entry point: serve *db* until interrupted."""
    server = ReproServer(db, host, port, use_plan_cache=use_plan_cache)
    server.start()
    print(f"repro server listening on {server.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro server stopped")
    finally:
        server.stop()


class LineClient:
    """Synchronous line-protocol client (the ``repro connect`` side,
    and what the end-to-end benchmark's ``serve_mixed`` client speaks)."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self._sock = socket.create_connection((host, port))
        self._file = self._sock.makefile("rwb")

    def execute(
        self, sql: str
    ) -> Tuple[List[str], List[Tuple[Optional[str], ...]]]:
        """Send one statement; returns ``(columns, rows)`` with every
        value as its text form (``None`` for NULL). Raises
        :class:`ReproError` on a server-reported error."""
        self._file.write((sql.replace("\n", " ").strip() + "\n").encode())
        self._file.flush()
        status = self._readline()
        if status.startswith("error "):
            self._drain()
            raise ReproError(status[len("error "):])
        if not status.startswith("ok "):
            raise ReproError(f"malformed server response: {status!r}")
        nrows = int(status[len("ok "):])
        columns: List[str] = []
        rows: List[Tuple[Optional[str], ...]] = []
        # "ok 0" is followed either directly by "." (an acknowledgement)
        # or by a header line then "." (an empty result set).
        header = self._readline()
        if header == ".":
            return columns, rows
        columns = header.split("\t")
        for _ in range(nrows):
            line = self._readline()
            row = line.split("\t")
            rows.append(tuple(map(decode_value, row) if "\\" in line else row))
        sentinel = self._readline()
        if sentinel != ".":
            raise ReproError(f"missing response sentinel, got {sentinel!r}")
        return columns, rows

    def _readline(self) -> str:
        line = self._file.readline()
        if not line:
            raise ReproError("server closed the connection")
        return line.decode("utf-8").rstrip("\n")

    def _drain(self) -> None:
        while True:
            if self._readline() == ".":
                return

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT) -> int:
    """Interactive client REPL (``repro connect``)."""
    try:
        client = LineClient(host, port)
    except OSError as error:
        print(f"cannot connect to {host}:{port}: {error}")
        return 1
    print(f"connected to repro server at {host}:{port} — \\q quits")
    try:
        while True:
            try:
                line = input("repro=> ")
            except EOFError:
                break
            statement = line.strip()
            if not statement:
                continue
            if statement in ("\\q", "quit", "exit"):
                break
            try:
                columns, rows = client.execute(statement)
            except ReproError as error:
                print(f"error: {error}")
                continue
            if columns:
                print("\t".join(columns))
                for row in rows:
                    print(
                        "\t".join("NULL" if v is None else v for v in row)
                    )
                print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
            else:
                print("ok")
    finally:
        client.close()
    print("bye")
    return 0
