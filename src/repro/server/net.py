"""A small asyncio server and line-protocol client.

Protocol (text, newline-delimited, UTF-8):

- The client sends one statement per line (``;`` optional). Newlines
  inside a statement are not supported — the shell collapses multi-line
  input before sending.
- The server answers with a header line, zero or more TSV rows, and a
  lone ``.`` sentinel line:

  - ``ok <nrows>`` then a TSV column-name line and ``<nrows>`` TSV value
    rows (queries), or no further lines before the sentinel
    (DDL/PREPARE/DEALLOCATE acknowledgements);
  - ``error <message>`` (single line) on failure — including a line
    that is not UTF-8 or is longer than 64 KiB, after which the
    connection is still usable.

  NULL encodes as ``\\N``; tab/newline/backslash in string values are
  escaped C-style, so a row is always exactly one line.

Each connection gets its own :class:`~repro.server.session.Session`.
Statement execution runs in a thread pool (``run_in_executor``), so the
event loop keeps accepting connections while readers execute
concurrently against COW snapshots; writes serialize on the database
write lock like any other session.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Any, List, Optional, Tuple

from ..errors import ReproError
from .session import Session

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 5433

_NULL = "\\N"
_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r")]


def encode_value(value: Any) -> str:
    if value is None:
        return _NULL
    text = str(value)
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


def decode_value(text: str) -> Optional[str]:
    if text == _NULL:
        return None
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(
                nxt, "\\" + nxt
            ))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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
        self.connections = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        loop = asyncio.get_running_loop()
        session = Session(self.db, use_plan_cache=self.use_plan_cache)
        try:
            while True:
                try:
                    line = await self._read_line(reader)
                    if not line:
                        break
                    statement = line.decode("utf-8").strip()
                    if not statement:
                        continue
                    if statement in ("\\q", "quit", "exit"):
                        break
                    result = await loop.run_in_executor(
                        None, session.execute, statement.rstrip(";")
                    )
                    payload = self._render(result)
                except ReproError as error:
                    message = str(error).replace("\n", " ")
                    payload = [f"error {message}"]
                except Exception as error:  # surface, never kill the loop
                    message = (
                        f"{type(error).__name__}: {error}".replace("\n", " ")
                    )
                    payload = [f"error {message}"]
                payload.append(".")
                writer.write(("\n".join(payload) + "\n").encode("utf-8"))
                await writer.drain()
        finally:
            session.close()
            writer.close()

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """``reader.readline()``, except that a line over the stream
        limit (asyncio's 64 KiB default) is skipped through its newline
        before the ``ValueError`` is raised, so the next read starts on
        a statement boundary and the connection stays usable."""
        overlong = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as eof:
                line = eof.partial
            except asyncio.LimitOverrunError as overrun:
                await reader.readexactly(overrun.consumed)
                overlong = True
                continue
            if overlong:
                raise ValueError("statement line exceeds the 64 KiB limit")
            return line

    @staticmethod
    def _render(result) -> List[str]:
        if result.kind in ("query", "execute"):
            lines = [f"ok {len(result.rows)}"]
            lines.append("\t".join(result.columns))
            for row in result.rows:
                lines.append("\t".join(encode_value(v) for v in row))
            return lines
        return ["ok 0"]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        address = self._server.sockets[0].getsockname()
        self.port = address[1]  # resolve port 0 to the bound port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class ServerThread:
    """A :class:`ReproServer` on a background event loop.

    ``asyncio.start_server`` accepts connections as soon as it returns,
    so no ``serve_forever`` task is needed — the loop just runs forever
    on a daemon thread until :meth:`stop`. Used by the serving tests;
    pass ``port=0`` to bind an ephemeral port and read it back from
    :attr:`port`.
    """

    def __init__(
        self,
        db,
        host: str = DEFAULT_HOST,
        port: int = 0,
        use_plan_cache: bool = True,
    ):
        self.server = ReproServer(db, host, port, use_plan_cache=use_plan_cache)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10)
        return self

    def client(self) -> "LineClient":
        return LineClient(self.host, self.port)

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

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

    async def run() -> None:
        await server.start()
        print(f"repro server listening on {server.host}:{server.port}")
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro server stopped")


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
            rows.append(
                tuple(
                    decode_value(cell)
                    for cell in self._readline().split("\t")
                )
            )
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
