"""The line protocol's bytes, pinned three ways.

(a) ``tests/golden/wire_transcript.txt`` holds the raw reply bytes of a
    fixed statement list, generated from the last commit whose protocol
    is the reference (the asyncio server PR 22 replaced) and compared
    byte for byte. Run as a script to regenerate it *on purpose* — from
    the commit whose bytes are to be pinned::

        PYTHONPATH=src python tests/test_wire_protocol.py

    (point ``PYTHONPATH`` at another checkout's ``src`` to pin that
    commit's bytes instead).
(b) Properties: the per-column encoder equals ``encode_value`` cell by
    cell, ``decode_value`` equals the character loop it replaced (kept
    here as the reference), and the two round-trip.
(c) Unicode line separators other than ``\\n`` travel inside a value
    over a live server — the trap for anyone who reaches for
    ``str.splitlines()``.
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import List, Optional, Tuple

from hypothesis import given
from hypothesis import strategies as st

from repro.cli import make_demo_database
from repro.server.net import (
    ServerThread,
    decode_value,
    encode_value,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "wire_transcript.txt"

NASTY = "tab\there\nnewline\rreturn\\backslash"

LINE_LIMIT = 64 * 1024
AT_LIMIT = b"SELECT d.dno FROM dept d WHERE d.dno = 5"

EXCHANGES: Tuple[Tuple[str, bytes], ...] = (
    (
        "ints and floats",
        b"SELECT e.dno, COUNT(*) AS c, AVG(e.sal) AS a FROM emp e "
        b"WHERE e.dno < 3 GROUP BY e.dno ORDER BY dno",
    ),
    (
        "int, float, bool",
        b"SELECT w.id, w.f, w.b FROM wire w WHERE w.id < 3 ORDER BY id",
    ),
    (
        "NULLs, escapes, a literal backslash-N, a lone dot",
        b"SELECT w.id, w.ni, w.note FROM wire w ORDER BY id",
    ),
    (
        "one column whose value is the sentinel",
        b"SELECT w.note FROM wire w WHERE w.id = 5",
    ),
    ("empty result", b"SELECT w.note FROM wire w WHERE w.id = 99;"),
    ("DDL ack", b"CREATE TABLE kv (k int, v text null)"),
    ("INSERT ack", b"INSERT INTO kv VALUES (1, 'one'), (2, NULL)"),
    ("rows just inserted", b"SELECT k.k, k.v FROM kv k ORDER BY k"),
    ("blank line, then a statement", b"\nSELECT d.dno FROM dept d WHERE d.dno = 3"),
    ("ReproError", b"SELECT x.a FROM missing x"),
    ("syntax error quoting the input", b"SELECT e.eno FROM emp e 'a\rb'"),
    (
        "hostile: not UTF-8",
        b"SELECT e.eno FROM emp e WHERE e.name = '\xff\xfe'",
    ),
    (
        "hostile: over 64 KiB",
        b"SELECT e.eno FROM emp e WHERE e.eno IN (" + b"1," * 40_000 + b"1)",
    ),
    ("still usable", b"SELECT d.dno FROM dept d WHERE d.dno = 4"),
    ("exactly 64 KiB is a statement", AT_LIMIT.ljust(LINE_LIMIT)),
    ("one byte more is not", AT_LIMIT.ljust(LINE_LIMIT + 1)),
)


def wire_database():
    """The demo database plus one table holding every value the
    encoding treats specially (a newline cannot arrive in a statement
    line, so the rows are inserted in process)."""
    db = make_demo_database()
    db.create_table(
        "wire",
        [("id", "int"), ("f", "float"), ("b", "bool"), ("ni", "int"),
         ("note", "str")],
        primary_key=["id"],
        nullable=["ni", "note"],
    )
    db.insert(
        "wire",
        [
            (1, 1.5, True, 10, "plain"),
            (2, -1e-07, False, None, None),
            (3, 1e22, True, 30, NASTY),
            (4, 0.0, False, None, "\\N"),
            (5, 2.0, True, 50, "."),
        ],
    )
    return db


def read_reply(reader) -> bytes:
    """Raw bytes of one reply, framed by the protocol's own grammar (a
    value row may itself be a lone ``.``)."""
    lines = [reader.readline()]
    status = lines[0]
    assert status.startswith((b"ok ", b"error ")), status
    if status.startswith(b"ok "):
        lines.append(reader.readline())
        if lines[-1] != b".\n":  # a header: rows and the sentinel follow
            lines.extend(reader.readline() for _ in range(int(status[3:])))
            lines.append(reader.readline())
    else:
        lines.append(reader.readline())
    assert lines[-1] == b".\n", lines
    return b"".join(lines)


def transcript() -> bytes:
    """``-- label`` then the reply's raw bytes, for every exchange, over
    one connection."""
    out: List[bytes] = []
    with ServerThread(wire_database(), port=0) as server:
        with socket.create_connection(
            (server.host, server.port)
        ) as sock, sock.makefile("rb") as reader:
            for label, request in EXCHANGES:
                sock.sendall(request + b"\n")
                out.append(b"-- " + label.encode() + b"\n" + read_reply(reader))
    return b"".join(out)


def test_golden_transcript_is_byte_identical():
    assert transcript() == GOLDEN.read_bytes()


# ----------------------------------------------------------------------
# (b) properties
# ----------------------------------------------------------------------


def reference_decode(text: str) -> Optional[str]:
    """``decode_value`` as it was before PR 22: one character at a
    time. The reference the fast path is compared against."""
    if text == "\\N":
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


# Text that is dense in what the encoding cares about, plus anything.
wire_text = st.one_of(
    st.text(alphabet="\\tnrN\t\n\r.a", max_size=12),
    st.text(max_size=20),
)
cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    wire_text,
)
# Columns as the engine produces them (one type, maybe NULLs) and as
# nothing forbids (mixed).
column = st.one_of(
    st.lists(st.one_of(st.none(), st.integers()), max_size=8),
    st.lists(st.one_of(st.none(), st.floats()), max_size=8),
    st.lists(st.one_of(st.booleans(), st.integers()), max_size=8),
    st.lists(st.one_of(st.none(), wire_text), max_size=8),
    st.lists(cell, max_size=8),
)


@given(column)
def test_column_encoder_equals_encode_value(values):
    # Imported here so the script still regenerates the transcript from
    # a checkout that predates the column encoder.
    from repro.server.net import _encode_column

    assert list(_encode_column(values)) == [encode_value(v) for v in values]


@given(wire_text)
def test_decode_equals_the_character_loop(text):
    assert decode_value(text) == reference_decode(text)


@given(wire_text)
def test_encode_decode_roundtrip(text):
    encoded = encode_value(text)
    assert "\n" not in encoded and "\t" not in encoded and "\r" not in encoded
    assert decode_value(encoded) == text


# ----------------------------------------------------------------------
# (c) line separators that are not "\n"
# ----------------------------------------------------------------------


def test_unicode_line_separators_travel_inside_a_value():
    value = "a\x0bb\x0cc\x1cd\x85e\u2028f"
    db = make_demo_database()
    db.create_table("seps", [("id", "int"), ("s", "str")])
    db.insert("seps", [(1, value), (2, "after")])
    with ServerThread(db, port=0) as server, server.client() as client:
        columns, rows = client.execute("SELECT t.id, t.s FROM seps t ORDER BY id")
        assert (columns, rows) == (["id", "s"], [("1", value), ("2", "after")])
        # ...and in a statement line, on the way in
        client.execute(f"INSERT INTO seps VALUES (3, '{value}')")
        _, rows = client.execute("SELECT t.s FROM seps t WHERE t.id = 3")
        assert rows == [(value,)]


if __name__ == "__main__":
    GOLDEN.write_bytes(transcript())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
