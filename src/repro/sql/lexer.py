"""Tokenizer for the supported SQL dialect: one compiled pattern, the
same for every statement kind. In a string ``''`` is one quote; a number
is ASCII digits with an optional fraction and exponent, and a letter,
digit or underscore directly after one is an error (``1_0``, ``1e``);
``--`` starts a comment. A token carries its source *offset*; line and
column are computed from it only when an error is raised.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import SqlSyntaxError
from ..trace import traced

KEYWORDS = {
    "select",
    "all",
    "distinct",
    "from",
    "where",
    "group",
    "by",
    "having",
    "as",
    "and",
    "or",
    "not",
    "with",
    "in",
    "exists",
    "order",
    "between",
    "asc",
    "desc",
    "limit",
    "true",
    "false",
    "is",
    "null",
    "join",
    "left",
    "right",
    "full",
    "outer",
    "inner",
    "cross",
    "on",
}

# Alternatives are tried in order; the named group that matched is the
# token kind. "junk" and "bad" are the two that raise.
_MASTER = re.compile(
    r"\s+|--[^\n]*"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)(?P<junk>\w)?"
    r"|'(?P<string>(?:[^']|'')*)'"
    r"|(?P<op><=|>=|<>|!=|=|<|>)"
    r"|(?P<punctuation>[(),.*+\-/;])"
    r"|\$(?P<param>[0-9]+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)

_FIRST_WORD = re.compile(r"\s*([^\W\d]\w*)")

_BAD = {
    "'": "unterminated string literal",
    "$": "expected a parameter number after '$'",
}


class Token(NamedTuple):
    """One lexical token and where it starts in the source text."""

    kind: str  # keyword | name | number | string | param | op | punctuation | eof
    text: str
    offset: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word


def syntax_error(message: str, sql: str, offset: int) -> SqlSyntaxError:
    """A :class:`SqlSyntaxError` at *offset* of *sql* (1-based line and
    column; only ``\\n`` ends a line)."""
    line_start = sql.rfind("\n", 0, offset) + 1
    return SqlSyntaxError(
        message, sql.count("\n", 0, offset) + 1, offset - line_start + 1
    )


@traced("sql.lex")
def tokenize(sql: str) -> List[Token]:
    """Tokenize *sql*; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    for match in _MASTER.finditer(sql):
        kind = match.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        text = match[kind]
        if kind == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                kind, text = "keyword", lowered
            else:
                kind = "name"
        elif kind == "string":
            text = text.replace("''", "'")
        elif kind == "op":
            if text == "<>":
                text = "!="
        elif kind == "junk":
            raise syntax_error(
                f"unexpected character {text!r} in a number",
                sql,
                match.start(kind),
            )
        elif kind == "bad":
            raise syntax_error(
                _BAD.get(text, f"unexpected character {text!r}"),
                sql,
                match.start(),
            )
        append(new(Token, (kind, text, match.start())))
    append(new(Token, ("eof", "", len(sql))))
    return tokens


def first_word(sql: str) -> str:
    """The statement's first word, lower-cased (``""`` if it does not
    start with one): what classifies a statement before it is lexed."""
    match = _FIRST_WORD.match(sql)
    return match[1].lower() if match else ""


def split_statements(text: str) -> List[str]:
    """The statements of a script, cut at ``;`` *tokens* (a ``;`` in a
    string or a comment ends nothing); empty statements are dropped."""
    statements: List[str] = []
    start = None
    for token in tokenize(text):
        if token.kind == "eof" or (
            token.kind == "punctuation" and token.text == ";"
        ):
            if start is not None:
                statements.append(text[start : token.offset].rstrip())
                start = None
        elif start is None:
            start = token.offset
    return statements
