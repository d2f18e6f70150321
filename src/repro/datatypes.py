"""Column data types and their physical widths.

The cost model in the paper is IO-only (Section 5), which makes the byte
width of intermediate tuples a first-class quantity: pulling up a group-by
widens tuples ("Increased Size of Projection Columns", Section 3), and the
greedy conservative heuristic explicitly compares widths (Section 5.2).
This module defines the small type system used to compute those widths.
"""

from __future__ import annotations

import enum
from typing import Any

from .errors import SchemaError


class DataType(enum.Enum):
    """Supported column types with fixed physical widths in bytes.

    Each member is declared as ``(name, width)``; ``value`` stays the
    name (``DataType("int")`` resolves as before) and ``width`` — the
    physical width in bytes used for page-count estimation — is a plain
    attribute, because schema and page arithmetic read it on every
    intermediate result the optimizer costs.
    """

    width: int

    def __new__(cls, value: str, width: int) -> "DataType":
        member = object.__new__(cls)
        member._value_ = value
        member.width = width
        return member

    INT = ("int", 4)
    FLOAT = ("float", 8)
    STR = ("str", 16)  # average string payload assumed by the cost model
    BOOL = ("bool", 1)
    DATE = ("date", 4)  # stored as integer day number

    def validate(self, value: Any, nullable: bool = False) -> Any:
        """Check *value* against this type, returning the canonical form.

        Raises :class:`SchemaError` on a mismatch. ``None`` is rejected
        unless the column is declared *nullable*: the paper assumes a
        NULL-free database (Section 2), so NULL-bearing columns are
        opt-in (``CREATE TABLE t (x int null)``).
        """
        if value is None:
            if nullable:
                return None
            raise SchemaError(
                "NULL in a NOT NULL column (declare the column with "
                "NULL to allow it; the paper assumes a NULL-free "
                "database, Section 2)"
            )
        checker = _CHECKERS[self]
        converted = checker(value)
        if converted is _INVALID:
            raise SchemaError(f"value {value!r} is not a valid {self.value}")
        return converted


_INVALID = object()


def _check_int(value: Any) -> Any:
    if isinstance(value, bool):
        return _INVALID
    if isinstance(value, int):
        return value
    return _INVALID


def _check_float(value: Any) -> Any:
    if isinstance(value, bool):
        return _INVALID
    if isinstance(value, (int, float)):
        return float(value)
    return _INVALID


def _check_str(value: Any) -> Any:
    if isinstance(value, str):
        return value
    return _INVALID


def _check_bool(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    return _INVALID


_CHECKERS = {
    DataType.INT: _check_int,
    DataType.FLOAT: _check_float,
    DataType.STR: _check_str,
    DataType.BOOL: _check_bool,
    DataType.DATE: _check_int,
}


class NullOrdered:
    """Total-order wrapper placing NULL (None) before every value.

    Python refuses ``None < 3``, but sort operators and merge joins must
    order rows whose keys contain NULLs. SQL leaves NULL placement to
    the implementation; NULLS FIRST is this engine's convention (it also
    matches SQLite's default ASC ordering, which the differential oracle
    relies on).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "NullOrdered") -> bool:
        a, b = self.value, other.value
        if a is None:
            return b is not None
        if b is None:
            return False
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullOrdered) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NullOrdered({self.value!r})"


def null_ordered_key(values: Any) -> Any:
    """A sort key for a tuple of possibly-NULL values (NULLS FIRST)."""
    return tuple(NullOrdered(value) for value in values)


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python value (for literals)."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STR
    raise SchemaError(f"cannot infer a column type for {value!r}")
