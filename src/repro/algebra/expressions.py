"""Scalar expressions over aliased columns.

Expressions appear as selection/join predicates (WHERE conjuncts), HAVING
conditions over aggregate outputs, and arithmetic inside aggregate
arguments. They are immutable and hashable, so transformations can move
them between operator trees and deduplicate them freely.

Evaluation is two-step: :meth:`Expression.bind` compiles the expression
against a :class:`~repro.catalog.schema.RowSchema` into a plain
``row -> value`` closure, so per-row evaluation costs one function call
instead of a tree walk.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..catalog.schema import RowSchema
from ..datatypes import DataType, infer_type
from ..errors import PlanError

FieldKey = Tuple[Optional[str], str]
"""A column identity: (table alias or None, column name)."""


class Expression:
    """Base class of all scalar expressions.

    Every kind speaks one protocol: it names its constructor fields
    once, each kept under the attribute of the same name. ``OPERANDS``
    are the fields holding sub-expressions — one expression, ``None``,
    or a tuple of expressions (``And.items``, ``FuncCall.args``) — in
    left-to-right order; ``VALUES`` are its plain values (an operator, a
    flag, a name); ``OPAQUE`` are fields a rebuild carries but identity
    ignores (``FuncCall``'s callable). From those follow ``children``;
    :meth:`replace` and :meth:`map_children`, rebuilds through the
    constructor; structural ``==`` / ``hash`` over ``VALUES +
    OPERANDS``; and :meth:`columns` / :meth:`substitute`, with
    :class:`ColumnRef` the one base case. A walk over any expression
    therefore needs no per-kind arm. What stays per kind is what really
    differs: :meth:`bind`, :meth:`dtype` and :meth:`display` here, and
    the kernel emitter, the unparser, selectivity estimation and the
    binder's resolution elsewhere.

    ``columns()``, ``aliases()`` and the hash are memoized: expressions
    are immutable, and the optimizer's enumeration loops ask for them on
    every connectivity / predicate-placement / projection check. The
    base class has no ``__slots__``, so every instance carries a
    ``__dict__`` to store them in.
    """

    OPERANDS: Tuple[str, ...] = ()
    VALUES: Tuple[str, ...] = ()
    OPAQUE: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        identity = cls.VALUES + cls.OPERANDS
        if identity:  # an abstract base that groups kinds has none
            # one field reads back bare, several as a tuple: either way
            # a C-speed key that compares with ``==`` field by field
            cls._identity = attrgetter(*identity)
        cls._fields = identity + cls.OPAQUE

    @property
    def children(self) -> Tuple["Expression", ...]:
        """The immediate sub-expressions, in ``OPERANDS`` order."""
        found: List[Expression] = []
        for name in self.OPERANDS:
            value = getattr(self, name)
            if type(value) is tuple:
                found.extend(value)
            elif value is not None:
                found.append(value)
        return tuple(found)

    def map_children(
        self, fn: Callable[["Expression"], "Expression"]
    ) -> "Expression":
        """This expression rebuilt through its constructor with *fn*
        applied to every child; ``self`` when no child changed."""
        changes: Dict[str, Any] = {}
        for name in self.OPERANDS:
            old = getattr(self, name)
            if type(old) is tuple:
                new = tuple([fn(item) for item in old])
                if any(a is not b for a, b in zip(new, old)):
                    changes[name] = new
            elif old is not None:
                new = fn(old)
                if new is not old:
                    changes[name] = new
        return self.replace(**changes) if changes else self

    def replace(self, **changes: Any) -> "Expression":
        """This expression rebuilt through its constructor with the
        named fields changed (a fresh object even with no change)."""
        arguments = {name: getattr(self, name) for name in self._fields}
        arguments.update(changes)
        return type(self)(**arguments)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return False
        identity = self._identity
        return identity(self) == identity(other)

    def __hash__(self) -> int:
        try:
            return self._hash_memo  # type: ignore[attr-defined]
        except AttributeError:
            memo = hash((type(self), self._identity(self)))
            self._hash_memo = memo
            return memo

    def columns(self) -> FrozenSet[FieldKey]:
        """All column references appearing in this expression."""
        try:
            return self._columns_memo  # type: ignore[attr-defined]
        except AttributeError:
            memo = self._compute_columns()
            self._columns_memo = memo
            return memo

    def _compute_columns(self) -> FrozenSet[FieldKey]:
        return _EMPTY.union(*[child.columns() for child in self.children])

    def substitute(self, mapping: Dict[FieldKey, "Expression"]) -> "Expression":
        """Return a copy with column references replaced per *mapping*
        (``self`` when none of its columns is mapped)."""
        if mapping.keys().isdisjoint(self.columns()):
            return self
        return self.map_children(lambda child: child.substitute(mapping))

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        """Compile to a ``row -> value`` closure for *schema*."""
        raise NotImplementedError

    def dtype(self, schema: RowSchema) -> DataType:
        """The result type of this expression over *schema*."""
        raise NotImplementedError

    def aliases(self) -> FrozenSet[str]:
        """Table aliases this expression refers to (None excluded)."""
        try:
            return self._aliases_memo  # type: ignore[attr-defined]
        except AttributeError:
            memo = frozenset(
                alias for alias, _ in self.columns() if alias is not None
            )
            self._aliases_memo = memo
            return memo

    def display(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.display()


_EMPTY: FrozenSet[FieldKey] = frozenset()


class ColumnRef(Expression):
    """A reference to a column of some table alias (or a computed field)."""

    VALUES = ("alias", "name")

    def __init__(self, alias: Optional[str], name: str):
        self.alias = alias
        self.name = name

    @property
    def key(self) -> FieldKey:
        return (self.alias, self.name)

    def _compute_columns(self) -> FrozenSet[FieldKey]:
        return frozenset({self.key})

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        position = schema.index_of(self.alias, self.name)
        return lambda row: row[position]

    def dtype(self, schema: RowSchema) -> DataType:
        return schema.field_of(self.alias, self.name).dtype

    def substitute(self, mapping: Dict[FieldKey, Expression]) -> Expression:
        replacement = mapping.get(self.key)
        return replacement if replacement is not None else self

    def display(self) -> str:
        return f"{self.alias}.{self.name}" if self.alias else self.name


class Literal(Expression):
    """A constant value."""

    VALUES = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        value = self.value
        return lambda row: value

    def dtype(self, schema: RowSchema) -> DataType:
        return infer_type(self.value)

    def display(self) -> str:
        return repr(self.value)


class Parameter(Expression):
    """A prepared-statement placeholder (``$1``, ``$2``, ...).

    Parameters stand where literals would in WHERE/HAVING predicates.
    They survive binding and optimization as opaque constants of unknown
    value — the cardinality estimator prices ``col = $n`` as a value it
    has not seen (the non-MCV ``1/NDV`` rule) and every other use at its
    default selectivity, index-probe extraction carries ``col = $n``
    into ``ScanNode.index_values`` as it would a literal, and
    view-matching subsumption proofs refuse them. They get their values
    when a plan runs: the engine reads them from
    ``ExecutionContext.parameters`` (:meth:`value`). Indexes are 1-based,
    following PREPARE convention.
    """

    VALUES = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise PlanError(f"parameter indexes are 1-based, got {index}")
        self.index = index

    def value(self, parameters: Sequence[Any]) -> Any:
        """This placeholder's value among one execution's *parameters*
        (the EXECUTE's values, ``$1`` first)."""
        if self.index > len(parameters):
            raise self._unbound()
        return parameters[self.index - 1]

    def _unbound(self) -> PlanError:
        return PlanError(
            f"parameter ${self.index} is unbound; EXECUTE the prepared "
            "statement with a value for it"
        )

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        # a row closure is bound once, outside any execution
        raise self._unbound()

    def dtype(self, schema: RowSchema) -> DataType:
        raise PlanError(
            f"parameter ${self.index} has no type until EXECUTE binds it; "
            "parameters may only appear in predicates"
        )

    def display(self) -> str:
        return f"${self.index}"


def _null_guarded(op: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    """SQL comparison semantics: any NULL operand makes the result
    UNKNOWN (represented as ``None``), never True or False."""

    def compare(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        return op(a, b)

    return compare


_COMPARISON_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": _null_guarded(lambda a, b: a == b),
    "!=": _null_guarded(lambda a, b: a != b),
    "<": _null_guarded(lambda a, b: a < b),
    "<=": _null_guarded(lambda a, b: a <= b),
    ">": _null_guarded(lambda a, b: a > b),
    ">=": _null_guarded(lambda a, b: a >= b),
}

COMPARISON_FLIP = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


class Comparison(Expression):
    """A binary comparison: ``left op right``."""

    VALUES = ("op",)
    OPERANDS = ("left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARISON_OPS:
            raise PlanError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        op = _COMPARISON_OPS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: op(left(row), right(row))

    def dtype(self, schema: RowSchema) -> DataType:
        return DataType.BOOL

    def display(self) -> str:
        return f"({self.left.display()} {self.op} {self.right.display()})"


class And(Expression):
    """Conjunction of one or more expressions."""

    OPERANDS = ("items",)

    def __init__(self, items: Sequence[Expression]):
        if not items:
            raise PlanError("AND of zero conjuncts")
        self.items: Tuple[Expression, ...] = tuple(items)

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        bound = [item.bind(schema) for item in self.items]

        def evaluate(row: Tuple[Any, ...]) -> Any:
            # Kleene AND: False dominates, else UNKNOWN (None) sticks.
            unknown = False
            for check in bound:
                value = check(row)
                if value is None:
                    unknown = True
                elif not value:
                    return False
            return None if unknown else True

        return evaluate

    def dtype(self, schema: RowSchema) -> DataType:
        return DataType.BOOL

    def display(self) -> str:
        return " AND ".join(item.display() for item in self.items)


class Or(Expression):
    """Disjunction of one or more expressions."""

    OPERANDS = ("items",)

    def __init__(self, items: Sequence[Expression]):
        if not items:
            raise PlanError("OR of zero disjuncts")
        self.items: Tuple[Expression, ...] = tuple(items)

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        bound = [item.bind(schema) for item in self.items]

        def evaluate(row: Tuple[Any, ...]) -> Any:
            # Kleene OR: True dominates, else UNKNOWN (None) sticks.
            unknown = False
            for check in bound:
                value = check(row)
                if value is None:
                    unknown = True
                elif value:
                    return True
            return None if unknown else False

        return evaluate

    def dtype(self, schema: RowSchema) -> DataType:
        return DataType.BOOL

    def display(self) -> str:
        return "(" + " OR ".join(item.display() for item in self.items) + ")"


class Not(Expression):
    """Logical negation."""

    OPERANDS = ("item",)

    def __init__(self, item: Expression):
        self.item = item

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        bound = self.item.bind(schema)

        def evaluate(row: Tuple[Any, ...]) -> Any:
            value = bound(row)  # NOT UNKNOWN stays UNKNOWN (Kleene)
            return None if value is None else not value

        return evaluate

    def dtype(self, schema: RowSchema) -> DataType:
        return DataType.BOOL

    def display(self) -> str:
        return f"NOT {self.item.display()}"


def _null_arith(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """SQL arithmetic: any NULL operand makes the result NULL."""

    def apply(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        return op(a, b)

    return apply


_ARITH_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _null_arith(lambda a, b: a + b),
    "-": _null_arith(lambda a, b: a - b),
    "*": _null_arith(lambda a, b: a * b),
    "/": _null_arith(lambda a, b: a / b),
}


class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL`` — the only predicates
    that are never UNKNOWN, so NULL-bearing rows stay reachable."""

    VALUES = ("negate",)
    OPERANDS = ("item",)

    def __init__(self, item: Expression, negate: bool = False):
        self.item = item
        self.negate = negate

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        bound = self.item.bind(schema)
        if self.negate:
            return lambda row: bound(row) is not None
        return lambda row: bound(row) is None

    def dtype(self, schema: RowSchema) -> DataType:
        return DataType.BOOL

    def display(self) -> str:
        suffix = "IS NOT NULL" if self.negate else "IS NULL"
        return f"({self.item.display()} {suffix})"


class Arith(Expression):
    """Binary arithmetic: ``left op right`` with op in ``+ - * /``."""

    VALUES = ("op",)
    OPERANDS = ("left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITH_OPS:
            raise PlanError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        op = _ARITH_OPS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: op(left(row), right(row))

    def dtype(self, schema: RowSchema) -> DataType:
        if self.op == "/":
            return DataType.FLOAT
        left = self.left.dtype(schema)
        right = self.right.dtype(schema)
        if DataType.FLOAT in (left, right):
            return DataType.FLOAT
        return left

    def display(self) -> str:
        return f"({self.left.display()} {self.op} {self.right.display()})"


class FuncCall(Expression):
    """A scalar function call (sqrt, abs, ...) used by aggregate
    finalization expressions such as STDDEV's."""

    VALUES = ("func_name",)
    OPERANDS = ("args",)
    OPAQUE = ("func",)

    def __init__(
        self,
        func_name: str,
        func: Callable[..., Any],
        args: Sequence[Expression],
    ):
        self.func_name = func_name
        self.func = func
        self.args: Tuple[Expression, ...] = tuple(args)

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        func = self.func
        bound = [arg.bind(schema) for arg in self.args]

        def evaluate(row: Tuple[Any, ...]) -> Any:
            values = [e(row) for e in bound]
            if any(value is None for value in values):
                return None  # SQL scalar functions are NULL-propagating
            return func(*values)

        return evaluate

    def dtype(self, schema: RowSchema) -> DataType:
        return DataType.FLOAT

    def display(self) -> str:
        args = ", ".join(arg.display() for arg in self.args)
        return f"{self.func_name}({args})"


class IfNull(Expression):
    """``IFNULL(item, default)`` — the item when non-NULL, else the
    default. Unlike :class:`FuncCall` this is deliberately *not*
    NULL-propagating: it exists to stop a NULL (COUNT coalesced through
    SUM over zero partial rows, a carry-weighted count over an all-NULL
    group) where SQL semantics demand a 0."""

    OPERANDS = ("item", "default")

    def __init__(self, item: Expression, default: Expression):
        self.item = item
        self.default = default

    def bind(self, schema: RowSchema) -> Callable[[Tuple[Any, ...]], Any]:
        item = self.item.bind(schema)
        default = self.default.bind(schema)

        def evaluate(row: Tuple[Any, ...]) -> Any:
            value = item(row)
            return default(row) if value is None else value

        return evaluate

    def dtype(self, schema: RowSchema) -> DataType:
        return self.item.dtype(schema)

    def display(self) -> str:
        return f"ifnull({self.item.display()}, {self.default.display()})"


# ----------------------------------------------------------------------
# Convenience constructors and predicate utilities
# ----------------------------------------------------------------------


def col(reference: str) -> ColumnRef:
    """Build a :class:`ColumnRef` from ``"alias.name"`` or ``"name"``."""
    if "." in reference:
        alias, _, name = reference.partition(".")
        return ColumnRef(alias, name)
    return ColumnRef(None, reference)


def lit(value: Any) -> Literal:
    """Build a :class:`Literal` from a Python value."""
    return Literal(value)


def conjuncts(expression: Optional[Expression]) -> Tuple[Expression, ...]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expression is None:
        return ()
    if isinstance(expression, And):
        result: Tuple[Expression, ...] = ()
        for item in expression.items:
            result += conjuncts(item)
        return result
    return (expression,)


def and_all(items: Sequence[Expression]) -> Optional[Expression]:
    """Combine conjuncts into one expression (None when empty)."""
    flattened: Tuple[Expression, ...] = ()
    for item in items:
        flattened += conjuncts(item)
    if not flattened:
        return None
    if len(flattened) == 1:
        return flattened[0]
    return And(flattened)


def equijoin_sides(
    predicate: Expression,
) -> Optional[Tuple[FieldKey, FieldKey]]:
    """If *predicate* is ``col1 = col2``, return the two field keys."""
    if (
        isinstance(predicate, Comparison)
        and predicate.op == "="
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, ColumnRef)
    ):
        return (predicate.left.key, predicate.right.key)
    return None


def collect_parameters(expression: Expression) -> FrozenSet[int]:
    """Indexes of every :class:`Parameter` inside *expression*."""
    if isinstance(expression, Parameter):
        return frozenset({expression.index})
    return frozenset().union(*map(collect_parameters, expression.children))


def replace_parameters(
    expression: Expression, values: Dict[int, "Expression"]
) -> Expression:
    """Copy of *expression* with each ``$n`` replaced by ``values[n]``.

    Subtrees without parameters are returned as-is (expressions are
    immutable, so sharing is safe). Raises :class:`PlanError` on a
    parameter index missing from *values*.
    """
    if isinstance(expression, Parameter):
        replacement = values.get(expression.index)
        if replacement is None:
            raise PlanError(
                f"no value bound for parameter ${expression.index}"
            )
        return replacement
    return expression.map_children(
        lambda child: replace_parameters(child, values)
    )


def _comparison_with(
    predicate: Expression, operand_type: type
) -> Optional[Tuple[FieldKey, str, Expression]]:
    """``col op operand`` (either side) as ``(column, op, operand)``
    with the column on the left, *operand* being of *operand_type*."""
    if not isinstance(predicate, Comparison):
        return None
    if isinstance(predicate.left, ColumnRef) and isinstance(
        predicate.right, operand_type
    ):
        return (predicate.left.key, predicate.op, predicate.right)
    if isinstance(predicate.left, operand_type) and isinstance(
        predicate.right, ColumnRef
    ):
        flipped = COMPARISON_FLIP[predicate.op]
        return (predicate.right.key, flipped, predicate.left)
    return None


def comparison_with_literal(
    predicate: Expression,
) -> Optional[Tuple[FieldKey, str, Any]]:
    """If *predicate* is ``col op literal`` (either side), normalize to
    ``(column, op, value)`` with the column on the left."""
    form = _comparison_with(predicate, Literal)
    if form is None:
        return None
    key, op, literal = form
    return (key, op, literal.value)


def comparison_with_parameter(
    predicate: Expression,
) -> Optional[Tuple[FieldKey, str, Parameter]]:
    """If *predicate* is ``col op $n`` (either side), normalize to
    ``(column, op, parameter)`` with the column on the left — the
    shape :func:`comparison_with_literal` gives a literal, with the
    :class:`Parameter` itself standing where the value would."""
    return _comparison_with(predicate, Parameter)
