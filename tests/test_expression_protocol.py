"""One expression protocol: every kind declares its fields once.

Each ``Expression`` kind names its constructor fields in ``OPERANDS``
(sub-expressions: one, ``None`` or a tuple), ``VALUES`` (plain values)
and ``OPAQUE`` (carried, not compared). ``children``, ``replace``,
``map_children``, ``==`` / ``hash``, ``columns`` and ``substitute``
follow from them, so every structural walk — parameter collection and
replacement, literal lifting, the binder's subquery and aggregate
walks — is one walk with no per-kind arm. These tests build one
instance of every kind found by walking ``__subclasses__()``, so a new
kind cannot skip them: it fails here until it has a builder below.
"""

import pytest

from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    IfNull,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
    collect_parameters,
    replace_parameters,
)
from repro.errors import BindError
from repro.server.parameterize import _lift
from repro.sql.ast import (
    AggregateExpr,
    ExistsExpr,
    InSubqueryExpr,
    SubqueryExpr,
    SubqueryPredicate,
    UnboundExpression,
)
from repro.sql.binder import _contains_subquery, _replace_aggregates
from repro.sql.parser import parse_select
from repro.sql.unparse import _AggregatePlaceholder


def concrete_expression_kinds():
    """Every ``Expression`` subclass in ``repro`` with no subclass of
    its own (the abstract bases have some)."""
    found, pending = [], [Expression]
    while pending:
        cls = pending.pop()
        subclasses = cls.__subclasses__()
        pending.extend(subclasses)
        if not subclasses and cls.__module__.startswith("repro."):
            found.append(cls)
    return found


def _stmt():
    return parse_select("select u.a from u where u.b = 1")


def _half(value):
    return value / 2


# kind name -> builder placing *m* in every operand slot
BUILDERS = {
    "ColumnRef": lambda m: ColumnRef("t", "a"),
    "Literal": lambda m: Literal(3),
    "Parameter": lambda m: Parameter(2),
    "Comparison": lambda m: Comparison("<", m, m),
    "And": lambda m: And([m, m]),
    "Or": lambda m: Or([m, m]),
    "Not": lambda m: Not(m),
    "IsNull": lambda m: IsNull(m, negate=True),
    "Arith": lambda m: Arith("+", m, m),
    "FuncCall": lambda m: FuncCall("half", _half, [m, m]),
    "IfNull": lambda m: IfNull(m, m),
    "AggregateExpr": lambda m: AggregateExpr("sum", m),
    "SubqueryExpr": lambda m: SubqueryExpr(_stmt()),
    "InSubqueryExpr": lambda m: InSubqueryExpr(m, _stmt(), True),
    "ExistsExpr": lambda m: ExistsExpr(_stmt()),
    "_AggregatePlaceholder": lambda m: _AggregatePlaceholder(
        AggregateCall("sum", ColumnRef("t", "b"))
    ),
}

KINDS = concrete_expression_kinds()
COMPOSITES = [cls for cls in KINDS if cls.OPERANDS]


def build(cls, marker=None):
    return BUILDERS[cls.__name__](
        marker if marker is not None else ColumnRef("t", "c")
    )


def _deep_rebuild(expression):
    return expression.map_children(_deep_rebuild).replace()


def test_every_kind_has_a_builder_and_declares_its_fields():
    names = {cls.__name__ for cls in KINDS}
    assert names == set(BUILDERS)
    assert len(COMPOSITES) >= 10
    for cls in KINDS:
        assert cls.VALUES or cls.OPERANDS, cls.__name__
        instance = build(cls)
        assert type(instance) is cls
        for name in cls.VALUES + cls.OPERANDS + cls.OPAQUE:
            assert hasattr(instance, name), (cls.__name__, name)


def test_no_kind_hand_writes_a_structural_method():
    """``==``, ``hash``, ``substitute`` and ``columns`` come from the
    base; ``ColumnRef`` alone is the base case of the last two."""
    for cls in KINDS:
        for method in ("__eq__", "__hash__", "columns"):
            assert method not in vars(cls), (cls.__name__, method)
        if cls is not ColumnRef:
            for method in ("substitute", "_compute_columns"):
                assert method not in vars(cls), (cls.__name__, method)


@pytest.mark.parametrize("cls", KINDS, ids=lambda cls: cls.__name__)
def test_rebuild_is_equal_and_hash_equal(cls):
    original = build(cls)
    for rebuilt in (original.replace(), _deep_rebuild(original)):
        assert rebuilt is not original
        assert type(rebuilt) is cls
        assert rebuilt == original
        assert hash(rebuilt) == hash(original)
        assert rebuilt.children == original.children
        assert rebuilt.columns() == original.columns()
    assert original.map_children(lambda child: child) is original


def test_equality_implies_equal_hashes():
    """Built twice (each subquery kind parses its SELECT afresh), every
    kind compares and hashes equal; unequal kinds do not compare
    equal. The subquery kinds once hashed their statement by ``id``."""
    first = [build(cls) for cls in KINDS]
    second = [build(cls) for cls in KINDS]
    for a, b in zip(first, second):
        assert a == b
        assert hash(a) == hash(b)
    for i, a in enumerate(first):
        for j, b in enumerate(second):
            if a == b:
                assert hash(a) == hash(b)
            assert (a == b) == (i == j), (a, b)


def test_identity_is_the_declared_fields():
    assert Comparison("<", Literal(1), Literal(2)) != Comparison(
        ">", Literal(1), Literal(2)
    )
    assert IsNull(Literal(1)) != IsNull(Literal(1), negate=True)
    # FuncCall ignores its callable; Literal compares values with ==
    assert FuncCall("f", abs, [Literal(1)]) == FuncCall(
        "f", _half, [Literal(1)]
    )
    assert Literal(1) == Literal(1.0)
    assert hash(Literal(1)) == hash(Literal(1.0))
    assert ColumnRef("t", "a") != Literal("t.a")


def test_map_children_keeps_unchanged_subtrees():
    shared = Comparison("=", ColumnRef("t", "a"), Literal(1))
    tree = And([shared, IsNull(ColumnRef("u", "b"))])
    renamed = tree.substitute({("u", "b"): ColumnRef("v", "b")})
    assert renamed.items[0] is shared
    assert renamed.items[1] == IsNull(ColumnRef("v", "b"))
    assert tree.substitute({("w", "x"): Literal(0)}) is tree


@pytest.mark.parametrize("cls", COMPOSITES, ids=lambda cls: cls.__name__)
def test_every_walk_reaches_a_nested_marker(cls):
    column = ColumnRef("m", "x")
    expression = build(cls, column)
    assert ("m", "x") in expression.columns()
    moved = expression.substitute({("m", "x"): ColumnRef("n", "y")})
    assert ("n", "y") in moved.columns()
    assert ("m", "x") not in moved.columns()
    assert moved.aliases() >= {"n"}

    expression = build(cls, Parameter(7))
    assert collect_parameters(expression) == {7}
    assert collect_parameters(
        replace_parameters(expression, {7: Literal(0)})
    ) == frozenset()

    literal = Literal(42)
    values = []
    lifted = _lift(build(cls, literal), values)
    assert values and all(value == literal for value in values)
    assert collect_parameters(lifted) == set(range(1, len(values) + 1))

    assert _contains_subquery(build(cls, SubqueryExpr(_stmt())))
    assert _contains_subquery(build(cls, column)) == issubclass(
        cls, SubqueryPredicate
    )

    aggregate = AggregateExpr("max", column)
    replaced = _replace_aggregates(
        build(cls, aggregate), lambda found, hint: "agg_out"
    )
    assert (None, "agg_out") in replaced.columns()
    assert ("m", "x") not in replaced.columns()
    assert not any(isinstance(node, AggregateExpr) for node in _walk(replaced))


def _walk(expression):
    yield expression
    for child in expression.children:
        yield from _walk(child)


@pytest.mark.parametrize(
    "cls",
    [cls for cls in KINDS if issubclass(cls, UnboundExpression)],
    ids=lambda cls: cls.__name__,
)
def test_unbound_kinds_raise_a_typed_error(cls):
    expression = build(cls)
    with pytest.raises(BindError, match=cls.__name__):
        expression.bind(None)
    with pytest.raises(BindError, match="eliminated by the binder"):
        expression.dtype(None)
