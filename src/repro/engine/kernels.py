"""Compiled columnar kernels: expressions → fused per-batch loops.

``Expression.bind`` turns each
:class:`~repro.algebra.expressions.Expression` into a ``row -> value``
closure that pays one Python call per row per expression (the reference
evaluator, and the engine's one per-row corner — the index-NLJ inner
filter — through :func:`row_closures`). This module
compiles whole operators instead: an
operator's predicate chain, projection list, or aggregate update loop is
translated to Python *source* for a single function over columns, then
``compile``/``exec``-ed once per operator. Per-row work becomes one
list-comprehension iteration — no closure calls, no tree walks.

Three program kinds:

- :class:`SelectionProgram` — a predicate conjunction compiled to a
  ``columns -> selection vector`` kernel (``None`` means "all rows
  pass", so the common no-match-needed case skips every gather).
- :class:`ComputeProgram` — a projection list compiled to a
  ``columns -> output columns`` kernel; plain column references become
  zero-copy column picks and never enter the generated loop.
- :func:`groupby_kernels` — a group-by's whole accumulate loop (key
  lookup + every aggregate's update) fused into one generated ``for``
  over zipped key/argument columns, plus a finalize kernel that turns
  the group table into output columns.

Semantics are the closures', reproduced exactly:

- Kleene 3VL compiles to truthiness tests via an emit-true/emit-false
  duality: ``is TRUE`` of ``AND`` is the ``and`` of is-trues, ``is
  FALSE`` of ``AND`` is the ``or`` of is-falses, and ``NOT`` swaps the
  two. Filters keep a row only when the predicate is TRUE, so UNKNOWN
  needs no runtime representation. AND / OR used as a *value* (an
  output column, an operand) is FALSE / TRUE / NULL picked by the same
  two tests, so every bound expression compiles: there is no
  closure fallback.
- Comparison/arithmetic operands are evaluated eagerly (walrus
  assignments joined with ``|``) before the NULL check, matching the
  closures, which call both operand evaluators before the guard. The
  one knowing divergence: a generated ``and``/``or`` chain
  short-circuits past an UNKNOWN conjunct where the closure loop would
  keep evaluating — observable only through exceptions raised by later
  conjuncts, never through values.
- Aggregate updates replicate each accumulator's state layout and
  float operation order (e.g. SUM's integer-zero start + seen flag),
  so results are bit-identical, not merely ``==``.

Generated source never embeds literal values — constants and scalar
functions enter as keyword-argument defaults (``_k0=_k0``) bound at
``def`` time. Source text therefore depends only on expression *shape*,
and a module-level source→code-object cache makes repeated shapes
(every scan filter ``col = const``, every SUM+COUNT group-by) compile
exactly once per process. Each instantiation still counts toward
``context.kernels_compiled`` — that counter tracks kernels built, which
is what ``repro --stats`` reports.

A program is built once per plan (``executor.compile_plan``) and run by
every execution of it, concurrently: a kernel is a pure function of its
column arguments, so a program that reads no ``$n`` is shared as it is.
A ``$n`` enters the source as a name ``_p{n}`` — NULL-guarded like a
column, since its value is not known when the source is written, not
folded like a literal — and the program is *re-armed* per execution
(:meth:`SelectionProgram.arm`): a copy whose kernel is instantiated from
the cached code object with that execution's values in its namespace.
"""

from __future__ import annotations

import copy
import threading

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.aggregates import (
    AvgFunction,
    CountFunction,
    MaxFunction,
    MinFunction,
    StddevFunction,
    SumFunction,
)
from ..algebra.expressions import (
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
from ..catalog.schema import RowSchema
from ..errors import PlanError
from .batch import take

_SOURCE_CACHE: Dict[str, Any] = {}
# Serving runs kernel compilation from concurrent reader threads; the
# lock makes check-compile-publish atomic so two threads never race a
# dict resize mid-read. Compiled code objects are immutable, so cache
# hits stay contention-free correctness-wise — the lock also covers
# them only because compile() is rare and the critical section is tiny.
_SOURCE_CACHE_LOCK = threading.Lock()

_COMPARE_SOURCE = {
    "=": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _instantiate(source: str, namespace: Dict[str, Any], context) -> Callable:
    """Compile (cached by source) and exec a kernel definition."""
    with _SOURCE_CACHE_LOCK:
        code = _SOURCE_CACHE.get(source)
        if code is None:
            code = compile(source, "<repro-kernel>", "exec")
            _SOURCE_CACHE[source] = code
    scope = dict(namespace)
    exec(code, scope)
    if context is not None:
        context.kernels_compiled += 1
    return scope["_kernel"]


def _defaults(*namespaces: Dict[str, Any]) -> str:
    """Render namespace entries as keyword defaults for a def line."""
    return "".join(
        f", {name}={name}" for namespace in namespaces for name in namespace
    )


def _kernel_arm(
    source: str, namespace: Dict[str, Any], parameters: Dict[str, Parameter]
) -> Callable:
    """``arm(context) -> kernel`` of a generated definition: instantiates
    it, with *context*'s values for the ``$n`` names it reads (none
    read: *context* is only the instantiation counter, or ``None``)."""

    def arm(context) -> Callable:
        scope = namespace
        if parameters:
            scope = dict(namespace)
            for name, parameter in parameters.items():
                scope[name] = parameter.value(context.parameters)
        return _instantiate(source, scope, context)

    return arm


def _needs_arming(*_):
    """What stands where a ``$n``-reading program's kernel will be."""
    raise PlanError(
        "this program reads $n parameters: arm() it for an execution"
    )


def row_closures(expressions: Sequence[Expression], schema: RowSchema):
    """``arm(context) -> [row -> value closure]`` for the engine's
    row-at-a-time corner (one closure per expression): bound once when
    no expression reads a ``$n``, else per execution with its values
    substituted as literals."""
    expressions = list(expressions)
    wanted = sorted(
        frozenset().union(*(collect_parameters(e) for e in expressions))
    )

    def bind(substitute) -> List[Callable]:
        return [substitute(e).bind(schema) for e in expressions]

    if not wanted:
        closures = bind(lambda e: e)
        return lambda context: closures

    def arm(context) -> List[Callable]:
        values = {
            n: Literal(Parameter(n).value(context.parameters)) for n in wanted
        }
        return bind(lambda e: replace_parameters(e, values))

    return arm


class _Emitter:
    """Translates expressions to per-row source fragments.

    Column references become loop variables ``_v{position}``; constants
    and scalar functions get namespace names so source text is
    shape-only (see module docstring). ``used`` accumulates every
    column position any emitted fragment reads.
    """

    def __init__(self, schema: RowSchema):
        self.schema = schema
        self.namespace: Dict[str, Any] = {}
        self.parameters: Dict[str, Parameter] = {}
        self.used: set = set()
        self.current_used: set = set()
        self._counter = 0

    def begin(self) -> None:
        """Start tracking a new output's column usage."""
        self.current_used = set()

    def fresh(self, prefix: str) -> str:
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        return name

    def const(self, value: Any) -> str:
        name = self.fresh("k")
        self.namespace[name] = value
        return name

    def column(self, expression: ColumnRef) -> str:
        position = self.schema.index_of(expression.alias, expression.name)
        self.used.add(position)
        self.current_used.add(position)
        return f"_v{position}"

    # -- value emission: source for the (possibly NULL) SQL value -------

    def value(self, e: Expression) -> str:
        if isinstance(e, ColumnRef):
            return self.column(e)
        if isinstance(e, Literal):
            return self.const(e.value)
        if isinstance(e, Parameter):
            name = f"_p{e.index}"
            self.parameters[name] = e
            return name
        if isinstance(e, Comparison):
            return self._binary_value(e.left, e.right, _COMPARE_SOURCE[e.op])
        if isinstance(e, Arith):
            return self._binary_value(e.left, e.right, e.op)
        if isinstance(e, IsNull):
            test = "is not None" if e.negate else "is None"
            return f"(({self.value(e.item)}) {test})"
        if isinstance(e, Not):
            inner = self.value(e.item)
            temp = self.fresh("t")
            return f"(None if ({temp} := {inner}) is None else (not {temp}))"
        if isinstance(e, FuncCall):
            return self._func_value(e)
        if isinstance(e, IfNull):
            temp = self.fresh("t")
            return (
                f"(({temp}) if (({temp} := {self.value(e.item)}) "
                f"is not None) else ({self.value(e.default)}))"
            )
        if isinstance(e, And):  # Kleene: FALSE dominates, then UNKNOWN
            return (
                f"(False if {self.untruth(e)} else "
                f"(True if {self.truth(e)} else None))"
            )
        if isinstance(e, Or):  # Kleene: TRUE dominates, then UNKNOWN
            return (
                f"(True if {self.truth(e)} else "
                f"(False if {self.untruth(e)} else None))"
            )
        raise PlanError(f"no kernel source for {type(e).__name__}")

    def _binary_value(self, left: Expression, right: Expression, op: str) -> str:
        if isinstance(left, Literal) and left.value is None:
            self.value(right)  # keep column usage identical
            return "None"
        if isinstance(right, Literal) and right.value is None:
            self.value(left)
            return "None"
        if _simple(left) and _simple(right):
            a, b = self.value(left), self.value(right)
            guards = [f"{s} is None" for s in (a, b) if not s.startswith("_k")]
            body = f"({a} {op} {b})"
            if not guards:
                return body
            return f"(None if {' or '.join(guards)} else {body})"
        # complex operands: evaluate both eagerly (the closures do),
        # then NULL-check — `|` avoids short-circuiting the second eval
        a, b = self.value(left), self.value(right)
        ta, tb = self.fresh("t"), self.fresh("t")
        return (
            f"(None if ((({ta} := {a}) is None) | (({tb} := {b}) is None))"
            f" else ({ta} {op} {tb}))"
        )

    def _func_value(self, e: FuncCall) -> str:
        func = self.const(e.func)
        if not e.args:
            return f"{func}()"
        if all(_simple(arg) for arg in e.args):
            vals = [self.value(arg) for arg in e.args]
            guards = [f"{v} is None" for v in vals if not v.startswith("_k")]
            call = f"{func}({', '.join(vals)})"
            if not guards:
                return call
            return f"(None if {' or '.join(guards)} else {call})"
        temps = []
        checks = []
        for arg in e.args:
            temp = self.fresh("t")
            temps.append(temp)
            checks.append(f"(({temp} := {self.value(arg)}) is None)")
        call = f"{func}({', '.join(temps)})"
        return f"(None if ({' | '.join(checks)}) else {call})"

    # -- truth emission: source for "predicate is TRUE" ------------------

    def truth(self, e: Expression) -> str:
        if isinstance(e, Comparison):
            return self._compare_bool(e, negate=False)
        if isinstance(e, And):
            return "(" + " and ".join(self.truth(i) for i in e.items) + ")"
        if isinstance(e, Or):
            return "(" + " or ".join(self.truth(i) for i in e.items) + ")"
        if isinstance(e, Not):
            return self.untruth(e.item)
        if isinstance(e, Literal):
            return "True" if e.value else "False"
        # IsNull/ColumnRef/Arith/...: the value itself is the condition
        # (None and 0 are falsy — exactly SQL's not-TRUE)
        return self.value(e)

    def untruth(self, e: Expression) -> str:
        """Source for "predicate is FALSE" (Kleene dual of truth)."""
        if isinstance(e, Comparison):
            return self._compare_bool(e, negate=True)
        if isinstance(e, And):
            return "(" + " or ".join(self.untruth(i) for i in e.items) + ")"
        if isinstance(e, Or):
            return "(" + " and ".join(self.untruth(i) for i in e.items) + ")"
        if isinstance(e, Not):
            return self.truth(e.item)
        if isinstance(e, IsNull):
            return self.value(IsNull(e.item, not e.negate))
        if isinstance(e, Literal):
            if e.value is None:
                return "False"
            return "False" if e.value else "True"
        if isinstance(e, ColumnRef):
            name = self.column(e)
            return f"({name} is not None and not {name})"
        temp = self.fresh("t")
        return f"(({temp} := {self.value(e)}) is not None and not {temp})"

    def _compare_bool(self, e: Comparison, negate: bool) -> str:
        op = _COMPARE_SOURCE[e.op]
        prefix = "not " if negate else ""
        if (isinstance(e.left, Literal) and e.left.value is None) or (
            isinstance(e.right, Literal) and e.right.value is None
        ):
            self.value(e.left)
            self.value(e.right)
            return "False"  # NULL comparisons are UNKNOWN: never TRUE/FALSE
        if _simple(e.left) and _simple(e.right):
            a, b = self.value(e.left), self.value(e.right)
            guards = [
                f"{s} is not None" for s in (a, b) if not s.startswith("_k")
            ]
            return "(" + " and ".join(guards + [f"{prefix}({a} {op} {b})"]) + ")"
        a, b = self.value(e.left), self.value(e.right)
        ta, tb = self.fresh("t"), self.fresh("t")
        return (
            f"(((({ta} := {a}) is not None) & (({tb} := {b}) is not None))"
            f" and {prefix}({ta} {op} {tb}))"
        )


def _simple(e: Expression) -> bool:
    """Side-effect-free, non-raising leaf — safe to short-circuit."""
    return isinstance(e, (ColumnRef, Literal, Parameter))


def _column_bindings(positions: Sequence[int]) -> str:
    return "".join(f"    _c{p} = _cols[{p}]\n" for p in positions)


def _loop_head(positions: Sequence[int]) -> Tuple[str, str]:
    """(loop variables, iterable) of a listcomp over the positions."""
    if len(positions) == 1:
        p = positions[0]
        return f"_v{p}", f"_c{p}"
    names = ", ".join(f"_v{p}" for p in positions)
    cols = ", ".join(f"_c{p}" for p in positions)
    return f"({names})", f"zip({cols})"


class _Program:
    """A compiled program's kernel: instantiated once at build time, or
    — when it reads ``$n`` — per execution by :meth:`arm`."""

    __slots__ = ("_kernel", "_rearm")

    def _install(self, source: str, emitter: "_Emitter", context) -> None:
        arm_kernel = _kernel_arm(source, emitter.namespace, emitter.parameters)
        if emitter.parameters:
            self._kernel, self._rearm = _needs_arming, arm_kernel
        else:
            self._kernel, self._rearm = arm_kernel(context), None

    def arm(self, context):
        """This program ready for one execution: itself when it reads
        no ``$n``, else a copy over a kernel holding *context*'s
        values."""
        if self._rearm is None:
            return self
        armed = copy.copy(self)
        armed._kernel, armed._rearm = self._rearm(context), None
        return armed


class SelectionProgram(_Program):
    """A predicate conjunction compiled to ``columns -> selection``.

    ``run`` returns a list of passing row indices, or ``None`` when
    every row passes — the hot all-pass case costs one length check and
    no gathers downstream. ``used`` is the set of column positions the
    program reads (what a caller must materialize when rows are
    virtual, i.e. behind a pending selection vector).
    """

    __slots__ = ("active", "used")

    def __init__(
        self,
        predicates: Sequence[Expression],
        schema: RowSchema,
        context=None,
    ):
        self.active = bool(predicates)
        self.used: Tuple[int, ...] = ()
        self._kernel: Optional[Callable] = None
        self._rearm: Optional[Callable] = None
        if not predicates:
            return
        emitter = _Emitter(schema)
        condition = " and ".join(emitter.truth(p) for p in predicates)
        positions = sorted(emitter.used)
        self.used = tuple(positions)
        head = (
            "def _kernel(_cols, _n"
            f"{_defaults(emitter.namespace, emitter.parameters)}):\n"
        )
        if not positions:
            # constant predicate: decide once per batch, not per row
            source = (
                f"{head}"
                f"    if not _n:\n"
                f"        return []\n"
                f"    return None if ({condition}) else []\n"
            )
        else:
            variables, iterable = _loop_head(positions)
            source = (
                f"{head}"
                f"{_column_bindings(positions)}"
                f"    return [_i for _i, {variables} in "
                f"enumerate({iterable}) if {condition}]\n"
            )
        self._install(source, emitter, context)

    def run(self, columns, n: int) -> Optional[List[int]]:
        if self._kernel is None:
            return None
        sel = self._kernel(columns, n)
        if sel is None or len(sel) == n:
            return None
        return sel


class ComputeProgram(_Program):
    """A projection list compiled to ``columns -> output columns``.

    Plain column references are zero-copy picks; every other output is
    computed by one generated listcomp over exactly the columns it
    reads.
    """

    __slots__ = ("width", "used", "_picks", "_kernel_outputs")

    def __init__(
        self,
        expressions: Sequence[Expression],
        schema: RowSchema,
        context=None,
    ):
        self.width = len(expressions)
        emitter = _Emitter(schema)
        self._picks: List[Tuple[int, int]] = []
        computed: List[Tuple[int, str, List[int]]] = []
        for index, expression in enumerate(expressions):
            if isinstance(expression, ColumnRef):
                position = schema.index_of(expression.alias, expression.name)
                self._picks.append((index, position))
                emitter.used.add(position)
                continue
            emitter.begin()
            fragment = emitter.value(expression)
            computed.append(
                (index, fragment, sorted(emitter.current_used))
            )
        self.used = tuple(sorted(emitter.used))
        self._kernel_outputs = [index for index, _, _ in computed]
        self._kernel: Optional[Callable] = None
        self._rearm: Optional[Callable] = None
        if not computed:
            return
        lines = [
            "def _kernel(_cols, _n"
            f"{_defaults(emitter.namespace, emitter.parameters)}):"
        ]
        bound = sorted({p for _, _, ps in computed for p in ps})
        if bound:
            lines.append(_column_bindings(bound).rstrip("\n"))
        returns = []
        for index, fragment, positions in computed:
            name = f"_o{index}"
            returns.append(name)
            if positions:
                variables, iterable = _loop_head(positions)
                lines.append(
                    f"    {name} = [{fragment} for {variables} in {iterable}]"
                )
            else:
                # constant column; guard n=0 so it cannot evaluate
                # when there are no rows at all
                lines.append(
                    f"    {name} = ([{fragment}] * _n) if _n else []"
                )
        lines.append(f"    return ({', '.join(returns)},)")
        self._install("\n".join(lines) + "\n", emitter, context)

    def run(self, columns, n: int) -> List[Any]:
        out: List[Any] = [None] * self.width
        for index, position in self._picks:
            out[index] = columns[position]
        if self._kernel is not None:
            for index, column in zip(
                self._kernel_outputs, self._kernel(columns, n)
            ):
                out[index] = column
        return out


# ----------------------------------------------------------------------
# Group-by kernels
# ----------------------------------------------------------------------

_AGG_SLOTS = {
    "count*": 1,
    "count": 1,
    "sum": 2,
    "min": 1,
    "max": 1,
    "avg": 2,
    "stddev": 3,
    "other": 1,
}


def aggregate_kind(call) -> str:
    """Specialization key of one aggregate call; ``"other"`` keeps the
    generic accumulator object inside the fused loop (exact-type checks
    so a re-registered or subclassed function never mis-specializes)."""
    function = call.function()
    t = type(function)
    if t is CountFunction:
        return "count*" if call.arg is None else "count"
    if t is SumFunction:
        return "sum"
    if t is MinFunction:
        return "min"
    if t is MaxFunction:
        return "max"
    if t is AvgFunction:
        return "avg"
    if t is StddevFunction:
        return "stddev"
    return "other"


def _slot_inits(kind: str, maker: str) -> List[str]:
    # each replicates the matching accumulator's initial state exactly
    # (SUM starts at integer 0 with a seen flag, AVG at float 0.0, ...)
    if kind in ("count*", "count"):
        return ["0"]
    if kind == "sum":
        return ["0", "False"]
    if kind in ("min", "max"):
        return ["None"]
    if kind == "avg":
        return ["0.0", "0"]
    if kind == "stddev":
        return ["0", "0.0", "0.0"]
    return [f"{maker}()"]


def _update_lines(kind: str, j: int, offset: int, has_arg: bool) -> List[str]:
    value = f"_av{j}"
    if kind == "count*":
        return [f"_st[{offset}] += 1"]
    if kind == "count":
        return [f"if {value} is not None:", f"    _st[{offset}] += 1"]
    if kind == "sum":
        return [
            f"if {value} is not None:",
            f"    _st[{offset}] += {value}",
            f"    _st[{offset + 1}] = True",
        ]
    if kind in ("min", "max"):
        op = "<" if kind == "min" else ">"
        return [
            f"if {value} is not None:",
            f"    _b{j} = _st[{offset}]",
            f"    if _b{j} is None or {value} {op} _b{j}:",
            f"        _st[{offset}] = {value}",
        ]
    if kind == "avg":
        return [
            f"if {value} is not None:",
            f"    _st[{offset}] += {value}",
            f"    _st[{offset + 1}] += 1",
        ]
    if kind == "stddev":
        return [
            f"if {value} is not None:",
            f"    _st[{offset}] += 1",
            f"    _st[{offset + 1}] += {value}",
            f"    _st[{offset + 2}] += {value} * {value}",
        ]
    fed = value if has_arg else "True"
    return [f"_st[{offset}].add({fed})"]


def _finalize_lines(kind: str, j: int, offset: int, append: str) -> List[str]:
    if kind in ("count*", "count"):
        return [f"{append}(_st[{offset}])"]
    if kind == "sum":
        return [f"{append}(_st[{offset}] if _st[{offset + 1}] else None)"]
    if kind in ("min", "max"):
        return [f"{append}(_st[{offset}])"]
    if kind == "avg":
        return [
            f"_n{j} = _st[{offset + 1}]",
            f"{append}((_st[{offset}] / _n{j}) if _n{j} else None)",
        ]
    if kind == "stddev":
        return [
            f"_n{j} = _st[{offset}]",
            f"if _n{j}:",
            f"    _m{j} = _st[{offset + 1}] / _n{j}",
            f"    _d{j} = _st[{offset + 2}] / _n{j} - _m{j} * _m{j}",
            f"    {append}(_sqrt(_d{j} if _d{j} > 0.0 else 0.0))",
            "else:",
            f"    {append}(None)",
        ]
    return [f"{append}(_st[{offset}].value())"]


def groupby_kernels(
    key_count: int,
    aggregates,
    context=None,
) -> Tuple[Callable, Callable]:
    """Compile the fused (update, finalize) kernel pair of a hash
    group-by.

    ``update(key_columns, arg_columns, table)`` accumulates one batch
    into ``table`` (insertion-ordered dict: scalar or tuple key → state
    list, specialized slots per aggregate kind with ``Accumulator``
    objects as the in-loop fallback).

    ``finalize(items)`` turns ``table.items()`` into the internal-schema
    output columns (key columns first, then one column per aggregate).
    """
    import math

    if key_count < 1:
        raise ValueError("group-by kernels require at least one key")
    specs = []
    offset = 0
    namespace: Dict[str, Any] = {}
    for j, (_, call) in enumerate(aggregates):
        kind = aggregate_kind(call)
        maker = f"_mk{j}"
        if kind == "other":
            namespace[maker] = call.function().make_accumulator
        specs.append((j, kind, offset, call.arg is not None, maker))
        offset += _AGG_SLOTS[kind]

    # ---- update kernel ----
    key_vars = [f"_kv{i}" for i in range(key_count)]
    loop_vars = list(key_vars)
    zip_cols = [f"_kc{i}" for i in range(key_count)]
    bindings = [
        f"    _kc{i} = _keys[{i}]" for i in range(key_count)
    ]
    for j, kind, _, has_arg, _ in specs:
        if kind != "count*" and has_arg:
            bindings.append(f"    _ac{j} = _args[{j}]")
            loop_vars.append(f"_av{j}")
            zip_cols.append(f"_ac{j}")
    inits = ", ".join(
        init
        for _, kind, _, _, maker in specs
        for init in _slot_inits(kind, maker)
    )
    if len(loop_vars) == 1:
        head = f"    for {loop_vars[0]} in {zip_cols[0]}:"
    else:
        head = (
            f"    for {', '.join(loop_vars)} in "
            f"zip({', '.join(zip_cols)}):"
        )
    key_expr = (
        key_vars[0] if key_count == 1 else f"({', '.join(key_vars)})"
    )
    lines = [f"def _kernel(_keys, _args, _table{_defaults(namespace)}):"]
    lines.append("    _get = _table.get")
    lines.extend(bindings)
    lines.append(head)
    if key_count == 1:
        lines.append(f"        _st = _get({key_expr})")
        lines.append("        if _st is None:")
        lines.append(f"            _st = _table[{key_expr}] = [{inits}]")
    else:
        lines.append(f"        _kt = {key_expr}")
        lines.append("        _st = _get(_kt)")
        lines.append("        if _st is None:")
        lines.append(f"            _st = _table[_kt] = [{inits}]")
    for j, kind, slot, has_arg, _ in specs:
        for line in _update_lines(kind, j, slot, has_arg):
            lines.append("        " + line)
    update_source = "\n".join(lines) + "\n"
    update = _instantiate(update_source, namespace, context)

    # ---- finalize kernel ----
    out_count = key_count + len(specs)
    fin_namespace: Dict[str, Any] = {"_sqrt": math.sqrt}
    lines = [f"def _kernel(_items{_defaults(fin_namespace)}):"]
    for k in range(out_count):
        lines.append(f"    _o{k} = []")
        lines.append(f"    _p{k} = _o{k}.append")
    lines.append("    for _key, _st in _items:")
    if key_count == 1:
        lines.append("        _p0(_key)")
    else:
        for i in range(key_count):
            lines.append(f"        _p{i}(_key[{i}])")
    for j, kind, slot, _, _ in specs:
        append = f"_p{key_count + j}"
        for line in _finalize_lines(kind, j, slot, append):
            lines.append("        " + line)
    outs = ", ".join(f"_o{k}" for k in range(out_count))
    lines.append(f"    return ({outs},)")
    finalize_source = "\n".join(lines) + "\n"
    finalize = _instantiate(finalize_source, fin_namespace, context)
    return update, finalize


def gather_virtual(
    columns, used: Sequence[int], sel: Sequence[int], width: int
) -> List[Any]:
    """Materialize only the *used* positions of *columns* through a
    pending selection vector, leaving holes elsewhere — what fused
    pipelines hand a program when rows are still virtual."""
    virtual: List[Any] = [None] * width
    for position in used:
        virtual[position] = take(columns[position], sel)
    return virtual
