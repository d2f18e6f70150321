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
  the group table into output columns. Every aggregate kind's lines
  come from one table, :data:`KERNEL_KINDS`, whose weighted and merge
  rows also compile a folded join's kernels: the build side's partial
  states per join key, and the group-by's merge of each probe row's hit.

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
import math
import threading
from dataclasses import dataclass
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

@dataclass(frozen=True)
class KernelKind:
    """One aggregate kind's generated source: its state slots' initial
    values and, per way a row can reach the state, the lines that fold
    it in. Lines are templates over ``{v}`` (the row's argument value),
    ``{s0}``, ``{s1}``, ... (the group's state slots), ``{w}`` (the
    joined rows a folded join's probe row stands for), ``{h0}``, ...
    (the same slots of a partial state being merged in), ``{t}``,
    ``{m}``, ``{d}`` (temporaries), ``{make}`` (the accumulator
    factory) and ``{out}`` (the output column's append).

    - ``update``: one row (a plain group-by, and a folded join's build
      side, :func:`update_kernel`);
    - ``weighted``: one probe row standing for ``{w}`` joined rows that
      all carry its value;
    - ``merge``: a partial state built by ``update`` over the build
      rows its probe row matched — the COUNT-carry algebra of
      :mod:`repro.transforms.eager`, executed rather than rewritten;
    - ``finalize``: the state's output value.

    A kind without ``weighted`` and ``merge`` rows does not fold.
    Those two rows add a float SUM / AVG / STDDEV in another order than
    row by row (per join key, as eager aggregation does); over integers
    and other exactly summed values the result is the same.
    """

    inits: Tuple[str, ...]
    update: Tuple[str, ...]
    finalize: Tuple[str, ...]
    weighted: Optional[Tuple[str, ...]] = None
    merge: Optional[Tuple[str, ...]] = None

    @property
    def foldable(self) -> bool:
        return self.weighted is not None and self.merge is not None


def _extreme(op: str) -> KernelKind:
    update = (
        "if {v} is not None:",
        "    {t} = {s0}",
        f"    if {{t}} is None or {{v}} {op} {{t}}:",
        "        {s0} = {v}",
    )
    return KernelKind(
        inits=("None",),
        update=update,
        weighted=update,  # a repeated value is no new extreme
        merge=("{v} = {h0}", *update),
        finalize=("{out}({s0})",),
    )


# Each kind replicates the matching accumulator's state layout and
# float operation order exactly (SUM starts at integer 0 with a seen
# flag, AVG at float 0.0, ...).
KERNEL_KINDS: Dict[str, KernelKind] = {
    "count*": KernelKind(
        inits=("0",),
        update=("{s0} += 1",),
        weighted=("{s0} += {w}",),
        merge=("{s0} += {h0}",),
        finalize=("{out}({s0})",),
    ),
    "count": KernelKind(
        inits=("0",),
        update=("if {v} is not None:", "    {s0} += 1"),
        weighted=("if {v} is not None:", "    {s0} += {w}"),
        merge=("{s0} += {h0}",),
        finalize=("{out}({s0})",),
    ),
    "sum": KernelKind(
        inits=("0", "False"),
        update=("if {v} is not None:", "    {s0} += {v}", "    {s1} = True"),
        weighted=(
            "if {v} is not None:",
            "    {s0} += {v} * {w}",
            "    {s1} = True",
        ),
        merge=("if {h1}:", "    {s0} += {h0}", "    {s1} = True"),
        finalize=("{out}({s0} if {s1} else None)",),
    ),
    "min": _extreme("<"),
    "max": _extreme(">"),
    "avg": KernelKind(
        inits=("0.0", "0"),
        update=("if {v} is not None:", "    {s0} += {v}", "    {s1} += 1"),
        weighted=(
            "if {v} is not None:",
            "    {s0} += {v} * {w}",
            "    {s1} += {w}",
        ),
        merge=("{s0} += {h0}", "{s1} += {h1}"),
        finalize=("{t} = {s1}", "{out}(({s0} / {t}) if {t} else None)"),
    ),
    "stddev": KernelKind(
        inits=("0", "0.0", "0.0"),
        update=(
            "if {v} is not None:",
            "    {s0} += 1",
            "    {s1} += {v}",
            "    {s2} += {v} * {v}",
        ),
        weighted=(
            "if {v} is not None:",
            "    {s0} += {w}",
            "    {s1} += {v} * {w}",
            "    {s2} += {v} * {v} * {w}",
        ),
        merge=("{s0} += {h0}", "{s1} += {h1}", "{s2} += {h2}"),
        finalize=(
            "{t} = {s0}",
            "if {t}:",
            "    {m} = {s1} / {t}",
            "    {d} = {s2} / {t} - {m} * {m}",
            "    {out}(_sqrt({d} if {d} > 0.0 else 0.0))",
            "else:",
            "    {out}(None)",
        ),
    ),
    # the generic accumulator object, inside the fused loop
    "other": KernelKind(
        inits=("{make}()",),
        update=("{s0}.add({v})",),
        finalize=("{out}({s0}.value())",),
    ),
}


def aggregate_kind(call) -> str:
    """Specialization key of one aggregate call (a :data:`KERNEL_KINDS`
    entry); ``"other"`` keeps the generic accumulator object inside
    the fused loop (exact-type checks so a re-registered or subclassed
    function never mis-specializes)."""
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


def _aggregate_specs(aggregates, namespace: Dict[str, Any]):
    """Per aggregate: ``(j, kind name, KernelKind, first state slot,
    has an argument)``; ``other``'s accumulator factories go into
    *namespace*."""
    specs = []
    offset = 0
    for j, (_, call) in enumerate(aggregates):
        name = aggregate_kind(call)
        if name == "other":
            namespace[f"_mk{j}"] = call.function().make_accumulator
        kind = KERNEL_KINDS[name]
        specs.append((j, name, kind, offset, call.arg is not None))
        offset += len(kind.inits)
    return specs


def _render(
    template, j: int, offset: int, has_arg: bool, partial: int = 0, out=""
):
    """Aggregate *j*'s lines of *template*: its state slots from
    *offset*, a merged partial's from *partial*, its output column's
    append *out*."""
    names = {
        "out": out,
        "v": f"_av{j}" if has_arg else "True",
        "w": "_w",
        "t": f"_t{j}",
        "m": f"_m{j}",
        "d": f"_d{j}",
        "make": f"_mk{j}",
    }
    for i in range(3):
        names[f"s{i}"] = f"_st[{offset + i}]"
        names[f"h{i}"] = f"_h[{partial + i}]"
    return [line.format(**names) for line in template]


def update_kernel(
    key_count: int,
    aggregates,
    context=None,
    merges: Optional[Sequence[Optional[int]]] = None,
    skip_null_keys: bool = False,
) -> Callable:
    """Compile a hash group-by's fused update kernel.

    ``update(key_columns, arg_columns, table)`` accumulates one batch
    into ``table`` (insertion-ordered dict: scalar or tuple key → state
    list, specialized slots per aggregate kind with ``Accumulator``
    objects as the in-loop fallback); ``arg_columns[j]`` is aggregate
    *j*'s argument column. *skip_null_keys* drops every row with a NULL
    key — a join's build side, where NULL never matches.

    With *merges* it aggregates a folded join's probe side:
    ``update(key_columns, arg_columns, table, hits)``, where ``hits[i]``
    is probe row *i*'s partial state (``None`` on a miss: the row joins
    nothing and is dropped), whose slot 0 counts the joined rows it
    stands for. Per aggregate, ``merges[j]`` is the offset of its
    partial slots in the hit (a build-side argument: the ``merge``
    row), or ``None`` (``COUNT(*)`` or a probe-side argument: the
    ``weighted`` row).
    """
    if key_count < 1:
        raise ValueError("group-by kernels require at least one key")
    namespace: Dict[str, Any] = {}
    specs = _aggregate_specs(aggregates, namespace)
    key_vars = [f"_kv{i}" for i in range(key_count)]
    loop_vars = list(key_vars)
    zip_cols = [f"_kc{i}" for i in range(key_count)]
    bindings = [f"    _kc{i} = _keys[{i}]" for i in range(key_count)]
    for j, name, _, _, has_arg in specs:
        merged = merges is not None and merges[j] is not None
        if name != "count*" and has_arg and not merged:
            bindings.append(f"    _ac{j} = _args[{j}]")
            loop_vars.append(f"_av{j}")
            zip_cols.append(f"_ac{j}")
    parameters = "_keys, _args, _table"
    if merges is not None:
        parameters += ", _hits"
        loop_vars.append("_h")
        zip_cols.append("_hits")
    inits = ", ".join(
        init.format(make=f"_mk{j}")
        for j, _, kind, _, _ in specs
        for init in kind.inits
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
    lines = [f"def _kernel({parameters}{_defaults(namespace)}):"]
    lines.append("    _get = _table.get")
    lines.extend(bindings)
    lines.append(head)
    if skip_null_keys:
        nulls = " or ".join(f"{var} is None" for var in key_vars)
        lines.append(f"        if {nulls}:")
        lines.append("            continue")
    if merges is not None:
        lines.append("        if _h is None:")
        lines.append("            continue")
        lines.append("        _w = _h[0]")
    if key_count == 1:
        lines.append(f"        _st = _get({key_expr})")
        lines.append("        if _st is None:")
        lines.append(f"            _st = _table[{key_expr}] = [{inits}]")
    else:
        lines.append(f"        _kt = {key_expr}")
        lines.append("        _st = _get(_kt)")
        lines.append("        if _st is None:")
        lines.append(f"            _st = _table[_kt] = [{inits}]")
    for j, name, kind, offset, has_arg in specs:
        partial = 0
        if merges is None:
            template = kind.update
        elif merges[j] is None:
            template = kind.weighted
        else:
            template, partial = kind.merge, merges[j]
        if template is None:
            raise PlanError(f"{name} aggregates do not fold")
        for line in _render(template, j, offset, has_arg, partial):
            lines.append("        " + line)
    return _instantiate("\n".join(lines) + "\n", namespace, context)


def finalize_kernel(key_count: int, aggregates, context=None) -> Callable:
    """Compile a hash group-by's finalize kernel: ``finalize(items)``
    turns ``table.items()`` into the internal-schema output columns
    (key columns first, then one column per aggregate)."""
    specs = _aggregate_specs(aggregates, {})
    out_count = key_count + len(specs)
    namespace: Dict[str, Any] = {"_sqrt": math.sqrt}
    lines = [f"def _kernel(_items{_defaults(namespace)}):"]
    for k in range(out_count):
        lines.append(f"    _o{k} = []")
        lines.append(f"    _p{k} = _o{k}.append")
    lines.append("    for _key, _st in _items:")
    if key_count == 1:
        lines.append("        _p0(_key)")
    else:
        for i in range(key_count):
            lines.append(f"        _p{i}(_key[{i}])")
    for j, _, kind, offset, has_arg in specs:
        out = f"_p{key_count + j}"
        for line in _render(kind.finalize, j, offset, has_arg, out=out):
            lines.append("        " + line)
    outs = ", ".join(f"_o{k}" for k in range(out_count))
    lines.append(f"    return ({outs},)")
    return _instantiate("\n".join(lines) + "\n", namespace, context)


def groupby_kernels(
    key_count: int,
    aggregates,
    context=None,
    merges: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[Callable, Callable]:
    """The fused (update, finalize) kernel pair of a hash group-by
    (:func:`update_kernel`, :func:`finalize_kernel`)."""
    return (
        update_kernel(key_count, aggregates, context, merges),
        finalize_kernel(key_count, aggregates, context),
    )


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
