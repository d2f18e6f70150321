"""Operator trees — the paper's "execution plans" (Section 2).

A plan is a tree of Scan / Join / GroupBy / Sort / Rename nodes. As in
the paper, projection is not an explicit operator: each join and
group-by carries an associated list of projection columns. Joins name
the relations they join and their join predicates; group-by operators
carry grouping columns, aggregating columns (with function names), and
HAVING predicates.

Nodes are structural: they compute their output :class:`RowSchema` but
carry no statistics. The cost annotator (``repro.cost``) attaches a
``props`` attribute (cardinality, pages, IO cost, sort order) without
the plan layer depending on it.

Every kind speaks one protocol (:class:`PlanNode`): it names its
constructor arguments once in ``ARGS``, and ``children``,
:meth:`~PlanNode.replace`, :meth:`~PlanNode.expressions` and
:meth:`~PlanNode.map_expressions` follow from them. Cloning, parameter
binding, legality checking and projection pruning are therefore each
one walk over any tree, with no per-kind arm.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..catalog.schema import RID_COLUMN, Field, RowSchema
from ..datatypes import DataType
from ..errors import PlanError
from .aggregates import AggregateCall
from .expressions import Expression, FieldKey, Literal, Parameter

#: Constructor arguments that hold an input plan.
_INPUT_ARGS = ("left", "right", "child")


class PlanNode:
    """Base class of plan operators.

    A kind declares ``ARGS``, its constructor's argument names in order;
    each is kept under the attribute of the same name. Those among
    ``left`` / ``right`` / ``child`` are its inputs (``CHILD_ARGS``,
    derived), which is all ``children`` and :meth:`replace` need.
    """

    ARGS: Tuple[str, ...] = ()
    CHILD_ARGS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.CHILD_ARGS = tuple(name for name in cls.ARGS if name in _INPUT_ARGS)

    def __init__(self) -> None:
        # Filled in by the cost annotator. Nothing else is written to a
        # node after construction: what one execution observed lives in
        # its ExecutionMetrics, so a cached plan is shared between
        # concurrent runs as it is.
        self.props: Any = None

    @property
    def schema(self) -> RowSchema:
        raise NotImplementedError

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        return tuple([getattr(self, name) for name in self.CHILD_ARGS])

    def replace(self, **changes: Any) -> "PlanNode":
        """This node rebuilt through its constructor with the named
        arguments (inputs included) changed. The schema is derived
        afresh; ``props`` is not carried."""
        arguments = {name: getattr(self, name) for name in self.ARGS}
        arguments.update(changes)
        return type(self)(**arguments)

    def expressions(self) -> Iterator[Tuple[Expression, Optional[RowSchema]]]:
        """``(expression, scope)`` for every bound expression this node
        evaluates, *scope* being the schema its columns resolve in
        (``None`` for a scan's own, which resolve in the stored table's
        row)."""
        return iter(())

    def map_expressions(
        self, fn: Callable[[Expression], Expression], **changes: Any
    ) -> "PlanNode":
        """This node rebuilt with *fn* applied to every expression
        :meth:`expressions` yields, and *changes* as in :meth:`replace`."""
        return self.replace(**changes)

    def describe(self) -> str:
        """One-line description used by :func:`explain`."""
        raise NotImplementedError

    def aliases(self) -> frozenset:
        return frozenset(self.schema.aliases())


class ScanNode(PlanNode):
    """Scan of one stored table under an alias.

    - ``fields``: the output fields (projection applied at the scan).
    - ``filters``: selection conjuncts evaluated during the scan.
    - ``index_name``: when set, the scan uses an index equality access
      path probing for ``index_values`` — plain values, or in a
      prepared plan ``Parameter`` s resolved per execution
      (:meth:`probe_key`).
    - ``include_rid`` exposes the hidden tuple id (pull-up's surrogate
      key, Section 3).
    """

    ARGS = (
        "table_name",
        "alias",
        "fields",
        "filters",
        "include_rid",
        "index_name",
        "index_values",
    )

    def __init__(
        self,
        table_name: str,
        alias: str,
        fields: Sequence[Field],
        filters: Sequence[Expression] = (),
        include_rid: bool = False,
        index_name: Optional[str] = None,
        index_values: Tuple[Any, ...] = (),
    ):
        super().__init__()
        self.table_name = table_name
        self.alias = alias
        self.filters: Tuple[Expression, ...] = tuple(filters)
        self.include_rid = include_rid
        self.index_name = index_name
        self.index_values = index_values
        field_list = list(fields)
        if include_rid and not any(f.name == RID_COLUMN for f in field_list):
            field_list.append(Field(alias, RID_COLUMN, DataType.INT))
        self._schema = RowSchema(field_list)

    @property
    def schema(self) -> RowSchema:
        return self._schema

    @property
    def fields(self) -> Tuple[Field, ...]:
        return self._schema.fields

    def expressions(self):
        for predicate in self.filters:
            yield predicate, None
        for value in self.index_values:
            if isinstance(value, Parameter):
                yield value, None

    def map_expressions(self, fn, **changes):
        """An index probe key holds plain values: *fn* must map each
        ``$n`` there to a literal, whose value takes its place."""
        return self.replace(
            filters=[fn(predicate) for predicate in self.filters],
            index_values=tuple(
                _probe_value(value, fn(value))
                if isinstance(value, Parameter)
                else value
                for value in self.index_values
            ),
            **changes,
        )

    def probe_key(self, parameters: Sequence[Any] = ()) -> Tuple[Any, ...]:
        """``index_values`` for the engine to probe with, every ``$n``
        among them read from this execution's *parameters*."""
        values = self.index_values
        for value in values:
            if isinstance(value, Parameter):
                return tuple(
                    v.value(parameters) if isinstance(v, Parameter) else v
                    for v in values
                )
        return values

    def describe(self) -> str:
        access = f"index {self.index_name}" if self.index_name else "heap"
        unbound = [
            value.display()
            for value in self.index_values
            if isinstance(value, Parameter)
        ]
        if unbound:
            access += " = " + ", ".join(unbound)
        filters = (
            " filter " + " AND ".join(f.display() for f in self.filters)
            if self.filters
            else ""
        )
        return f"Scan {self.table_name} AS {self.alias} [{access}]{filters}"


def _probe_value(parameter: Parameter, bound: Expression) -> Any:
    if not isinstance(bound, Literal):
        raise PlanError(
            f"index probe parameter {parameter.display()} needs a "
            f"literal value, got {bound.display()}"
        )
    return bound.value


JOIN_METHODS = ("nlj", "inlj", "smj", "hj")

JOIN_KINDS = ("inner", "left", "semi", "anti")


class JoinNode(PlanNode):
    """A join of two subplans.

    - ``equi_keys``: pairs ``(left_key, right_key)`` of equality join
      columns (may be empty: cross/ineq join, NLJ only).
    - ``residuals``: other predicates evaluated at this join.
    - ``projection``: the field keys retained in the output (the
      projection list associated with the join, Section 2).
    - ``index_name``: for ``inlj``, the inner-side index probed with the
      outer row's join key values.
    - ``kind``: ``inner`` (default), ``left`` (LEFT OUTER: unmatched
      left rows survive with a NULL-padded right side), ``semi`` /
      ``anti`` (left rows with at least one / no match; output schema is
      the left side only). For non-inner kinds the equi keys *and*
      residuals together form the ON condition, evaluated during
      matching — never as a post-join filter.
    - ``null_aware``: the NOT IN anti-join variant (see
      :class:`repro.algebra.query.JoinUnit`).
    - ``schema``: the output schema, for a caller that already derived
      it from *projection* (the join DP derives one per input pair and
      shares it among the pair's physical methods). *projection* must
      then be given in its final form — for ``semi`` / ``anti``, left
      columns only.
    """

    ARGS = (
        "left",
        "right",
        "method",
        "equi_keys",
        "residuals",
        "projection",
        "index_name",
        "kind",
        "null_aware",
    )

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        method: str,
        equi_keys: Sequence[Tuple[FieldKey, FieldKey]] = (),
        residuals: Sequence[Expression] = (),
        projection: Optional[Sequence[FieldKey]] = None,
        index_name: Optional[str] = None,
        kind: str = "inner",
        null_aware: bool = False,
        schema: Optional[RowSchema] = None,
    ):
        super().__init__()
        if method not in JOIN_METHODS:
            raise PlanError(f"unknown join method {method!r}")
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        if method in ("smj", "hj", "inlj") and not equi_keys:
            raise PlanError(f"join method {method!r} requires equi-join keys")
        if method == "inlj" and index_name is None:
            raise PlanError("index nested-loop join requires an index")
        if kind != "inner" and method in ("smj", "inlj"):
            raise PlanError(
                f"join kind {kind!r} supports hash and nested-loop only"
            )
        if null_aware and kind != "anti":
            raise PlanError("null_aware applies to anti joins only")
        if null_aware and not equi_keys:
            raise PlanError(
                "a null-aware anti join needs its membership equality as "
                "its first equi key"
            )
        self.left = left
        self.right = right
        self.method = method
        self.kind = kind
        self.null_aware = null_aware
        self.equi_keys: Tuple[Tuple[FieldKey, FieldKey], ...] = tuple(equi_keys)
        self.residuals: Tuple[Expression, ...] = tuple(residuals)
        self.index_name = index_name
        if schema is not None:
            if projection is None:
                raise PlanError("a join given its schema needs its projection")
        else:
            combined = left.schema.concat(right.schema)
            if kind in ("semi", "anti"):
                left_keys = {field.key for field in left.schema}
                if projection is None:
                    projection = [field.key for field in left.schema]
                else:
                    projection = [
                        key for key in projection if key in left_keys
                    ]
                output = left.schema
            else:
                if projection is None:
                    projection = [field.key for field in combined]
                output = combined
            schema = output.project(projection)
        self.projection: Tuple[FieldKey, ...] = tuple(projection)
        self._schema = schema

    @property
    def schema(self) -> RowSchema:
        return self._schema

    def expressions(self):
        if self.residuals:
            combined = self.left.schema.concat(self.right.schema)
            for predicate in self.residuals:
                yield predicate, combined

    def map_expressions(self, fn, **changes):
        return self.replace(
            residuals=[fn(predicate) for predicate in self.residuals],
            **changes,
        )

    def describe(self) -> str:
        keys = ", ".join(
            f"{_show_key(a)}={_show_key(b)}" for a, b in self.equi_keys
        )
        residuals = (
            " residual " + " AND ".join(r.display() for r in self.residuals)
            if self.residuals
            else ""
        )
        via = f" via {self.index_name}" if self.index_name else ""
        kind = "" if self.kind == "inner" else f" {self.kind}"
        if self.null_aware:
            kind += " null-aware"
        return f"Join [{self.method}{via}{kind}] on ({keys}){residuals}"


GROUP_METHODS = ("hash", "sort")


class GroupByNode(PlanNode):
    """A group-by operator: grouping columns, aggregating columns (with
    their functions), and HAVING predicates — the paper's annotations of
    a group-by operator (Section 2).

    The output schema is the grouping fields (keeping their original
    aliases so predicates above still resolve) followed by one field per
    aggregate, named ``(None, output_name)``. ``projection`` optionally
    restricts/reorders the output (e.g. pull-up drops the surrogate key
    columns after grouping).

    ``eager`` marks this node's role in an eager partial-aggregation
    plan (``"partial"``, ``"carry"``, or ``"merge"``); ``None`` for an
    ordinary group-by. Purely informational — rendered by ``explain``
    so eager plans are recognizable — and preserved by plan rewrites.
    """

    ARGS = (
        "child",
        "group_keys",
        "aggregates",
        "having",
        "method",
        "projection",
        "eager",
    )

    def __init__(
        self,
        child: PlanNode,
        group_keys: Sequence[FieldKey],
        aggregates: Sequence[Tuple[str, AggregateCall]],
        having: Sequence[Expression] = (),
        method: str = "hash",
        projection: Optional[Sequence[FieldKey]] = None,
        eager: Optional[str] = None,
    ):
        super().__init__()
        if method not in GROUP_METHODS:
            raise PlanError(f"unknown group-by method {method!r}")
        if eager not in (None, "partial", "carry", "merge"):
            raise PlanError(f"unknown eager marker {eager!r}")
        self.child = child
        self.group_keys: Tuple[FieldKey, ...] = tuple(group_keys)
        self.aggregates: Tuple[Tuple[str, AggregateCall], ...] = tuple(aggregates)
        self.having: Tuple[Expression, ...] = tuple(having)
        self.method = method
        self.eager = eager

        child_schema = child.schema
        fields: List[Field] = [
            child_schema.fields[child_schema.index_of(*key)]
            for key in self.group_keys
        ]
        seen = {field.key for field in fields}
        for name, call in self.aggregates:
            if (None, name) in seen:
                raise PlanError(f"aggregate output {name!r} collides")
            fields.append(
                Field(None, name, call.output_dtype(child_schema))
            )
            seen.add((None, name))
        full_schema = RowSchema(fields)
        if projection is None:
            projection = [field.key for field in full_schema]
        self.projection: Tuple[FieldKey, ...] = tuple(projection)
        self._internal_schema = full_schema
        self._schema = full_schema.project(self.projection)

    @property
    def internal_schema(self) -> RowSchema:
        """Schema before the output projection (what HAVING sees)."""
        return self._internal_schema

    @property
    def schema(self) -> RowSchema:
        return self._schema

    def expressions(self):
        child_schema = self.child.schema
        for _, call in self.aggregates:
            if call.arg is not None:
                yield call.arg, child_schema
        for predicate in self.having:
            yield predicate, self._internal_schema

    def map_expressions(self, fn, **changes):
        aggregates = [
            (name, AggregateCall(call.func_name, fn(call.arg)))
            if call.arg is not None
            else (name, call)
            for name, call in self.aggregates
        ]
        return self.replace(
            aggregates=aggregates,
            having=[fn(predicate) for predicate in self.having],
            **changes,
        )

    def describe(self) -> str:
        keys = ", ".join(_show_key(key) for key in self.group_keys)
        aggs = ", ".join(
            f"{call.display()} AS {name}" for name, call in self.aggregates
        )
        having = (
            " having " + " AND ".join(h.display() for h in self.having)
            if self.having
            else ""
        )
        marker = f" eager={self.eager}" if self.eager else ""
        return (
            f"GroupBy [{self.method}{marker}] keys=({keys}) "
            f"aggs=({aggs}){having}"
        )


class FilterNode(PlanNode):
    """Selection over an arbitrary input.

    Base-table selections live in :class:`ScanNode` filters and join
    predicates in :class:`JoinNode`; this node covers the remaining
    case — predicates over a *derived* relation's output (e.g. an outer
    predicate on a view's aggregate column). Pipelined, zero IO.
    """

    ARGS = ("child", "predicates")

    def __init__(self, child: PlanNode, predicates: Sequence[Expression]):
        super().__init__()
        if not predicates:
            raise PlanError("filter needs at least one predicate")
        self.child = child
        self.predicates: Tuple[Expression, ...] = tuple(predicates)

    @property
    def schema(self) -> RowSchema:
        return self.child.schema

    def expressions(self):
        child_schema = self.child.schema
        for predicate in self.predicates:
            yield predicate, child_schema

    def map_expressions(self, fn, **changes):
        return self.replace(
            predicates=[fn(predicate) for predicate in self.predicates],
            **changes,
        )

    def describe(self) -> str:
        return "Filter " + " AND ".join(
            predicate.display() for predicate in self.predicates
        )


class ProjectNode(PlanNode):
    """Computed projection: each output is an expression over the child.

    Needed wherever an output is *computed* rather than copied — e.g.
    finalizing decomposed aggregates after simple coalescing
    (``avg = sum_partial / count_partial``) or arithmetic in a SELECT
    list. Costs no IO (pipelined).
    """

    ARGS = ("child", "outputs")

    def __init__(
        self,
        child: PlanNode,
        outputs: Sequence[Tuple[Optional[str], str, Expression]],
    ):
        super().__init__()
        if not outputs:
            raise PlanError("projection needs at least one output")
        self.child = child
        self.outputs: Tuple[Tuple[Optional[str], str, Expression], ...] = tuple(
            outputs
        )
        child_schema = child.schema
        self._schema = RowSchema(
            Field(alias, name, expression.dtype(child_schema))
            for alias, name, expression in self.outputs
        )

    @property
    def schema(self) -> RowSchema:
        return self._schema

    def expressions(self):
        child_schema = self.child.schema
        for _, _, expression in self.outputs:
            yield expression, child_schema

    def map_expressions(self, fn, **changes):
        return self.replace(
            outputs=[
                (alias, name, fn(expression))
                for alias, name, expression in self.outputs
            ],
            **changes,
        )

    def describe(self) -> str:
        parts = ", ".join(
            f"{expression.display()} AS "
            + (f"{alias}.{name}" if alias else name)
            for alias, name, expression in self.outputs
        )
        return f"Project ({parts})"


class SortNode(PlanNode):
    """Explicit sort, establishing an interesting order.

    ``descending`` marks per-key direction (default all ascending).
    Only an all-ascending sort establishes an order property the
    optimizer exploits; descending sorts exist for ORDER BY.
    """

    ARGS = ("child", "keys", "descending")

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[FieldKey],
        descending: Optional[Sequence[bool]] = None,
    ):
        super().__init__()
        if not keys:
            raise PlanError("sort needs at least one key")
        self.child = child
        self.keys: Tuple[FieldKey, ...] = tuple(keys)
        if descending is None:
            descending = [False] * len(self.keys)
        if len(descending) != len(self.keys):
            raise PlanError("sort directions must match the keys")
        self.descending: Tuple[bool, ...] = tuple(descending)
        for key in self.keys:
            child.schema.index_of(*key)  # validates

    @property
    def schema(self) -> RowSchema:
        return self.child.schema

    def describe(self) -> str:
        keys = ", ".join(
            _show_key(key) + (" desc" if desc else "")
            for key, desc in zip(self.keys, self.descending)
        )
        return f"Sort by ({keys})"


class LimitNode(PlanNode):
    """Keep the first N rows of the input (ORDER BY ... LIMIT n)."""

    ARGS = ("child", "count")

    def __init__(self, child: PlanNode, count: int):
        super().__init__()
        if count < 0:
            raise PlanError("limit must be non-negative")
        self.child = child
        self.count = count

    @property
    def schema(self) -> RowSchema:
        return self.child.schema

    def describe(self) -> str:
        return f"Limit {self.count}"


class RenameNode(PlanNode):
    """Projects and renames output columns.

    Used at view boundaries (the view's output columns become
    ``view_alias.column``) and at the query top (the SELECT list's output
    names). ``mapping`` is a sequence of ``(new_alias, new_name,
    source_key)`` triples.
    """

    ARGS = ("child", "mapping")

    def __init__(
        self,
        child: PlanNode,
        mapping: Sequence[Tuple[Optional[str], str, FieldKey]],
    ):
        super().__init__()
        self.child = child
        self.mapping: Tuple[Tuple[Optional[str], str, FieldKey], ...] = tuple(
            mapping
        )
        child_schema = child.schema
        self._schema = RowSchema(
            Field(
                new_alias,
                new_name,
                child_schema.field_of(*source).dtype,
            )
            for new_alias, new_name, source in self.mapping
        )
        self._positions = tuple(
            child_schema.index_of(*source) for _, _, source in self.mapping
        )

    @property
    def positions(self) -> Tuple[int, ...]:
        """Child row positions, in output order (used by the executor)."""
        return self._positions

    @property
    def schema(self) -> RowSchema:
        return self._schema

    def describe(self) -> str:
        parts = ", ".join(
            f"{_show_key(source)} AS "
            + (f"{alias}.{name}" if alias else name)
            for alias, name, source in self.mapping
        )
        return f"Rename ({parts})"


def _show_key(key: FieldKey) -> str:
    alias, name = key
    return f"{alias}.{name}" if alias else name


def explain(plan: PlanNode, indent: int = 0, metrics: Any = None) -> str:
    """Readable multi-line rendering of a plan, with cost annotations
    when the plan has been costed. With *metrics* — the
    :class:`~repro.engine.metrics.ExecutionMetrics` of one run of this
    plan — the rows each operator actually produced are shown next to
    the estimates (the usual EXPLAIN ANALYZE reading) along with its
    counters and q-error (multiplicative estimate-vs-actual error,
    1.0 = exact; ``–`` where a runtime key filter cut the rows, see
    :func:`repro.stats.feedback.key_filtered_nodes`)."""
    key_filtered = set()
    if metrics is not None:
        from ..stats.feedback import key_filtered_nodes

        key_filtered = key_filtered_nodes(plan, metrics)
    return "\n".join(_explain_lines(plan, indent, metrics, key_filtered))


def _explain_lines(plan: PlanNode, indent: int, metrics: Any, key_filtered):
    pad = "  " * indent
    line = pad + plan.describe()
    props = plan.props
    if props is not None:
        line += (
            f"  [rows={props.rows:.0f} pages={props.pages:.0f} "
            f"cost={props.cost:.0f}]"
        )
    actual_rows = metrics.actual_rows(plan) if metrics is not None else None
    if actual_rows is not None:
        ran = metrics.of(plan)
        line += (
            f"  (actual rows={actual_rows} batches={ran.batches}"
            f" time={ran.seconds * 1000.0:.2f}ms"
        )
        if ran.width:
            line += f" width={ran.width}"
        if ran.cells:
            line += f" cells={ran.cells}"
        if ran.groups:
            line += f" groups={ran.groups}"
        if ran.matches:
            line += f" matches={ran.matches}"
        if ran.filtered:
            line += f" filtered={ran.filtered}"
        if ran.fused:
            line += " fused"
        if ran.spill_reads or ran.spill_writes:
            line += f" spill={ran.spill_reads}r/{ran.spill_writes}w"
        if ran.key_filter:
            line += f" key filter → {ran.key_filter}"
        if ran.folded is not None:
            line += f" folded → {ran.folded} keys"
        if props is not None:
            from ..stats.feedback import comparable_rows, q_error

            compared = comparable_rows(plan, metrics, key_filtered)
            if compared is None:
                line += " q=–"
            else:
                line += f" q={q_error(props.rows, compared):.2f}"
        line += ")"
    lines = [line]
    for child in plan.children:
        lines.extend(_explain_lines(child, indent + 1, metrics, key_filtered))
    return lines


def plan_nodes(plan: PlanNode):
    """Yield every node of the plan tree (pre-order)."""
    yield plan
    for child in plan.children:
        yield from plan_nodes(child)
