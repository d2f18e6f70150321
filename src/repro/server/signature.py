"""Canonical block signatures — the plan cache's key.

Two SQL texts that bind to the same :class:`CanonicalQuery` structure
(same relations under the same aliases, same predicate/grouping/select
structure) produce the same signature, so the cache serves either text
with one stored plan. The rendering is purely structural and fully
deterministic: every component comes out of the bound query's tuples in
order, expressions through their ``display()`` form (parameters render
as ``$n``, so a prepared statement's template keys one entry shared by
all its executions).

Aliases are kept verbatim rather than normalized away: a plan's output
schema and its internal field keys embed the query's aliases, so a plan
cached under aliases ``(e, d)`` cannot answer the alias-renamed query
``(x, y)`` without a rewrite pass. Alias-insensitive matching is a
possible future refinement; correctness first.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import Expression
from ..algebra.query import AggregateView, CanonicalQuery, QueryBlock
from ..optimizer.options import OptimizerOptions
from ..trace import traced


def _expressions(label: str, items: Iterable[Expression]) -> str:
    return f"{label}[" + ";".join(e.display() for e in items) + "]"


def _aggregates(items: Iterable[Tuple[str, AggregateCall]]) -> str:
    return (
        "aggs["
        + ";".join(f"{name}={call.display()}" for name, call in items)
        + "]"
    )


def _block(block: QueryBlock) -> str:
    parts: List[str] = [
        "rels["
        + ";".join(f"{ref.table} {ref.alias}" for ref in block.relations)
        + "]",
        _expressions("where", block.predicates),
        "group[" + ";".join(c.display() for c in block.group_by) + "]",
        _aggregates(block.aggregates),
        _expressions("having", block.having),
        "select["
        + ";".join(f"{name}={src.display()}" for name, src in block.select)
        + "]",
    ]
    return "{" + "|".join(parts) + "}"


def _join_units(query: CanonicalQuery) -> str:
    """Join-kind structure: two queries differing only in a unit's kind
    (LEFT vs semi vs anti, null-aware or not) must never share a plan."""
    rendered = []
    for unit in query.joins:
        target = (
            f"{unit.table.table} {unit.table.alias}"
            if unit.table is not None
            else f"view {unit.alias}"
        )
        kind = unit.kind + ("+null_aware" if unit.null_aware else "")
        on = ";".join(e.display() for e in unit.on)
        filters = ";".join(e.display() for e in unit.filters)
        rendered.append(f"{kind}:{target}:on({on}):filters({filters})")
    return "joins[" + ";;".join(rendered) + "]"


def _subqueries(query: CanonicalQuery) -> str:
    """Unflattened subquery structure: kind/negation/operator and every
    inner component participate, so e.g. IN vs NOT IN, or two scalar
    subqueries differing only in their aggregate, key distinct plans."""
    rendered = []
    for spec in query.subqueries:
        head = spec.kind
        if spec.negate:
            head += "-not"
        if spec.op is not None:
            head += f"-{spec.op}"
        relations = ";".join(
            f"{ref.table} {ref.alias}" for ref in spec.relations
        )
        outer = spec.outer.display() if spec.outer is not None else ""
        value = spec.value.display() if spec.value is not None else ""
        aggregate = (
            spec.aggregate.display() if spec.aggregate is not None else ""
        )
        correlations = ";".join(
            f"{inner.display()}={outer_expr.display()}"
            for inner, outer_expr in spec.correlations
        )
        local = ";".join(e.display() for e in spec.local_predicates)
        rendered.append(
            f"{head}:{outer}:{value}:{aggregate}:rels({relations})"
            f":corr({correlations}):local({local})"
        )
    return "subqueries[" + ";;".join(rendered) + "]"


def query_signature(query: CanonicalQuery) -> str:
    """Deterministic structural key of a bound query."""
    views = ";".join(
        f"{view.alias}:{_block(view.block)}" for view in query.views
    )
    order = ";".join(
        f"{name}{' desc' if desc else ''}" for name, desc in query.order_by
    )
    parts = [
        "tables["
        + ";".join(f"{ref.table} {ref.alias}" for ref in query.base_tables)
        + "]",
        f"views[{views}]",
        _join_units(query),
        _subqueries(query),
        _expressions("where", query.predicates),
        "group[" + ";".join(c.display() for c in query.group_by) + "]",
        _aggregates(query.aggregates),
        _expressions("having", query.having),
        "select["
        + ";".join(f"{name}={src.display()}" for name, src in query.select)
        + "]",
        f"order[{order}]",
        f"limit[{query.limit}]",
    ]
    return "|".join(parts)


def options_fingerprint(options: OptimizerOptions) -> str:
    """Deterministic key component for the optimizer knobs in effect.

    ``OptimizerOptions`` is a frozen dataclass, so its repr lists every
    field with its value in declaration order — plans built under
    different knob settings never collide."""
    return repr(options) if options is not None else "default"


@traced("server.signature")
def cache_key(
    query: CanonicalQuery,
    optimizer: str,
    options: OptimizerOptions = None,
) -> Tuple[str, str, str]:
    """The full plan-cache key: structural signature + optimizer level
    + options fingerprint."""
    return (query_signature(query), optimizer, options_fingerprint(options))
