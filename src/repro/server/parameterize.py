"""Lift a bound query's outer literals into ``$n`` parameters.

This is the bridge between ad-hoc SQL and the prepared-statement path:
given a bound :class:`~repro.algebra.query.CanonicalQuery`, every
:class:`Literal` in the *outer* WHERE and HAVING clauses is replaced by
a positional :class:`Parameter` (numbered left-to-right from ``$1``)
and collected into a value vector. The pair feeds
``Session.prepare_bound`` + ``execute_prepared``, which must produce
the same answer as running the original query directly — the identity
the metamorphic fuzzer's plan-cache configuration asserts.

View-body literals are left alone on purpose: a view block's constants
are part of its definition (and of the plan-cache signature), not
per-execution inputs. LIMIT is structural, not an expression, so it
never parameterizes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from ..algebra.expressions import Expression, Literal, Parameter
from ..algebra.query import CanonicalQuery


def _lift(expression: Expression, values: List[Literal]) -> Expression:
    """Copy of *expression* with each literal replaced by the next
    parameter index; the literal is appended to *values*."""
    if isinstance(expression, Literal):
        values.append(expression)
        return Parameter(len(values))
    return expression.map_children(lambda child: _lift(child, values))


def parameterize_query(
    query: CanonicalQuery,
) -> Optional[Tuple[CanonicalQuery, List[Literal]]]:
    """Replace outer WHERE/HAVING literals with ``$1..$n``.

    Returns ``(parameterized_query, values)``, or ``None`` when the
    query has no outer literal to lift (nothing to PREPARE over).
    """
    values: List[Literal] = []
    predicates = tuple(_lift(p, values) for p in query.predicates)
    having = tuple(_lift(h, values) for h in query.having)
    if not values:
        return None
    parameterized = replace(query, predicates=predicates, having=having)
    return parameterized, values
