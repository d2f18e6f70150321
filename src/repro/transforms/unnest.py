"""Kim-style unnesting of correlated nested subqueries (Section 1).

The binder (:mod:`repro.sql.binder`) lowers each WHERE-clause subquery
to a neutral :class:`SubquerySpec`; the decorrelation pass
(:mod:`repro.transforms.decorrelate`) flattens correlated
scalar-aggregate subqueries into aggregate views grouped on their
correlation columns, joined in the outer block. This module is the
programmatic entry point used by examples and experiment E8: it
exposes the flattened canonical query together with a description of
what was unnested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..algebra.query import CanonicalQuery
from ..catalog.catalog import Catalog
from ..sql.binder import bind_sql
from .decorrelate import decorrelate_query


@dataclass(frozen=True)
class UnnestReport:
    """The flattened query plus a summary of the unnesting."""

    query: CanonicalQuery
    view_aliases: Tuple[str, ...]

    @property
    def unnested_count(self) -> int:
        return len(self.view_aliases)


def unnest_sql(sql: str, catalog: Catalog) -> UnnestReport:
    """Bind *sql*, unnesting its correlated subqueries into aggregate
    views (Kim's join-aggregate transformation), and report the views
    that were introduced."""
    query = decorrelate_query(bind_sql(sql, catalog))
    generated = tuple(
        view.alias for view in query.views if view.alias.startswith("sq_")
    )
    return UnnestReport(query=query, view_aliases=generated)
