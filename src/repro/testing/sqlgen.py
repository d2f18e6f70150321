"""Seeded grammar-driven SQL script generator for differential fuzzing.

A *script* is a list of :class:`Stmt` — DDL, INSERTs, materialized-view
statements, and canonical queries — that exercises the whole stack
through the SQL front door. Generation is deterministic per seed.

Queries keep their grammar-level structure (:class:`QuerySpec`) so the
shrinker can apply semantic reductions (drop a predicate, drop an
aggregate, drop a joined relation) instead of fumbling with text.

The generator stays inside the intersection of this engine's dialect
and SQLite's so results are directly comparable:

- every query is a bag (no ORDER BY/LIMIT) — comparison sorts rows;
- no scalar aggregation without GROUP BY (rejected at bind time here,
  and SQLite's one-NULL-row answer would diverge anyway);
- no ``/`` on integer columns (SQLite division truncates, ours does
  not);
- float data is restricted to multiples of 0.25 (dyadic rationals), so
  sums are exact in binary and immune to association order — plan
  changes and partial-aggregate merges cannot introduce float noise;
- no bool/date columns (SQLite has neither type).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# Script model
# ----------------------------------------------------------------------

HOLISTIC_AGGREGATES = ("stddev", "median")

RARE_CONJUNCT_PROB = 0.04
"""Per query, the chance of each rare conjunct: an alias-free WHERE
conjunct, and a HAVING ``IS [NOT] NULL`` over an aggregate."""


@dataclass(frozen=True)
class PredSpec:
    """One WHERE/HAVING conjunct with the relation aliases it touches."""

    sql: str
    aliases: frozenset


@dataclass(frozen=True)
class SelectItem:
    """One output column: ``sql AS name``."""

    name: str
    sql: str
    aliases: frozenset
    is_aggregate: bool = False


@dataclass(frozen=True)
class RelRef:
    """One FROM-list entry: a base table, matview, or WITH view."""

    table: str
    alias: str


@dataclass(frozen=True)
class LeftJoinSpec:
    """One ``LEFT JOIN table alias ON on_sql`` clause.

    ``aliases`` lists every alias the ON condition touches (the joined
    alias plus the prior relations it references), so the shrinker can
    drop the clause together with everything that mentions it."""

    rel: RelRef
    on_sql: str
    aliases: frozenset

    def to_sql(self) -> str:
        return (
            f"left join {self.rel.table} {self.rel.alias} "
            f"on {self.on_sql}"
        )


@dataclass
class QuerySpec:
    """Structured form of one generated query."""

    relations: List[RelRef]
    select: List[SelectItem]
    where: List[PredSpec] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)
    having: List[PredSpec] = field(default_factory=list)
    views: List["ViewSpec"] = field(default_factory=list)
    left_joins: List[LeftJoinSpec] = field(default_factory=list)

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by)

    def to_sql(self) -> str:
        parts: List[str] = []
        if self.views:
            defs = ", ".join(view.to_sql() for view in self.views)
            parts.append(f"with {defs}")
        select = ", ".join(
            f"{item.sql} as {item.name}" for item in self.select
        )
        parts.append(f"select {select}")
        from_list = ", ".join(
            f"{rel.table} {rel.alias}" for rel in self.relations
        )
        parts.append(f"from {from_list}")
        for clause in self.left_joins:
            parts.append(clause.to_sql())
        if self.where:
            parts.append(
                "where " + " and ".join(pred.sql for pred in self.where)
            )
        if self.group_by:
            parts.append("group by " + ", ".join(self.group_by))
        if self.having:
            parts.append(
                "having " + " and ".join(pred.sql for pred in self.having)
            )
        return " ".join(parts)


@dataclass
class ViewSpec:
    """One WITH-clause view: ``name(columns) as (body)``."""

    name: str
    columns: List[str]
    body: QuerySpec

    def to_sql(self) -> str:
        names = ", ".join(self.columns)
        return f"{self.name}({names}) as ({self.body.to_sql()})"


@dataclass
class Stmt:
    """One statement of a fuzz script."""

    kind: str
    """``create`` | ``insert`` | ``index`` | ``matview`` | ``refresh``
    | ``analyze`` | ``query``."""
    sql: str
    query: Optional[QuerySpec] = None

    def render(self) -> str:
        if self.query is not None:
            return self.query.to_sql()
        return self.sql


@dataclass(frozen=True)
class GenColumn:
    name: str
    dtype: str  # "int" | "float" | "str"
    nullable: bool


@dataclass(frozen=True)
class GenTable:
    name: str
    columns: Tuple[GenColumn, ...]

    def columns_of_type(self, dtype: str) -> List[GenColumn]:
        return [c for c in self.columns if c.dtype == dtype]


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GenProfile:
    """Size/shape knobs for one generation run."""

    name: str = "default"
    max_tables: int = 3
    min_rows: int = 10
    max_rows: int = 60
    queries: int = 6
    matview_prob: float = 0.6
    index_prob: float = 0.5
    with_view_prob: float = 0.25
    holistic_prob: float = 0.08
    null_prob: float = 0.25
    refresh_prob: float = 0.5
    late_insert_prob: float = 0.8
    analyze_prob: float = 0.3
    """Chance that a late insert is followed by ``ANALYZE`` (sometimes
    table-targeted, sometimes whole-database) — statistics refresh must
    never change answers, only plans."""
    analyze_upfront_prob: float = 0.75
    """Chance that the initial load is followed by a whole-database
    ``ANALYZE``. NDV statistics arm the eager-aggregation prescreen
    (unanalyzed tables estimate no group collapse, so no eager
    alternatives are ever generated) — most scripts should run with
    statistics so the matrix actually exercises those plans."""
    grouped_join_prob: float = 0.35
    """Chance a query uses the dedicated grouped multi-join shape:
    aggregate arguments drawn from one relation, grouping keys from
    another — the shape where eager partial aggregation and COUNT-carry
    pre-collapse below the join apply."""
    subquery_prob: float = 0.35
    """Chance a query gains one WHERE-clause subquery conjunct (scalar
    aggregate / IN / NOT IN / EXISTS / NOT EXISTS, correlated or not).
    Inner select columns are biased toward nullable ones so NOT IN
    meets NULL-bearing inner sides — the three-valued-logic case the
    null-aware anti-join must get right."""
    left_join_prob: float = 0.3
    """Chance a query appends one ``LEFT JOIN ... ON`` clause; padded
    NULL rows then flow through filters, grouping, and aggregates."""


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------


class ScriptGenerator:
    """Deterministic script generator: same seed, same script."""

    STR_POOL = ("a", "b", "c", "d", "e")
    COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, seed: int, profile: Optional[GenProfile] = None):
        self.rng = random.Random(seed)
        self.profile = profile or GenProfile()
        self.tables: List[GenTable] = []
        self.matviews: List[GenTable] = []
        self._names = 0

    # -- naming --------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    # -- values --------------------------------------------------------

    def _value(self, column: GenColumn, allow_null: bool = True):
        rng = self.rng
        if (
            column.nullable
            and allow_null
            and rng.random() < self.profile.null_prob
        ):
            return None
        if column.dtype == "int":
            return rng.randint(-4, 12)
        if column.dtype == "float":
            # dyadic rationals: exact in binary, sums re-associate freely
            return rng.randint(-8, 40) * 0.25
        return rng.choice(self.STR_POOL)

    def _literal(self, column: GenColumn) -> str:
        value = self._value(column, allow_null=False)
        if column.dtype == "str":
            return f"'{value}'"
        return repr(value)

    # -- schema --------------------------------------------------------

    def _gen_table(self) -> GenTable:
        rng = self.rng
        name = self._fresh("t")
        columns: List[GenColumn] = [GenColumn("c0", "int", False)]
        for position in range(1, rng.randint(2, 5)):
            dtype = rng.choice(("int", "int", "float", "str"))
            nullable = rng.random() < 0.5
            columns.append(GenColumn(f"c{position}", dtype, nullable))
        return GenTable(name, tuple(columns))

    def _create_sql(self, table: GenTable) -> str:
        parts = []
        for column in table.columns:
            suffix = " null" if column.nullable else ""
            parts.append(f"{column.name} {column.dtype}{suffix}")
        return f"create table {table.name} ({', '.join(parts)})"

    def _insert_sql(self, table: GenTable, count: int) -> str:
        rows = []
        for _ in range(count):
            values = []
            for column in table.columns:
                value = self._value(column)
                if value is None:
                    values.append("null")
                elif column.dtype == "str":
                    values.append(f"'{value}'")
                else:
                    values.append(repr(value))
            rows.append("(" + ", ".join(values) + ")")
        return f"insert into {table.name} values {', '.join(rows)}"

    # -- expressions ---------------------------------------------------

    def _column_ref(self, rel: RelRef, column: GenColumn) -> str:
        return f"{rel.alias}.{column.name}"

    def _numeric_expr(
        self, rels: Sequence[Tuple[RelRef, GenTable]]
    ) -> Optional[Tuple[str, frozenset]]:
        """A small arithmetic expression over numeric columns, or None
        when no numeric column exists. Division is never emitted: SQLite
        truncates integer division, this engine does not."""
        rng = self.rng
        numeric: List[Tuple[RelRef, GenColumn]] = [
            (rel, column)
            for rel, table in rels
            for column in table.columns
            if column.dtype in ("int", "float")
        ]
        if not numeric:
            return None
        rel, column = rng.choice(numeric)
        ref = self._column_ref(rel, column)
        op = rng.choice(("+", "-", "*"))
        if rng.random() < 0.5 or len(numeric) == 1:
            operand = str(rng.randint(-3, 6))
            return f"{ref} {op} {operand}", frozenset([rel.alias])
        other_rel, other_column = rng.choice(numeric)
        other_ref = self._column_ref(other_rel, other_column)
        return (
            f"{ref} {op} {other_ref}",
            frozenset([rel.alias, other_rel.alias]),
        )

    def _predicate(
        self, rels: Sequence[Tuple[RelRef, GenTable]]
    ) -> PredSpec:
        """One filter conjunct over the available relations."""
        rng = self.rng
        if rng.random() < 0.15:
            expr = self._numeric_expr(rels)
            if expr is not None:
                sql, aliases = expr
                op = rng.choice(self.COMPARISONS)
                return PredSpec(
                    f"{sql} {op} {rng.randint(-6, 18)}", aliases
                )
        rel, table = rng.choice(list(rels))
        column = rng.choice(table.columns)
        ref = self._column_ref(rel, column)
        roll = rng.random()
        if column.nullable and roll < 0.25:
            negate = " not" if rng.random() < 0.5 else ""
            return PredSpec(
                f"{ref} is{negate} null", frozenset([rel.alias])
            )
        if roll < 0.45 and column.dtype != "str":
            low = self._literal(column)
            high = self._literal(column)
            return PredSpec(
                f"{ref} between {low} and {high}", frozenset([rel.alias])
            )
        if roll < 0.6:
            values = ", ".join(
                self._literal(column) for _ in range(rng.randint(1, 3))
            )
            negate = "not " if rng.random() < 0.3 else ""
            return PredSpec(
                f"{ref} {negate}in ({values})", frozenset([rel.alias])
            )
        op = (
            rng.choice(("=", "!="))
            if column.dtype == "str"
            else rng.choice(self.COMPARISONS)
        )
        if rng.random() < 0.7:
            return PredSpec(
                f"{ref} {op} {self._literal(column)}",
                frozenset([rel.alias]),
            )
        # column-vs-column, same type, possibly cross-relation
        other_rel, other_table = rng.choice(list(rels))
        candidates = other_table.columns_of_type(column.dtype)
        if not candidates:
            return PredSpec(
                f"{ref} {op} {self._literal(column)}",
                frozenset([rel.alias]),
            )
        other = rng.choice(candidates)
        return PredSpec(
            f"{ref} {op} {self._column_ref(other_rel, other)}",
            frozenset([rel.alias, other_rel.alias]),
        )

    def _join_chain(
        self, rels: Sequence[Tuple[RelRef, GenTable]]
    ) -> List[PredSpec]:
        """Equality predicates connecting consecutive relations."""
        rng = self.rng
        preds: List[PredSpec] = []
        for (rel_a, table_a), (rel_b, table_b) in zip(rels, rels[1:]):
            for dtype in ("int", "float", "str"):
                left = table_a.columns_of_type(dtype)
                right = table_b.columns_of_type(dtype)
                if left and right:
                    col_a = rng.choice(left)
                    col_b = rng.choice(right)
                    preds.append(
                        PredSpec(
                            f"{self._column_ref(rel_a, col_a)} = "
                            f"{self._column_ref(rel_b, col_b)}",
                            frozenset([rel_a.alias, rel_b.alias]),
                        )
                    )
                    break
            # no shared column type: leave the pair cross-joined (rare;
            # tables are small, and both systems agree on cross joins)
        return preds

    # -- subqueries and LEFT JOIN --------------------------------------

    @staticmethod
    def _types_comparable(a: str, b: str) -> bool:
        """int/float compare numerically in both systems; strings only
        against strings (and only with =/!=, per the dialect rules)."""
        if a == "str" or b == "str":
            return a == b
        return True

    def _correlation_sql(
        self,
        inner_alias: str,
        inner_table: GenTable,
        rels: Sequence[Tuple[RelRef, GenTable]],
    ) -> Optional[Tuple[str, str]]:
        """One ``inner.col = outer.col`` equality (the only correlated
        predicate shape the binder splits), or None when no type-
        compatible pair exists. Returns (sql, outer alias)."""
        rng = self.rng
        options = [
            (inner_column, rel, outer_column)
            for inner_column in inner_table.columns
            for rel, table in rels
            for outer_column in table.columns
            if self._types_comparable(
                inner_column.dtype, outer_column.dtype
            )
        ]
        if not options:
            return None
        inner_column, rel, outer_column = rng.choice(options)
        sql = (
            f"{inner_alias}.{inner_column.name} = "
            f"{rel.alias}.{outer_column.name}"
        )
        return sql, rel.alias

    def _inner_column(self, table: GenTable) -> GenColumn:
        """A subquery's selected column, biased toward nullable ones so
        IN / NOT IN regularly meet NULL-bearing inner sides."""
        rng = self.rng
        nullable = [c for c in table.columns if c.nullable]
        if nullable and rng.random() < 0.6:
            return rng.choice(nullable)
        return rng.choice(list(table.columns))

    def _subquery_predicate(
        self, rels: Sequence[Tuple[RelRef, GenTable]]
    ) -> Optional[PredSpec]:
        """One WHERE conjunct with a subquery: scalar aggregate
        comparison, [NOT] IN membership — of a column or of ``col + k``
        — or [NOT] EXISTS, correlated or not. Subquery bodies stay
        inside the binder's surface: one base table or two joined on a
        type-compatible column pair, simple conjuncts, correlation only
        as ``inner.col = outer.col``."""
        rng = self.rng
        if not self.tables:
            return None
        inner_table = rng.choice(self.tables)
        inner_alias = self._fresh("s")
        inner_rel = RelRef(inner_table.name, inner_alias)
        inner_rels = [(inner_rel, inner_table)]
        if rng.random() < 0.3:
            second = rng.choice(self.tables)
            second_rel = RelRef(second.name, self._fresh("s"))
            inner_rels.append((second_rel, second))
        from_sql = ", ".join(
            f"{rel.table} {rel.alias}" for rel, _ in inner_rels
        )

        inner_where = [pred.sql for pred in self._join_chain(inner_rels)]
        outer_aliases: set = set()
        if rng.random() < 0.45:
            local = self._predicate(inner_rels)
            inner_where.append(local.sql)
        correlated = rng.random() < 0.55
        if correlated:
            pair = self._correlation_sql(inner_alias, inner_table, rels)
            if pair is None:
                correlated = False
            else:
                sql, outer_alias = pair
                inner_where.append(sql)
                outer_aliases.add(outer_alias)
        where_sql = (
            " where " + " and ".join(inner_where) if inner_where else ""
        )

        kind = rng.choice(
            ("scalar", "scalar", "in", "in", "in", "exists", "exists")
        )
        if kind == "scalar":
            numeric = [
                c
                for c in inner_table.columns
                if c.dtype in ("int", "float")
            ]
            if numeric and rng.random() < 0.8:
                column = rng.choice(numeric)
                func = rng.choice(("count", "sum", "avg", "min", "max"))
                agg = f"{func}({inner_alias}.{column.name})"
            else:
                agg = "count(*)"
            body = f"(select {agg} from {from_sql}{where_sql})"
            outer_numeric = [
                (rel, column)
                for rel, table in rels
                for column in table.columns
                if column.dtype in ("int", "float")
            ]
            op = rng.choice(self.COMPARISONS)
            if outer_numeric and rng.random() < 0.7:
                rel, column = rng.choice(outer_numeric)
                left = self._column_ref(rel, column)
                outer_aliases.add(rel.alias)
            else:
                left = str(rng.randint(-4, 12))
            if not outer_aliases:
                # anchor constant-only tests to some relation so the
                # shrinker's drop-relation pass treats them as global
                outer_aliases.add(rels[0][0].alias)
            return PredSpec(
                f"{left} {op} {body}", frozenset(outer_aliases)
            )
        if kind == "in":
            column = self._inner_column(inner_table)
            body = (
                f"(select {inner_alias}.{column.name} from "
                f"{from_sql}{where_sql})"
            )
            options = [
                (rel, outer_column)
                for rel, table in rels
                for outer_column in table.columns
                if self._types_comparable(
                    column.dtype, outer_column.dtype
                )
            ]
            if not options:
                return None
            rel, outer_column = rng.choice(options)
            outer_aliases.add(rel.alias)
            outer = self._column_ref(rel, outer_column)
            if column.dtype != "str" and rng.random() < 0.3:
                outer = f"{outer} + {rng.randint(-2, 3)}"
            negate = "not " if rng.random() < 0.4 else ""
            return PredSpec(
                f"{outer} {negate}in {body}", frozenset(outer_aliases)
            )
        # exists / not exists
        column = rng.choice(list(inner_table.columns))
        body = (
            f"(select {inner_alias}.{column.name} from "
            f"{from_sql}{where_sql})"
        )
        if not outer_aliases:
            outer_aliases.add(rels[0][0].alias)
        negate = "not " if rng.random() < 0.4 else ""
        return PredSpec(f"{negate}exists {body}", frozenset(outer_aliases))

    def _left_join(
        self, rels: Sequence[Tuple[RelRef, GenTable]]
    ) -> Optional[Tuple[LeftJoinSpec, RelRef, GenTable]]:
        """One ``LEFT JOIN table alias ON prior.col = alias.col`` clause
        (sometimes with an extra ANDed filter on the joined side)."""
        rng = self.rng
        if not self.tables:
            return None
        table = rng.choice(self.tables)
        alias = self._fresh("r")
        options = [
            (rel, outer_column, join_column)
            for rel, outer_table in rels
            for outer_column in outer_table.columns
            for join_column in table.columns
            if self._types_comparable(
                outer_column.dtype, join_column.dtype
            )
        ]
        if not options:
            return None
        rel, outer_column, join_column = rng.choice(options)
        on = (
            f"{rel.alias}.{outer_column.name} = "
            f"{alias}.{join_column.name}"
        )
        if rng.random() < 0.3:
            extra = rng.choice(table.columns)
            if extra.dtype == "str":
                op = rng.choice(("=", "!="))
            else:
                op = rng.choice(self.COMPARISONS)
            literal = self._literal(extra)
            on += f" and {alias}.{extra.name} {op} {literal}"
        spec = LeftJoinSpec(
            RelRef(table.name, alias), on, frozenset([alias, rel.alias])
        )
        return spec, spec.rel, table

    def _aggregate(
        self, rels: Sequence[Tuple[RelRef, GenTable]], allow_holistic: bool
    ) -> Tuple[str, str, frozenset]:
        """(sql, result type, aliases) of one aggregate call."""
        rng = self.rng
        if rng.random() < 0.15:
            return "count(*)", "int", frozenset()
        rel, table = rng.choice(list(rels))
        numeric = [
            c for c in table.columns if c.dtype in ("int", "float")
        ]
        column = rng.choice(numeric) if numeric else table.columns[0]
        ref = self._column_ref(rel, column)
        aliases = frozenset([rel.alias])
        if column.dtype == "str":
            func = rng.choice(("count", "min", "max"))
            result = "int" if func == "count" else "str"
            return f"{func}({ref})", result, aliases
        if allow_holistic and rng.random() < self.profile.holistic_prob:
            func = rng.choice(HOLISTIC_AGGREGATES)
            return f"{func}({ref})", "float", aliases
        if rng.random() < 0.25:
            expr = self._numeric_expr(rels)
            if expr is not None:
                arg, arg_aliases = expr
                func = rng.choice(("sum", "avg", "min", "max"))
                result = "float" if func == "avg" else "int"
                return f"{func}({arg})", result, arg_aliases
        func = rng.choice(("count", "sum", "avg", "min", "max"))
        if func == "count":
            result = "int"
        elif func == "avg":
            result = "float"
        else:
            result = column.dtype
        return f"{func}({ref})", result, aliases

    # -- queries -------------------------------------------------------

    def _relation_pool(self) -> List[GenTable]:
        return self.tables + self.matviews

    def _gen_query(
        self,
        allow_views: bool = True,
        allow_holistic: bool = True,
        source_tables: Optional[Sequence[GenTable]] = None,
        max_relations: int = 3,
        allow_subqueries: bool = True,
        allow_left_joins: bool = True,
    ) -> QuerySpec:
        rng = self.rng
        pool = (
            list(source_tables)
            if source_tables is not None
            else self._relation_pool()
        )
        views: List[ViewSpec] = []
        rel_count = rng.randint(1, min(max_relations, max(1, len(pool))))
        chosen = [rng.choice(pool) for _ in range(rel_count)]
        rels: List[Tuple[RelRef, GenTable]] = []
        for table in chosen:
            alias = self._fresh("r")
            rels.append((RelRef(table.name, alias), table))

        # LEFT JOIN clauses and subquery correlations reference only the
        # plain FROM-list relations (base tables and matviews), never a
        # WITH-view alias — the binder resolves those, but keeping the
        # outer side concrete keeps generated scripts inside the
        # engine's supported surface.
        plain_rels = list(rels)
        left_joins: List[LeftJoinSpec] = []
        extended: List[Tuple[RelRef, GenTable]] = []
        if (
            allow_left_joins
            and rng.random() < self.profile.left_join_prob
        ):
            joined = self._left_join(plain_rels)
            if joined is not None:
                spec, joined_rel, joined_table = joined
                left_joins.append(spec)
                extended.append((joined_rel, joined_table))

        if (
            allow_views
            and self.tables
            and rng.random() < self.profile.with_view_prob
        ):
            view = self._gen_with_view()
            views.append(view)
            view_table = GenTable(
                view.name,
                tuple(
                    GenColumn(name, dtype, True)
                    for name, dtype in zip(
                        view.columns, view_column_types(view)
                    )
                ),
            )
            alias = self._fresh("r")
            rels.append((RelRef(view.name, alias), view_table))
        extended = list(rels) + extended

        where: List[PredSpec] = []
        if len(rels) > 1:
            where.extend(self._join_chain(rels))
        for _ in range(rng.randint(0, 2)):
            where.append(self._predicate(extended))
        if (
            allow_subqueries
            and rng.random() < self.profile.subquery_prob
        ):
            subquery_pred = self._subquery_predicate(plain_rels)
            if subquery_pred is not None:
                where.append(subquery_pred)

        grouped = rng.random() < 0.6
        select: List[SelectItem] = []
        group_by: List[str] = []
        having: List[PredSpec] = []
        if grouped:
            key_count = rng.randint(1, 2)
            for _ in range(key_count):
                rel, table = rng.choice(extended)
                column = rng.choice(table.columns)
                ref = self._column_ref(rel, column)
                if ref not in group_by:
                    group_by.append(ref)
                    select.append(
                        SelectItem(
                            self._fresh("x"),
                            ref,
                            frozenset([rel.alias]),
                        )
                    )
            seen_aggregates = set()
            for _ in range(rng.randint(1, 3)):
                sql, _, aliases = self._aggregate(
                    extended, allow_holistic
                )
                if sql in seen_aggregates:
                    continue  # the binder rejects duplicate aggregates
                seen_aggregates.add(sql)
                select.append(
                    SelectItem(
                        self._fresh("x"), sql, aliases, is_aggregate=True
                    )
                )
            if rng.random() < 0.35:
                aggregates = [
                    item for item in select if item.is_aggregate
                ]
                target = rng.choice(aggregates)
                op = rng.choice(self.COMPARISONS)
                bound = (
                    rng.randint(-2, 8)
                    if "count" in target.sql
                    else rng.randint(-10, 30)
                )
                having.append(
                    PredSpec(
                        f"{target.sql} {op} {bound}", target.aliases
                    )
                )
        else:
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.2:
                    expr = self._numeric_expr(extended)
                    if expr is not None:
                        sql, aliases = expr
                        select.append(
                            SelectItem(self._fresh("x"), sql, aliases)
                        )
                        continue
                rel, table = rng.choice(extended)
                column = rng.choice(table.columns)
                select.append(
                    SelectItem(
                        self._fresh("x"),
                        self._column_ref(rel, column),
                        frozenset([rel.alias]),
                    )
                )

        return QuerySpec(
            relations=[rel for rel, _ in rels],
            select=select,
            where=where,
            group_by=group_by,
            having=having,
            views=views,
            left_joins=left_joins,
        )

    def _gen_grouped_join_query(self) -> QuerySpec:
        """A grouped multi-join query shaped for eager aggregation:
        every aggregate argument comes from one relation (the *fact*
        side) while the grouping keys come from the others, so the
        optimizer may legally collapse either side below the join — a
        partial group-by on the fact side, a COUNT-carry pre-collapse
        on a dimension side. Whether it does is a pure cost decision;
        the answers must not move either way."""
        rng = self.rng
        pool = self._relation_pool()
        rels: List[Tuple[RelRef, GenTable]] = []
        for _ in range(rng.randint(2, 3)):
            table = rng.choice(pool)
            alias = self._fresh("r")
            rels.append((RelRef(table.name, alias), table))

        where = self._join_chain(rels)
        for _ in range(rng.randint(0, 2)):
            where.append(self._predicate(rels))
        if rng.random() < self.profile.subquery_prob:
            # decorrelation interacting with eager aggregation: the
            # semi/anti/LEFT unit must not break the partial-agg DP
            subquery_pred = self._subquery_predicate(rels)
            if subquery_pred is not None:
                where.append(subquery_pred)

        fact = rng.choice(rels)
        dims = [pair for pair in rels if pair is not fact] or [fact]
        select: List[SelectItem] = []
        group_by: List[str] = []
        for _ in range(rng.randint(1, 2)):
            rel, table = rng.choice(dims)
            column = rng.choice(table.columns)
            ref = self._column_ref(rel, column)
            if ref not in group_by:
                group_by.append(ref)
                select.append(
                    SelectItem(
                        self._fresh("x"), ref, frozenset([rel.alias])
                    )
                )

        seen_aggregates = set()
        if rng.random() < 0.4:
            # duplicate-sensitive and argument-free: the COUNT-carry
            # weighting must reproduce join multiplicity exactly
            seen_aggregates.add("count(*)")
            select.append(
                SelectItem(
                    self._fresh("x"), "count(*)", frozenset(), True
                )
            )
        for _ in range(rng.randint(1, 3)):
            sql, _, aliases = self._aggregate([fact], False)
            if sql in seen_aggregates:
                continue  # the binder rejects duplicate aggregates
            seen_aggregates.add(sql)
            select.append(
                SelectItem(
                    self._fresh("x"), sql, aliases, is_aggregate=True
                )
            )

        having: List[PredSpec] = []
        if rng.random() < 0.3:
            aggregates = [item for item in select if item.is_aggregate]
            target = rng.choice(aggregates)
            op = rng.choice(self.COMPARISONS)
            bound = (
                rng.randint(-2, 8)
                if "count" in target.sql
                else rng.randint(-10, 30)
            )
            having.append(
                PredSpec(f"{target.sql} {op} {bound}", target.aliases)
            )

        return QuerySpec(
            relations=[rel for rel, _ in rels],
            select=select,
            where=where,
            group_by=group_by,
            having=having,
        )

    def _gen_with_view(self) -> ViewSpec:
        """A simple grouped WITH view over one base table."""
        rng = self.rng
        table = rng.choice(self.tables)
        alias = self._fresh("r")
        rel = RelRef(table.name, alias)
        rels = [(rel, table)]
        key = rng.choice(table.columns)
        select = [
            SelectItem(
                "k0", self._column_ref(rel, key), frozenset([alias])
            )
        ]
        types = [key.dtype]
        seen_aggregates = set()
        for position in range(rng.randint(1, 2)):
            sql, dtype, aliases = self._aggregate(rels, False)
            if sql in seen_aggregates:
                continue
            seen_aggregates.add(sql)
            select.append(
                SelectItem(f"v{position}", sql, aliases, True)
            )
            types.append(dtype)
        where = [self._predicate(rels)] if rng.random() < 0.5 else []
        body = QuerySpec(
            relations=[rel],
            select=select,
            where=where,
            group_by=[self._column_ref(rel, key)],
        )
        view = ViewSpec(
            name=self._fresh("v"),
            columns=[item.name for item in select],
            body=body,
        )
        view._types = types  # stashed for view_column_types
        return view

    def _gen_matview(self) -> Tuple[Stmt, GenTable]:
        """CREATE MATERIALIZED VIEW over one or two base tables.

        Holistic aggregates are kept out of matview bodies: a query
        referencing the view by name would hide them from the oracle's
        holistic-SQL detection."""
        rng = self.rng
        count = 1 if rng.random() < 0.7 else 2
        body = self._gen_query(
            allow_views=False,
            allow_holistic=False,
            source_tables=self.tables,
            max_relations=count,
            allow_subqueries=False,
            allow_left_joins=False,
        )
        # matview bodies must group and must not HAVING
        if not body.group_by:
            rel = body.relations[0]
            key = f"{rel.alias}.c0"
            body.group_by = [key]
            body.select = [
                SelectItem(self._fresh("x"), key, frozenset([rel.alias]))
            ] + [item for item in body.select if item.is_aggregate]
            if len(body.select) == 1:
                body.select.append(
                    SelectItem(
                        self._fresh("x"),
                        "count(*)",
                        frozenset(),
                        is_aggregate=True,
                    )
                )
        body.having = []
        name = self._fresh("mv")
        sql = f"create materialized view {name} as {body.to_sql()}"
        by_alias = {
            rel.alias: next(
                table for table in self.tables if table.name == rel.table
            )
            for rel in body.relations
        }
        columns = tuple(
            GenColumn(item.name, _output_type(item, by_alias), True)
            for item in body.select
        )
        return Stmt("matview", sql), GenTable(name, columns)

    # -- whole scripts -------------------------------------------------

    def generate(self) -> List[Stmt]:
        rng = self.rng
        profile = self.profile
        script: List[Stmt] = []

        for _ in range(rng.randint(1, profile.max_tables)):
            table = self._gen_table()
            self.tables.append(table)
            script.append(Stmt("create", self._create_sql(table)))
            rows = rng.randint(profile.min_rows, profile.max_rows)
            script.append(Stmt("insert", self._insert_sql(table, rows)))

        for table in self.tables:
            if rng.random() < profile.index_prob:
                column = rng.choice(table.columns)
                script.append(
                    Stmt(
                        "index",
                        f"create index {self._fresh('ix')} on "
                        f"{table.name} ({column.name})",
                    )
                )

        if rng.random() < profile.matview_prob:
            for _ in range(rng.randint(1, 2)):
                stmt, view_table = self._gen_matview()
                script.append(stmt)
                self.matviews.append(view_table)

        if rng.random() < profile.analyze_upfront_prob:
            script.append(Stmt("analyze", "analyze"))

        for _ in range(profile.queries):
            roll = rng.random()
            if roll < 0.2 and rng.random() < profile.late_insert_prob:
                table = rng.choice(self.tables)
                script.append(
                    Stmt(
                        "insert",
                        self._insert_sql(table, rng.randint(1, 8)),
                    )
                )
                if self.matviews and rng.random() < profile.refresh_prob:
                    view = rng.choice(self.matviews)
                    script.append(
                        Stmt(
                            "refresh",
                            f"refresh materialized view {view.name}",
                        )
                    )
                if rng.random() < profile.analyze_prob:
                    target = (
                        f" {table.name}" if rng.random() < 0.5 else ""
                    )
                    script.append(Stmt("analyze", f"analyze{target}"))
            if rng.random() < profile.grouped_join_prob:
                query = self._gen_grouped_join_query()
            else:
                query = self._gen_query()
            script.append(Stmt("query", query.to_sql(), query=query))

        # Drawn after every other choice, so a script that draws
        # neither is exactly what its seed generates without them.
        for stmt in script:
            if stmt.query is not None and self._rare_conjuncts(stmt.query):
                stmt.sql = stmt.query.to_sql()
        return script

    def _rare_conjuncts(self, query: QuerySpec) -> bool:
        """Rarely add a WHERE conjunct that reads no column (``1 = 0``
        holds for no row, ``2 >= 1`` for all) and, to a grouped query,
        a HAVING ``IS [NOT] NULL`` test of an aggregate. Returns
        whether *query* changed."""
        rng = self.rng
        changed = False
        if rng.random() < RARE_CONJUNCT_PROB:
            left, right = rng.randint(0, 2), rng.randint(0, 2)
            op = rng.choice(self.COMPARISONS)
            query.where.append(PredSpec(f"{left} {op} {right}", frozenset()))
            changed = True
        if query.is_grouped and rng.random() < RARE_CONJUNCT_PROB:
            aggregates = [item for item in query.select if item.is_aggregate]
            if aggregates:
                target = rng.choice(aggregates)
                negate = " not" if rng.random() < 0.5 else ""
                query.having.append(
                    PredSpec(f"{target.sql} is{negate} null", target.aliases)
                )
                changed = True
        return changed


def _output_type(item: SelectItem, by_alias) -> str:
    """The result type of one select item, given alias → GenTable.

    Exact for key columns and MIN/MAX (which preserve their argument's
    type — getting ``str`` right matters because only =/!= are safe on
    strings); numeric aggregates approximate to float, which any
    numeric literal compares against safely."""

    def resolve(ref: str) -> str:
        alias, column_name = ref.split(".", 1)
        table = by_alias[alias]
        for column in table.columns:
            if column.name == column_name:
                return column.dtype
        return "int"

    sql = item.sql
    if not item.is_aggregate:
        return resolve(sql)
    if sql == "count(*)" or sql.startswith("count("):
        return "int"
    func, _, rest = sql.partition("(")
    arg = rest.rstrip(")")
    if func in ("min", "max"):
        return resolve(arg)
    return "float"


def view_column_types(view: ViewSpec) -> List[str]:
    """Column types of a WITH view (stashed by the generator)."""
    return getattr(view, "_types", ["int"] * len(view.columns))


def generate_script(
    seed: int, profile: Optional[GenProfile] = None
) -> List[Stmt]:
    """The deterministic fuzz script for *seed*."""
    return ScriptGenerator(seed, profile).generate()


def render_script(script: Sequence[Stmt]) -> str:
    """Self-contained ``;``-separated SQL text of a script."""
    return ";\n".join(stmt.render() for stmt in script) + ";\n"


__all__ = [
    "GenProfile",
    "LeftJoinSpec",
    "PredSpec",
    "QuerySpec",
    "RelRef",
    "ScriptGenerator",
    "SelectItem",
    "Stmt",
    "ViewSpec",
    "generate_script",
    "render_script",
    "view_column_types",
]
