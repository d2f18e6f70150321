"""The end-to-end facade: a small in-process database with a cost-based
optimizer for queries over aggregate views.

Typical use::

    db = Database()
    db.create_table("emp", [("eno", "int"), ("dno", "int"),
                            ("sal", "float"), ("age", "int")],
                    primary_key=["eno"])
    db.insert("emp", rows)
    result = db.query('''
        with a1(dno, asal) as (select e2.dno, avg(e2.sal)
                               from emp e2 group by e2.dno)
        select e1.sal from emp e1, a1 b
        where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal
    ''')
    print(result.rows, result.estimated_cost, result.executed_io)
    print(result.explain())
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .algebra.plan import PlanNode, explain as explain_plan
from .algebra.query import CanonicalQuery
from .catalog.catalog import Catalog, ForeignKey
from .catalog.schema import Column
from .cost.params import CostParams
from .datatypes import DataType
from .engine.context import ExecutionContext, Result
from .engine.executor import execute_plan
from .engine.metrics import ExecutionMetrics
from .engine.reference import evaluate_canonical
from .errors import CatalogError, ReproError
from .optimizer.canonical import (
    OptimizationResult,
    optimize_query,
    optimize_traditional,
)
from .optimizer.options import LEVELS, OptimizerOptions, level_options
from .server.plancache import PlanCache
from .sql import ddl
from .sql.ast import SelectStmt, ViewDefAst
from .sql.binder import bind_sql
from .stats import StatsConfig
from .sql.parser import parse_select
from .storage.iocounter import IOCounter, IOSnapshot

_TYPE_NAMES = {
    "int": DataType.INT,
    "integer": DataType.INT,
    "float": DataType.FLOAT,
    "double": DataType.FLOAT,
    "str": DataType.STR,
    "string": DataType.STR,
    "text": DataType.STR,
    "bool": DataType.BOOL,
    "boolean": DataType.BOOL,
    "date": DataType.DATE,
}

def _derive_view_columns(view_name: str, body) -> List[str]:
    """Output column names for CREATE MATERIALIZED VIEW: the AS alias,
    else the bare column name, else ``func_arg`` for aggregates."""
    from .algebra.expressions import ColumnRef
    from .sql.ast import AggregateExpr

    names: List[str] = []
    for position, item in enumerate(body.select_items):
        name = item.output_name
        expression = item.expression
        if name is None and isinstance(expression, ColumnRef):
            name = expression.name
        if name is None and isinstance(expression, AggregateExpr):
            if isinstance(expression.arg, ColumnRef):
                name = f"{expression.func_name}_{expression.arg.name}"
            else:
                name = expression.func_name
        if name is None:
            name = f"column_{position}"
        if name in names:
            raise CatalogError(
                f"materialized view {view_name!r} has duplicate output "
                f"column {name!r}; disambiguate with AS aliases"
            )
        names.append(name)
    return names


OPTIMIZERS = tuple(LEVELS)
"""Available optimizer levels (``repro.optimizer.options.LEVELS``)."""


@dataclass
class QueryResult:
    """Everything one query run produced."""

    rows: List[Tuple[Any, ...]]
    columns: List[str]
    plan: PlanNode
    estimated_cost: float
    executed_io: Optional[IOSnapshot]
    optimization: OptimizationResult
    sql: str = ""
    exec_metrics: Optional[ExecutionMetrics] = None
    parameters: Tuple[Any, ...] = ()
    """The values an EXECUTE ran with (``$1`` first); ``()`` otherwise.
    ``plan`` is the cached plan every execution shares, which keeps
    rendering ``$n`` — this says which values this run gave them."""

    def explain(self, analyze: bool = False) -> str:
        """The plan as text; ``analyze=True`` adds executed row counts
        and per-operator q-error (available after the query ran)."""
        text = explain_plan(
            self.plan, metrics=self.exec_metrics if analyze else None
        )
        if self.parameters:
            values = ", ".join(
                f"${n} = {value!r}"
                for n, value in enumerate(self.parameters, 1)
            )
            text = f"Parameters: {values}\n{text}"
        return text

    def q_errors(self):
        """Per-operator estimate-vs-actual records
        (:class:`repro.stats.feedback.EstimateRecord`), pre-order.
        Empty until the query has executed."""
        from .stats.feedback import plan_estimates

        return plan_estimates(self.plan, self.exec_metrics)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class Database:
    """An in-memory relational database with IO-accounted storage and
    the paper's aggregate-view optimizer."""

    def __init__(
        self,
        params: Optional[CostParams] = None,
        stats_config: Optional[StatsConfig] = None,
    ):
        self.catalog = Catalog(stats_config)
        self.params = params or CostParams()
        self.io = IOCounter()
        # Serving state (repro.server): one writer at a time holds the
        # write lock; reader sessions take it only briefly to plan and
        # capture a snapshot, then execute lock-free. The plan cache is
        # shared by every session on this database.
        self.write_lock = threading.RLock()
        self.plan_cache = PlanCache()
        self.sessions_opened = 0
        self._active_sessions = 0

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session(self, **kwargs) -> "Any":
        """Open a :class:`repro.server.session.Session` on this database
        (keyword arguments pass through: optimizer, options,
        use_plan_cache)."""
        from .server.session import Session

        return Session(self, **kwargs)

    def register_session(self, session: Any) -> None:
        with self.write_lock:
            self.sessions_opened += 1
            self._active_sessions += 1

    def unregister_session(self, session: Any) -> None:
        with self.write_lock:
            self._active_sessions = max(0, self._active_sessions - 1)

    @property
    def active_sessions(self) -> int:
        return self._active_sessions

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Union[Column, Tuple[str, str]]],
        primary_key: Optional[Sequence[str]] = None,
        nullable: Optional[Sequence[str]] = None,
    ) -> None:
        """Create a table. Columns are ``Column`` objects or
        ``(name, type_name)`` pairs with types int/float/str/bool/date.
        Columns named in *nullable* accept NULL values (columns are
        NOT NULL by default, matching the paper's NULL-free setting)."""
        nullable_set = set(nullable or ())
        resolved: List[Column] = []
        for column in columns:
            if isinstance(column, Column):
                if column.name in nullable_set and not column.nullable:
                    column = Column(column.name, column.dtype, nullable=True)
                resolved.append(column)
            else:
                column_name, type_name = column
                dtype = _TYPE_NAMES.get(type_name.lower())
                if dtype is None:
                    raise CatalogError(
                        f"unknown column type {type_name!r} "
                        f"(known: {sorted(_TYPE_NAMES)})"
                    )
                resolved.append(
                    Column(
                        column_name,
                        dtype,
                        nullable=column_name in nullable_set,
                    )
                )
        self.catalog.create_table(name, resolved, primary_key=primary_key)

    def insert(self, table: str, rows: Sequence[Sequence[Any]]) -> None:
        heap = self.catalog.table(table)
        before = heap.num_rows
        heap.insert_many(rows)
        self.catalog.rebuild_indexes(table)
        # Dependent materialized views go stale and log the delta; the
        # canonical (validated) row forms are what the table stored.
        self.catalog.record_insert(table, heap.row_slice(before))

    def create_index(
        self, index_name: str, table: str, columns: Sequence[str]
    ) -> None:
        self.catalog.create_index(index_name, table, columns)

    def add_foreign_key(
        self,
        table: str,
        columns: Sequence[str],
        ref_table: str,
        ref_columns: Sequence[str],
    ) -> ForeignKey:
        return self.catalog.add_foreign_key(
            table, columns, ref_table, ref_columns
        )

    def create_view(
        self, name: str, column_names: Sequence[str], body_sql: str
    ) -> None:
        """Register a named view usable in any query's FROM list."""
        body = parse_select(body_sql)
        self.catalog.register_view(
            name,
            ViewDefAst(
                name=name, column_names=tuple(column_names), body=body
            ),
        )

    def create_materialized_view(self, name: str, body_sql: str):
        """Create and populate a materialized aggregate view; it is also
        registered as a logical view, so queries reference it by name.
        Returns the populate's :class:`~repro.views.maintain.MaintenanceReport`."""
        return self._create_materialized_view(name, parse_select(body_sql))

    def _create_materialized_view(self, name: str, body: SelectStmt):
        from .views.maintain import create_materialized_view

        if (
            self.catalog.has_table(name)
            or self.catalog.has_view(name)
            or self.catalog.has_materialized_view(name)
        ):
            raise CatalogError(f"table or view {name!r} already exists")
        definition = ViewDefAst(
            name=name,
            column_names=tuple(_derive_view_columns(name, body)),
            body=body,
        )
        view, report = create_materialized_view(
            self.catalog, self.io, self.params, definition
        )
        self.catalog.register_materialized_view(view, view.backing_info)
        return report

    def refresh_materialized_view(self, name: str, mode: str = "auto"):
        """Freshen one view: incremental merge when legal, full
        recompute otherwise (``mode="full"`` forces the latter)."""
        from .views.maintain import refresh_materialized_view

        return refresh_materialized_view(
            self.catalog, self.io, self.params, name, mode=mode
        )

    def drop_view(self, name: str) -> None:
        self.catalog.drop_view(name)

    def drop_materialized_view(self, name: str) -> None:
        self.catalog.drop_materialized_view(name)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def drop_index(self, name: str) -> None:
        self.catalog.drop_index(name)

    def analyze(self, table: Optional[str] = None) -> List[str]:
        """Collect statistics now — for one table, or all of them.

        The SQL form is ``ANALYZE [table]``. Returns the analyzed table
        names (a materialized view name analyzes its backing table).
        """
        return self.catalog.analyze(table)

    def execute(
        self,
        sql: str,
        optimizer: str = "full",
        options: Optional[OptimizerOptions] = None,
    ) -> Optional[QueryResult]:
        """Run any supported statement.

        CREATE TABLE / CREATE INDEX / INSERT return ``None``; queries
        return a :class:`QueryResult` (the same as :meth:`query`).
        """
        statement = ddl.maybe_parse_ddl(sql)
        if statement is None:
            return self.query(sql, optimizer=optimizer, options=options)
        self.run_statement(statement)
        return None

    def run_statement(self, statement) -> None:
        """Apply one parsed DDL/DML statement (``repro.sql.ddl``) under
        the write lock; a session hands them over already parsed."""
        runner = _STATEMENT_RUNNERS.get(type(statement))
        if runner is None:
            raise ReproError(
                f"{type(statement).__name__} is a session statement; run "
                f"it through Database.session()"
            )
        with self.write_lock:
            runner(self, statement)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def bind(self, sql: str) -> CanonicalQuery:
        """Parse and bind SQL to the canonical form without optimizing."""
        return bind_sql(sql, self.catalog)

    def optimize(
        self,
        sql: str,
        optimizer: str = "full",
        options: Optional[OptimizerOptions] = None,
    ) -> OptimizationResult:
        """Optimize without executing."""
        query = self.bind(sql)
        return self.optimize_bound(query, optimizer, options)

    def optimize_bound(
        self,
        query: CanonicalQuery,
        optimizer: str = "full",
        options: Optional[OptimizerOptions] = None,
    ) -> OptimizationResult:
        """Optimize a bound query under the write lock: a lazy matview
        refresh is a write, and a session planning beside it must not
        see the catalog move between its plan and its epoch stamp."""
        leveled = level_options(optimizer, options)
        search = (
            optimize_traditional
            if optimizer == "traditional"
            else optimize_query
        )
        with self.write_lock:
            self._refresh_relevant_views(query, options)
            return search(query, self.catalog, self.params, leveled)

    def _refresh_relevant_views(
        self,
        query: CanonicalQuery,
        options: Optional[OptimizerOptions],
    ) -> None:
        """Lazy refresh on first stale read: before optimizing, freshen
        stale decomposable views whose base tables the query touches, so
        the matcher sees (and costs) up-to-date backing tables."""
        if options is not None and not options.enable_view_rewrite:
            return
        if not self.catalog.materialized_view_names():
            return
        from .views.maintain import refresh_stale_views

        refresh_stale_views(self.catalog, self.io, self.params, query.tables)

    def execute_plan(self, plan: PlanNode) -> Tuple[Result, IOSnapshot]:
        """Execute an annotated plan, returning rows and its IO delta."""
        result, delta, _ = self._execute_with_metrics(plan)
        return result, delta

    def _execute_with_metrics(
        self, plan: PlanNode
    ) -> Tuple[Result, IOSnapshot, Optional[ExecutionMetrics]]:
        context = ExecutionContext(self.catalog, self.io, self.params)
        with self.io.measure() as span:
            result = execute_plan(plan, context)
        return result, span.delta, context.metrics

    def query(
        self,
        sql: str,
        optimizer: str = "full",
        options: Optional[OptimizerOptions] = None,
        execute: bool = True,
    ) -> QueryResult:
        """Bind, optimize, and (by default) execute one SQL query."""
        bound = self.bind(sql)
        optimization = self.optimize_bound(bound, optimizer, options)
        plan = optimization.plan
        columns = [field.display() for field in plan.schema]
        exec_metrics: Optional[ExecutionMetrics] = None
        if execute:
            result, delta, exec_metrics = self._execute_with_metrics(plan)
            rows = result.rows
            executed: Optional[IOSnapshot] = delta
        else:
            rows = []
            executed = None
        return QueryResult(
            rows=rows,
            columns=columns,
            plan=plan,
            estimated_cost=optimization.cost,
            executed_io=executed,
            optimization=optimization,
            sql=sql,
            exec_metrics=exec_metrics,
        )

    def explain(self, sql: str, optimizer: str = "full") -> str:
        return explain_plan(self.optimize(sql, optimizer).plan)

    def reference(self, sql: str) -> Result:
        """Evaluate by brute force (ground truth; no optimizer)."""
        return evaluate_canonical(self.bind(sql), self.catalog)


# Looked up on the instance at call time: the end-to-end tracer wraps
# Database.insert and Database.create_index on the class.
_STATEMENT_RUNNERS = {
    ddl.CreateTableStmt: lambda db, s: db.create_table(
        s.name,
        list(s.columns),
        primary_key=list(s.primary_key) or None,
        nullable=list(s.nullable) or None,
    ),
    ddl.CreateIndexStmt: lambda db, s: db.create_index(
        s.name, s.table, list(s.columns)
    ),
    ddl.CreateMaterializedViewStmt: lambda db, s: (
        db._create_materialized_view(s.name, s.body)
    ),
    ddl.RefreshMaterializedViewStmt: lambda db, s: (
        db.refresh_materialized_view(s.name)
    ),
    ddl.DropMaterializedViewStmt: lambda db, s: (
        db.drop_materialized_view(s.name)
    ),
    ddl.DropTableStmt: lambda db, s: db.drop_table(s.name),
    ddl.DropIndexStmt: lambda db, s: db.drop_index(s.name),
    ddl.AnalyzeStmt: lambda db, s: db.analyze(s.table),
    ddl.InsertStmt: lambda db, s: db.insert(s.table, list(s.rows)),
}
