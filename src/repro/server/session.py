"""Sessions: the connection layer over :class:`~repro.db.Database`.

A session is one client's conversation with a shared database. It adds
three things the bare ``Database`` facade does not have:

- **Plan caching.** Queries are bound to canonical form, keyed on their
  structural signature (``signature.py``), and looked up in the
  database's shared :class:`~repro.server.plancache.PlanCache` before
  the optimizer runs. A hit skips optimization entirely; an entry is
  invalidated only by a write to a relation its plan reads
  (``plancache.py``). A statement whose *text* was seen before does
  less still: the cache's text front answers it before any lexer,
  parser, binder or signature runs, so a recurring statement costs two
  dictionary lookups and a
  snapshot capture (identity checks, while nothing was published)
  before it executes. What every execution needs from the cached plan
  — its ``$n`` set, its output column names and, from the first time
  the entry is *reused*, its compiled
  :class:`~repro.engine.executor.Executable` — is computed once per
  entry (:class:`PlannedStatement`), and the options fingerprint once
  per session.

- **Prepared statements.** ``PREPARE name AS SELECT ... $1 ...`` binds,
  optimizes and compiles once; ``EXECUTE name(values...)`` runs that
  same executable with the values in its ``ExecutionContext``;
  precisely the parse-and-optimize-once contract. The one generic plan
  knows its parameters: ``col = $n`` is costed as equality with a value
  not seen yet (the non-MCV ``1/NDV`` rule, not the default
  selectivity) and is offered the same single-column index probe
  ``col = literal`` gets, the ``$n`` riding in
  ``ScanNode.index_values`` and resolved at each probe. *Remaining
  tradeoff:* the plan is still **not** re-optimized per
  value vector — a value hitting a heavy MCV runs the generic plan
  (per-selectivity-bucket custom plans are not done), and range
  comparisons against ``$n`` are still costed at default selectivity.
  EXECUTE replans by the plan cache's rule: after DDL/INSERT/ANALYZE/
  refresh on a relation the plan reads, and only then.

- **Concurrency discipline.** All catalog mutation happens under the
  database's single write lock; queries capture a COW snapshot
  (``storage/snapshot.py``) under that lock and then execute *outside*
  it against the snapshot with a per-execution ``IOCounter`` and
  ``ExecutionContext``, which also holds everything the run records —
  the cached plan and its executable are shared and never written to,
  so readers never block the writer or each other during execution,
  and never observe half-applied inserts or matview refreshes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..algebra.expressions import Literal
from ..algebra.query import CanonicalQuery
from ..engine.context import ExecutionContext
from ..engine.executor import Executable, compile_plan, execute_plan
from ..errors import PlanError, ReproError
from ..optimizer.options import OptimizerOptions
from ..sql import ddl
from ..sql.binder import Binder
from ..storage.iocounter import IOCounter

# clone_plan and bind_parameters have no caller here any more; they stay
# importable from this module because the end-to-end tracer wraps them
# by these names.
from .planrewrite import bind_parameters, clone_plan, plan_parameters  # noqa: F401
from .signature import cache_key, options_fingerprint

@dataclass
class PlannedStatement:
    """What the plan cache holds for one query: the optimization and
    the pure functions of its plan every execution would otherwise
    recompute — the ``$n`` indexes in it, its output column names and
    the plan compiled for execution.

    ``executable`` is filled in by :meth:`compiled`, which the session
    calls when the statement is going to run more than once: on a cache
    *hit* and at PREPARE. The execution that planned a statement
    compiles, runs and drops its pipeline as it always did, so a text
    that never recurs leaves nothing but its plan in the cache (an
    executable is closures, schemas and kernels per operator — kept for
    all 128 never-reused entries it was +10 % resident memory on the
    ``plan_cold`` workload)."""

    optimization: Any  # OptimizationResult
    parameters: Tuple[int, ...]
    columns: Tuple[str, ...]
    relations: FrozenSet[str]
    """What the plan depends on (``Catalog.plan_relations``): it stays
    valid while none of these changes."""
    executable: Optional[Executable] = None

    @classmethod
    def of(cls, optimization, relations: FrozenSet[str]) -> "PlannedStatement":
        plan = optimization.plan
        return cls(
            optimization,
            tuple(sorted(plan_parameters(plan))),
            tuple(field.display() for field in plan.schema),
            relations,
        )

    def compiled(self, catalog) -> "PlannedStatement":
        """This entry with its plan compiled, once; the caller holds the
        write lock (one compile per entry, against a settled catalog)."""
        if self.executable is None:
            self.executable = compile_plan(self.optimization.plan, catalog)
        return self


@dataclass
class PreparedStatement:
    """One PREPAREd query: the bound form, its optimized plan template
    (with its parameter set, column names and the relations it reads),
    and the epoch the plan was last known valid at."""

    name: str
    sql: str
    query: CanonicalQuery
    planned: PlannedStatement
    epoch: int
    executions: int = 0
    replans: int = 0

    @property
    def optimization(self) -> Any:
        return self.planned.optimization

    @property
    def parameters(self) -> Tuple[int, ...]:
        return self.planned.parameters


@dataclass
class SessionResult:
    """What one session statement produced, with its phase timings.

    ``plan_seconds`` covers parse+bind+optimize (near zero on a plan
    cache hit or prepared execution); ``exec_seconds`` covers execution
    proper.
    """

    kind: str  # "query" | "ddl" | "prepare" | "execute" | "deallocate" | "explain"
    rows: List[Tuple[Any, ...]] = dataclass_field(default_factory=list)
    columns: List[str] = dataclass_field(default_factory=list)
    cache_hit: bool = False
    plan_seconds: float = 0.0
    exec_seconds: float = 0.0
    statement_name: Optional[str] = None
    query_result: Any = None  # QueryResult for query/execute kinds


class Session:
    """One client connection to a shared :class:`~repro.db.Database`."""

    def __init__(
        self,
        db,
        optimizer: str = "full",
        options: Optional[OptimizerOptions] = None,
        use_plan_cache: bool = True,
    ):
        self.db = db
        self.optimizer = optimizer
        self.options = options
        self.use_plan_cache = use_plan_cache
        self.prepared: Dict[str, PreparedStatement] = {}
        self.statements = 0
        db.register_session(self)

    @property
    def options(self) -> Optional[OptimizerOptions]:
        return self._options

    @options.setter
    def options(self, options: Optional[OptimizerOptions]) -> None:
        # Fingerprinted when set, not once per statement.
        self._options = options
        self._options_fingerprint = options_fingerprint(options)

    def close(self) -> None:
        self.db.unregister_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> SessionResult:
        """Run one statement: a query, DDL/INSERT, EXPLAIN, or the
        PREPARE / EXECUTE / DEALLOCATE session commands."""
        self.statements += 1
        start = time.perf_counter()
        planned = self._cached_text(sql) if self.use_plan_cache else None
        if planned is not None:
            return self._execute_query(sql, start, *planned)
        statement = ddl.maybe_parse_ddl(sql)
        if statement is None:
            return self._execute_query(sql, start, *self._plan_query(sql))
        handler = _SESSION_STATEMENTS.get(type(statement))
        if handler is not None:
            return handler(self, statement)
        # DDL / writes: run_statement takes the write lock
        self.db.run_statement(statement)
        return SessionResult(
            kind="ddl", exec_seconds=time.perf_counter() - start
        )

    # ------------------------------------------------------------------
    # Queries — plan cache + snapshot execution
    # ------------------------------------------------------------------

    def _text_key(self, sql: str) -> Tuple[str, str, str]:
        """The plan cache's text-front key: the statement verbatim plus
        what else decides its plan on this session."""
        return (sql, self.optimizer, self._options_fingerprint)

    def _cached_text(
        self, sql: str
    ) -> Optional[Tuple[PlannedStatement, Any, bool]]:
        """The statement fast path: *sql* verbatim was bound and planned
        before, and nothing either read has changed since, so all that
        is left to do under the lock is to pair the cached plan with a
        snapshot. ``None`` for any other text — session commands and
        DDL included."""
        with self.db.write_lock:
            catalog = self.db.catalog
            planned = self.db.plan_cache.get_text(self._text_key(sql), catalog)
            if planned is None:
                return None
            return planned.compiled(catalog), catalog.capture_snapshot(), True

    def _plan_query(
        self, sql: str
    ) -> Tuple[PlannedStatement, Any, bool]:
        """Bind and optimize (or fetch the cached plan) under the write
        lock; returns ``(planned, snapshot, cache_hit)``.

        The lock covers three things that must see a settled catalog:
        binding (schema lookups), optimization (which may trigger lazy
        matview refresh — a write), and snapshot capture (which must
        pair row lists with the epoch that described them)."""
        cache = self.db.plan_cache if self.use_plan_cache else None
        with self.db.write_lock:
            catalog = self.db.catalog
            bound = self.db.bind(sql)
            key = cache_key(bound, self.optimizer, self.options)
            planned = cache.get(key, catalog) if cache is not None else None
            hit = planned is not None
            if hit:
                planned.compiled(catalog)
            else:
                planned = self._planned(bound)
            # Lazy matview refresh during optimization bumps the epoch;
            # read it now so the entries are valid *now*.
            epoch = catalog.change_epoch
            if cache is not None:
                if not hit:
                    cache.put(key, epoch, planned, planned.relations)
                # Nothing but this statement's own refresh moved the
                # catalog since the bind, and a refresh changes no
                # schema: the text still binds to *key* at *epoch*.
                cache.put_text(self._text_key(sql), key, epoch)
            snapshot = catalog.capture_snapshot()
        return planned, snapshot, hit

    def _planned(self, query: CanonicalQuery) -> PlannedStatement:
        """Optimize *query*; the caller holds the write lock."""
        return PlannedStatement.of(
            self.db.optimize_bound(query, self.optimizer, self.options),
            self.db.catalog.plan_relations(query.tables),
        )

    def _run(
        self,
        kind: str,
        sql: str,
        start: float,
        planned: PlannedStatement,
        snapshot,
        hit: bool,
        values: Tuple[Any, ...] = (),
        statement_name: Optional[str] = None,
    ) -> SessionResult:
        """Execute a planned statement against *snapshot* with
        per-execution state; no locks held. *start* is when the
        statement began, so ``plan_seconds`` covers whatever planning it
        did."""
        from ..db import QueryResult

        after_planning = time.perf_counter()
        optimization = planned.optimization
        plan = optimization.plan
        context = ExecutionContext(
            self.db.catalog,
            IOCounter(),
            self.db.params,
            snapshot=snapshot,
            parameters=values,
        )
        # a statement that was just planned compiles for itself
        result = execute_plan(planned.executable or plan, context)
        finished = time.perf_counter()
        columns = list(planned.columns)
        query_result = QueryResult(
            rows=result.rows,
            columns=columns,
            plan=plan,
            estimated_cost=optimization.cost,
            executed_io=context.io.snapshot(),
            optimization=optimization,
            sql=sql,
            exec_metrics=context.metrics,
            parameters=values,
        )
        return SessionResult(
            kind=kind,
            rows=result.rows,
            columns=columns,
            cache_hit=hit,
            plan_seconds=after_planning - start,
            exec_seconds=finished - after_planning,
            statement_name=statement_name,
            query_result=query_result,
        )

    def _execute_query(
        self,
        sql: str,
        start: float,
        planned: PlannedStatement,
        snapshot,
        hit: bool,
    ) -> SessionResult:
        """Run a planned query text."""
        if planned.parameters:
            raise PlanError(
                "query contains $n parameters; use PREPARE ... / EXECUTE"
            )
        return self._run("query", sql, start, planned, snapshot, hit)

    # ------------------------------------------------------------------
    # PREPARE / EXECUTE / DEALLOCATE
    # ------------------------------------------------------------------

    def prepare(self, name: str, body_sql: str) -> SessionResult:
        with self.db.write_lock:
            bound = self.db.bind(body_sql)
            return self.prepare_bound(name, bound, sql=body_sql)

    def _prepare_parsed(self, statement: ddl.PrepareStmt) -> SessionResult:
        """PREPARE as a statement: its body arrives already parsed."""
        with self.db.write_lock:
            bound = Binder(self.db.catalog).bind(statement.body)
            return self.prepare_bound(
                statement.name, bound, sql=statement.body_sql
            )

    def prepare_bound(
        self, name: str, query: CanonicalQuery, sql: str = ""
    ) -> SessionResult:
        """PREPARE from an already-bound query — the entry point for
        callers that build parameterized forms programmatically (the
        metamorphic fuzzer lifts literals to ``$n`` this way)."""
        if name in self.prepared:
            raise ReproError(f"prepared statement {name!r} already exists")
        start = time.perf_counter()
        with self.db.write_lock:
            planned = self._planned(query).compiled(self.db.catalog)
            # read after planning: a lazy matview refresh moves it
            epoch = self.db.catalog.change_epoch
        parameters = planned.parameters
        expected = tuple(range(1, len(parameters) + 1))
        if parameters != expected:
            raise PlanError(
                f"prepared statement {name!r} uses parameters "
                f"{['$%d' % i for i in parameters]}; they must be "
                f"numbered contiguously from $1"
            )
        self.prepared[name] = PreparedStatement(
            name=name, sql=sql, query=query, planned=planned, epoch=epoch
        )
        return SessionResult(
            kind="prepare",
            statement_name=name,
            plan_seconds=time.perf_counter() - start,
        )

    def execute_prepared(
        self, name: str, values: List[Literal]
    ) -> SessionResult:
        return self._execute_values(
            name, tuple(value.value for value in values)
        )

    def _prepared_plan(
        self, name: str, values: Tuple[Any, ...]
    ) -> Tuple[PreparedStatement, PlannedStatement, Any, bool]:
        """The prepared statement *name*, checked against *values*, with
        its plan valid now and a snapshot to run it on:
        ``(statement, planned, snapshot, hit)``; ``hit`` is false when
        the plan had to be rebuilt."""
        statement = self.prepared.get(name)
        if statement is None:
            raise ReproError(f"unknown prepared statement {name!r}")
        if len(values) != len(statement.parameters):
            raise PlanError(
                f"prepared statement {name!r} expects "
                f"{len(statement.parameters)} values, got {len(values)}"
            )
        hit = True
        with self.db.write_lock:
            catalog = self.db.catalog
            if statement.epoch != catalog.change_epoch:
                # The catalog moved on: replan once if it changed what
                # the plan reads (DDL/insert/refresh/ANALYZE on one of
                # its relations), else re-stamp it. Parameter *values*
                # never trigger this — see the module docstring's
                # tradeoff.
                if catalog.changed_since(
                    statement.planned.relations, statement.epoch
                ):
                    statement.planned = self._planned(
                        statement.query
                    ).compiled(catalog)
                    statement.replans += 1
                    hit = False
                statement.epoch = catalog.change_epoch
            planned = statement.planned
            snapshot = catalog.capture_snapshot()
        return statement, planned, snapshot, hit

    def _execute_values(
        self, name: str, values: Tuple[Any, ...]
    ) -> SessionResult:
        """EXECUTE with plain values, as the statement parser reads them."""
        start = time.perf_counter()
        statement, planned, snapshot, hit = self._prepared_plan(name, values)
        result = self._run(
            "execute", statement.sql, start, planned, snapshot, hit, values,
            name,
        )
        statement.executions += 1
        return result

    def deallocate(self, name: str) -> SessionResult:
        if name not in self.prepared:
            raise ReproError(f"unknown prepared statement {name!r}")
        del self.prepared[name]
        return SessionResult(kind="deallocate", statement_name=name)

    # ------------------------------------------------------------------
    # EXPLAIN [ANALYZE]
    # ------------------------------------------------------------------

    def _explain(self, statement: ddl.ExplainStmt) -> SessionResult:
        """Plan the query text like any other (text front and plan cache
        included) — or take a prepared statement's plan, revalidated as
        EXECUTE would — run it only under ANALYZE, and answer with the
        plan as rows of one ``plan`` text column, so any client can read
        it."""
        from ..db import QueryResult

        start = time.perf_counter()
        execute = statement.execute
        if execute is None:
            sql, values = statement.body_sql, ()
            planned = self._cached_text(sql) if self.use_plan_cache else None
            planned, snapshot, hit = planned or self._plan_query(sql)
        else:
            values = execute.values
            prepared, planned, snapshot, hit = self._prepared_plan(
                execute.name, values
            )
            sql = prepared.sql
        optimization = planned.optimization
        if statement.analyze:
            if execute is None:
                run = self._execute_query(sql, start, planned, snapshot, hit)
            else:
                run = self._run(
                    "execute", sql, start, planned, snapshot, hit, values,
                    execute.name,
                )
            result = run.query_result
            footer = (
                f"estimated {optimization.cost:.0f} / executed "
                f"{result.executed_io.total} page IOs"
            )
        else:
            result = QueryResult(
                rows=[],
                columns=list(planned.columns),
                plan=optimization.plan,
                estimated_cost=optimization.cost,
                executed_io=None,
                optimization=optimization,
                sql=sql,
                parameters=values,
            )
            footer = f"estimated cost: {optimization.cost:.0f} page IOs"
        if execute is not None:
            footer += f"; replans: {prepared.replans}"
        lines = result.explain(analyze=statement.analyze).splitlines()
        lines.append(footer)
        if optimization.traditional_cost is not None:
            # the no-worse comparison the optimizer made, and what won it
            baseline = (
                f"traditional plan: {optimization.traditional_cost:.0f} "
                f"page IOs"
            )
            ratio = optimization.improvement_over_traditional
            if ratio is not None:
                baseline += f" ({ratio:.2f}x)"
            for view, pulled in optimization.pull_choices.items():
                if pulled:
                    baseline += f"; pulled up: {view} <- ({', '.join(pulled)})"
            lines.append(baseline)
        return SessionResult(
            kind="explain",
            rows=[(line,) for line in lines],
            columns=["plan"],
            cache_hit=hit,
            query_result=result,
        )


_SESSION_STATEMENTS = {
    ddl.ExecuteStmt: lambda session, statement: session._execute_values(
        statement.name, statement.values
    ),
    ddl.PrepareStmt: Session._prepare_parsed,
    ddl.DeallocateStmt: lambda session, statement: session.deallocate(
        statement.name
    ),
    ddl.ExplainStmt: Session._explain,
}
"""The statements the session itself runs; every other parsed statement
is the database's (``Database.run_statement``, under the write lock)."""
