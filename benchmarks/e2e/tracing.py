"""Per-layer tracing from outside the program.

One table of hooks ``(layer, module, attribute)``. Each target is
wrapped *where its caller looks it up*: a module-level name is rebound
on the importing module (``repro.sql.parser.tokenize`` is the name
``parse_select`` calls), a method is wrapped on its class. Nothing under
``src/repro`` is edited; spans inside the program are a later change.

Every call records one in-memory span ``[layer, start, end, parent,
statement]``. A layer's *self* time is its span minus the part covered
by child spans. Counts are read from what the calls return (token
lists, ``SearchStats``, ``MaintenanceReport``, ``SessionResult``).
Spans are aggregated only when the run ends (:meth:`Tracer.table`).
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("sql.lex", "repro.sql.parser", "tokenize"),
    ("sql.lex", "repro.sql.ddl", "tokenize"),
    ("sql.parse", "repro.sql.binder", "parse_select"),
    ("sql.parse", "repro.sql.ddl", "maybe_parse_ddl"),
    ("sql.bind", "repro.db", "bind_sql"),
    ("transforms.decorrelate", "repro.optimizer.canonical", "decorrelate_query"),
    ("optimizer.prune", "repro.optimizer.canonical", "prune_plan"),
    ("views.match", "repro.optimizer.canonical", "match_view"),
    ("views.stale_scan", "repro.views.maintain", "refresh_stale_views"),
    ("views.refresh", "repro.views.maintain", "refresh_materialized_view"),
    ("server.signature", "repro.server.session", "cache_key"),
    ("server.clone", "repro.server.session", "clone_plan"),
    ("server.clone", "repro.server.session", "bind_parameters"),
    ("engine.exec", "repro.server.session", "execute_plan"),
    ("storage.snapshot", "repro.catalog.catalog", "Catalog.capture_snapshot"),
    ("stats.analyze", "repro.catalog.catalog", "TableInfo.analyze"),
    ("optimizer.search", "repro.db", "Database.optimize_bound"),
    ("storage.insert", "repro.db", "Database.insert"),
    ("storage.index", "repro.db", "Database.create_index"),
    ("server.session", "repro.server.session", "Session.execute"),
)

STATEMENT_LAYER = "server.session"
"""The hook whose every call is one statement."""

SEARCH_COUNTERS = (
    "subsets_expanded",
    "joinplan_calls",
    "plans_retained",
    "plans_pruned",
    "pullup_sets_enumerated",
    "eager_alternatives_considered",
    "eager_alternatives_adopted",
    "decorrelation_considered",
    "decorrelation_adopted",
    "view_rewrites_adopted",
)

def _operator_class(label: str) -> str:
    if label.startswith("Scan"):
        return "scan"
    if label.startswith("Join"):
        return "join"
    if label.startswith("GroupBy"):
        return "groupby"
    return "other"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[Tuple[int, str, float]] = []
        self.missing: List[str] = []
        self.statement = -1
        self._stack: List[int] = []
        self._seen_sql: set = set()
        self._invalidations = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target. A target that is gone is listed in
        ``missing``; the run continues and its metrics read 0."""
        for layer, module_name, attribute in HOOKS:
            owner = resolve_owner(module_name, attribute)
            name = attribute.rsplit(".", 1)[-1]
            if owner is None or not callable(getattr(owner, name, None)):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            setattr(owner, name, self._wrap(layer, getattr(owner, name)))

    def _wrap(self, layer: str, function: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        reader = getattr(self, "_read_" + layer.replace(".", "_"), None)
        opens_statement = layer == STATEMENT_LAYER
        tracer = self

        def traced(*args, **kwargs):
            if opens_statement:
                tracer.statement += 1
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.statement]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if reader is not None:
                reader(args, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Counts, read from return values
    # ------------------------------------------------------------------

    def _emit(self, name: str, value: float) -> None:
        self.counts.append((self.statement, name, value))

    def _read_sql_lex(self, args, tokens) -> None:
        self._emit("sql.tokens", len(tokens))

    def _read_optimizer_search(self, args, optimization) -> None:
        emit = self._emit
        emit("optimizer.calls", 1)
        stats = optimization.stats
        for counter in SEARCH_COUNTERS:
            value = getattr(stats, counter, 0)
            if value:
                emit("search." + counter, value)

    def _read_views_refresh(self, args, report) -> None:
        if report.mode != "noop":
            self._emit("views.refreshes", 1)
            if report.mode == "incremental":
                self._emit("views.incremental", 1)

    def _read_stats_analyze(self, args, stats) -> None:
        self._emit("stats.analyze_calls", 1)

    def _read_server_session(self, args, result) -> None:
        emit = self._emit
        session, sql = args[0], args[1]
        cache = session.db.plan_cache
        if cache.invalidations != self._invalidations:
            emit("plancache.invalidations", cache.invalidations - self._invalidations)
            self._invalidations = cache.invalidations
        if cache.evictions != self._evictions:
            emit("plancache.evictions", cache.evictions - self._evictions)
            self._evictions = cache.evictions
        if result.kind == "query":
            emit("plancache.hit" if result.cache_hit else "plancache.miss", 1)
        elif result.kind == "execute":
            emit("prepared.executions", 1)
        query_result = result.query_result
        if query_result is None:
            return
        io = query_result.executed_io
        emit("storage.page_reads", io.page_reads)
        emit("storage.page_writes", io.page_writes)
        emit("cost.estimated", query_result.estimated_cost)
        emit("cost.executed_io", io.total)
        seconds = {"scan": 0.0, "join": 0.0, "groupby": 0.0}
        rows = cells = spill = 0
        for operator in query_result.exec_metrics.operators:
            kind = _operator_class(operator.label)
            if kind in seconds:
                seconds[kind] += operator.self_seconds
            rows += operator.rows_out
            cells += operator.cells
            spill += operator.spill_reads + operator.spill_writes
        for kind, value in seconds.items():
            if value:
                emit(f"engine.{kind}_s", value)
        emit("engine.rows_out", rows)
        emit("engine.cells", cells)
        if spill:
            emit("storage.spill_pages", spill)
        if sql not in self._seen_sql:
            # Walking the plan for q-errors formats every operator;
            # once per distinct text keeps it off the warm path.
            self._seen_sql.add(sql)
            errors = [record.q_error for record in query_result.q_errors()]
            if errors:
                emit("cost.q_error", statistics.median(errors))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def table(self) -> Dict[str, Any]:
        """Per-statement rows ``{layer: self seconds, count: value}``
        plus one ``setup`` row for spans outside any statement.
        ``<layer>.incl`` keys carry inclusive seconds where a metric is
        defined on them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        setup: Dict[str, float] = {}
        rows: List[Dict[str, float]] = [
            {} for _ in range(self.statement + 1)
        ]
        for index, (layer, start, end, _, statement) in enumerate(spans):
            row = rows[statement] if statement >= 0 else setup
            duration = end - start
            row[layer] = row.get(layer, 0.0) + duration - child_time[index]
            if layer in INCLUSIVE_LAYERS:
                key = layer + ".incl"
                row[key] = row.get(key, 0.0) + duration
        for statement, name, value in self.counts:
            row = rows[statement] if statement >= 0 else setup
            row[name] = row.get(name, 0) + value
        return {"rows": rows, "setup": setup, "missing": self.missing}


INCLUSIVE_LAYERS = frozenset({STATEMENT_LAYER})
"""``server.session`` inclusive is the whole statement inside the
server: what the client observes beyond it is the wire."""


def start(traced: bool) -> Optional[Tracer]:
    """An installed tracer, or ``None`` for an untraced run."""
    if not traced:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def resolve_owner(module_name: str, attribute: str) -> Optional[Any]:
    """The object a hook's name lives on: the module, or the class for
    ``Class.method``. ``None`` when it cannot be found."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in attribute.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner
