"""Metamorphic plan-space cross-checks.

A fuzz script is replayed through several *engine configurations* —
points in the plan space that must all produce the same bags of rows:

- the three optimizer levels (``full`` / ``greedy`` / ``traditional``);
- the paper's transformations on vs. off (pull-up, push-down,
  invariant grouping split);
- answering from materialized views on vs. off;
- the bare ``Database`` facade vs. a serving ``Session``.

Each configuration replays the *entire* script in its own database, so
interleaved inserts, matview staleness, and lazy refreshes are
exercised under every plan shape — the state mutations are identical,
only the query plans differ.

On top of row agreement, the harness checks the paper's **no-worse
guarantee**: the full optimizer's estimated cost never exceeds the
traditional optimizer's for the same query (Section 5's safety
property; ``tests/test_property_optimizer.py`` pins the same invariant
on curated workloads). And every plan it executes is held to the
**IO oracle**: the cost model under the run's actual counts
(:func:`~repro.testing.exactio.exact_io`) must charge exactly the
executed page IO. A plan with an index access is exempt (the model's
probe formula does not mirror storage's charge) and counted as such in
:attr:`CheckReport.io`. Each of those plans must also be a legal
operator tree (:func:`~repro.algebra.legality.check_plan`); one that
is not is an ``error`` divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.legality import check_plan
from ..cost.params import CostParams
from ..db import Database
from ..engine.reference import rows_equal_bag
from ..errors import ReproError
from ..optimizer.options import TRADITIONAL, OptimizerOptions
from .exactio import exact_io, has_index_access
from .oracle import OracleError, SqliteOracle, oracle_rows
from .sqlgen import Stmt

COST_SLACK = 1e-9


@dataclass(frozen=True)
class EngineConfig:
    """One point in the plan space."""

    name: str
    optimizer: str = "full"
    options: Optional[OptimizerOptions] = None
    params: Optional[CostParams] = None
    """Cost-model parameters for this configuration's database. Cost
    knobs steer plan choice only — answers must not move, which is
    exactly what the matrix checks. (The no-worse cost comparison is
    only made between configs sharing the default parameters.)"""
    session: bool = False
    """Replay through a :class:`~repro.server.session.Session` instead
    of the bare ``Database`` facade: every query runs twice through a
    warm plan cache (the second must hit and answer identically) and —
    when the outer WHERE/HAVING contains literals — a third time via
    PREPARE/EXECUTE with the literals lifted to ``$1..$n``. Once the
    script has run, every query runs once more on the warm session and
    must answer as a fresh plan does (``_recheck_after_writes``)."""


#: The cross-check matrix. The first entry is the baseline.
CONFIGS: Tuple[EngineConfig, ...] = (
    EngineConfig("full-batch"),
    EngineConfig(
        "full-norewrite",
        options=OptimizerOptions(enable_view_rewrite=False),
    ),
    # The full search under the traditional level's options: every
    # transformation off, so only the search path differs.
    EngineConfig("full-notransforms", options=TRADITIONAL),
    EngineConfig("greedy-batch", optimizer="greedy"),
    EngineConfig("traditional-batch", optimizer="traditional"),
    # The only config planning traditionally without view rewrite.
    EngineConfig(
        "traditional-norewrite",
        optimizer="traditional",
        options=OptimizerOptions(enable_view_rewrite=False),
    ),
    # Serving-path replay: the plan cache, snapshot execution, and the
    # prepared-statement parameter substitution must all preserve
    # answers — caching and parameter lifting are pure plan-delivery
    # mechanics, never semantics.
    EngineConfig("full-plancache", session=True),
    # Eager-aggregation ablation: partial group-bys and COUNT-carry
    # pre-collapses below joins are retained *alternatives* next to
    # the lazy plan, picked purely by cost — planning with the §5.2
    # greedy heuristic instead may change plans and costs but never
    # answers.
    EngineConfig(
        "full-noeager",
        options=OptimizerOptions(early_grouping="greedy"),
    ),
    # Eager-adoption point: a weighted CPU+IO objective and a tiny
    # memory budget make the retained eager alternatives actually win
    # at fuzz scale, so partial group-by and COUNT-carry plans get
    # *executed* (including Grace-spill paths) under cross-check — not
    # merely generated and priced.
    EngineConfig(
        "full-eagercost",
        params=CostParams(memory_pages=4, cpu_tuple_weight=0.01),
    ),
)


@dataclass
class QueryOutcome:
    """What one configuration produced for one query."""

    rows: Optional[List[Tuple[Any, ...]]] = None
    error: Optional[str] = None
    cost: Optional[float] = None
    io: List[Tuple[float, int, bool, int, int, int]] = field(
        default_factory=list
    )
    """Per execution: ``(exact_io, executed IO, has an index access,
    runtime key filters fired, joins folded, ordered searches)``."""
    survived: Optional[bool] = None
    """Session configs: whether the re-run at the end of the script hit
    the plan cache (``None``: not re-checked)."""
    recheck_error: Optional[str] = None
    """Session configs: how that re-run disagreed with a fresh plan."""


def _io_check(
    result, db: Database
) -> Tuple[float, int, bool, int, int, int]:
    """One executed :class:`~repro.db.QueryResult`: its plan checked as
    a legal operator tree (a :class:`PlanError` if not), against the IO
    oracle, the runtime key filters its joins fired, the joins it
    folded into the group-by above them, and the blocks its search
    searched with order classes (past the memory cliff)."""
    check_plan(result.plan, db.catalog)
    return (
        exact_io(result.plan, result.exec_metrics, db.catalog, db.params),
        result.executed_io.total,
        has_index_access(result.plan),
        result.exec_metrics.filters_fired,
        result.exec_metrics.folds,
        result.optimization.stats.ordered_searches,
    )


@dataclass
class IOTally:
    """The executed plans of one config the IO oracle checked: how many,
    how many matched it exactly, how many had an index access (and
    were not required to), the runtime key filters their hash joins
    fired, the joins folded into the group-by above them, and the blocks
    their searches searched with order classes."""

    io_checked: int = 0
    io_equal: int = 0
    io_index_exempt: int = 0
    filters_fired: int = 0
    folds: int = 0
    ordered_searches: int = 0

    def add(self, other: "IOTally") -> None:
        self.io_checked += other.io_checked
        self.io_equal += other.io_equal
        self.io_index_exempt += other.io_index_exempt
        self.filters_fired += other.filters_fired
        self.folds += other.folds
        self.ordered_searches += other.ordered_searches


@dataclass
class RecheckTally:
    """The query texts of one session config re-run once its script
    ended, and how many of them the plan cache still answered: plans
    that outlived the script's later writes."""

    rechecked: int = 0
    survived: int = 0

    def add(self, other: "RecheckTally") -> None:
        self.rechecked += other.rechecked
        self.survived += other.survived


@dataclass
class Divergence:
    """One disagreement the harness found."""

    kind: str
    """``rows`` (config vs oracle), ``error`` (a config raised),
    ``oracle-error`` (the oracle raised), ``cost`` (no-worse guarantee
    violated), ``io`` (executed IO of an index-free plan differs from
    :func:`exact_io`), ``recheck`` (a session's re-run at the end of the
    script differs from a fresh plan's answer), ``setup-error`` (a
    non-query statement failed)."""
    stmt_index: int
    config: str
    detail: str

    @property
    def signature(self) -> Tuple[str, str]:
        """What the shrinker must preserve: same check, same config."""
        return (self.kind, self.config)

    def describe(self) -> str:
        return (
            f"[{self.kind}] statement #{self.stmt_index} "
            f"config={self.config}: {self.detail}"
        )


@dataclass
class CheckReport:
    """Everything one script check produced."""

    divergences: List[Divergence] = field(default_factory=list)
    queries_checked: int = 0
    configs_run: int = 0
    io: Dict[str, IOTally] = field(default_factory=dict)
    """Per config name: what the IO oracle checked."""
    recheck: Dict[str, RecheckTally] = field(default_factory=dict)
    """Per session config name: the end-of-script re-runs."""

    @property
    def ok(self) -> bool:
        return not self.divergences


def _session_query_outcome(
    session, sql: str, position: int, rel_tol: float
) -> QueryOutcome:
    """One query through the serving path: twice via the warm plan
    cache, then (literals permitting) once via PREPARE/EXECUTE.

    All three answers must agree; a cache miss on the immediate re-run
    or any disagreement becomes the outcome's error (reported as a
    divergence by ``check_script``). The first run's rows feed the
    standard oracle comparison.
    """
    from ..server.parameterize import parameterize_query

    outcome = QueryOutcome()
    try:
        first = session.execute(sql)
        second = session.execute(sql)
        outcome.io = [
            _io_check(run.query_result, session.db)
            for run in (first, second)
        ]
    except ReproError as error:
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.rows = [tuple(row) for row in first.rows]
    outcome.cost = first.query_result.estimated_cost
    if not second.cache_hit:
        outcome.error = "immediate re-execution missed the warm plan cache"
        return outcome
    second_rows = [tuple(row) for row in second.rows]
    if not rows_equal_bag(second_rows, outcome.rows, rel_tol=0.0):
        outcome.error = (
            f"plan-cache re-execution diverged: got "
            f"{_summarize(second_rows)}, expected "
            f"{_summarize(outcome.rows)}"
        )
        return outcome
    # Prepared replay: lift the outer literals to $1..$n. Skipped when
    # there is nothing to lift; a prepare-time rejection of the
    # parameterized form (e.g. a shape the optimizer only supports with
    # concrete constants) also skips — "where literals permit".
    try:
        with session.db.write_lock:
            bound = session.db.bind(sql)
    except ReproError:
        return outcome
    parameterized = parameterize_query(bound)
    if parameterized is None:
        return outcome
    query, values = parameterized
    name = f"fz_{position}"
    try:
        session.prepare_bound(name, query, sql=sql)
    except ReproError:
        return outcome
    try:
        third = session.execute_prepared(name, list(values))
        outcome.io.append(_io_check(third.query_result, session.db))
    except ReproError as error:
        outcome.error = (
            f"prepared execution failed: {type(error).__name__}: {error}"
        )
        return outcome
    finally:
        if name in session.prepared:
            session.deallocate(name)
    third_rows = [tuple(row) for row in third.rows]
    if not rows_equal_bag(third_rows, outcome.rows, rel_tol=rel_tol):
        outcome.error = (
            f"prepared execution diverged: got "
            f"{_summarize(third_rows)}, expected "
            f"{_summarize(outcome.rows)}"
        )
    return outcome


def _replay_session_config(
    script: Sequence[Stmt], config: EngineConfig, rel_tol: float
) -> Tuple[Dict[int, QueryOutcome], Optional[Divergence], Database]:
    """Replay the whole script through one :class:`Session`."""
    db = Database(config.params)
    outcomes: Dict[int, QueryOutcome] = {}
    with db.session(
        optimizer=config.optimizer, options=config.options
    ) as session:
        for position, stmt in enumerate(script):
            if stmt.kind == "query":
                outcomes[position] = _session_query_outcome(
                    session, stmt.render(), position, rel_tol
                )
                continue
            try:
                session.execute(stmt.render())
            except ReproError as error:
                return (
                    outcomes,
                    Divergence(
                        kind="setup-error",
                        stmt_index=position,
                        config=config.name,
                        detail=f"{type(error).__name__}: {error}",
                    ),
                    db,
                )
        _recheck_after_writes(session, config, script, outcomes, rel_tol)
    return outcomes, None, db


def _answer(
    session, sql: str
) -> Tuple[Optional[List[Tuple[Any, ...]]], bool, str]:
    """``(rows, cache_hit, error)`` of one statement; rows ``None`` and
    the error text when it raised."""
    try:
        result = session.execute(sql)
    except ReproError as error:
        return None, False, f"{type(error).__name__}: {error}"
    return [tuple(row) for row in result.rows], result.cache_hit, ""


def _recheck_after_writes(
    session,
    config: EngineConfig,
    script: Sequence[Stmt],
    outcomes: Dict[int, QueryOutcome],
    rel_tol: float,
) -> None:
    """Re-run every query text of *script* on the warm *session* once
    the whole script has run, then each on a session without the plan
    cache over the same database: a plan that outlived the script's
    later writes must answer as a fresh one does. Fills each outcome's
    ``survived`` and ``recheck_error``; a text both sessions refuse is
    not re-checked."""
    texts = [
        (position, stmt.render())
        for position, stmt in enumerate(script)
        if stmt.kind == "query"
    ]
    warm = [_answer(session, sql) for _, sql in texts]
    with session.db.session(
        optimizer=config.optimizer,
        options=config.options,
        use_plan_cache=False,
    ) as fresh_session:
        fresh = [_answer(fresh_session, sql) for _, sql in texts]
    for (position, _), (rows, hit, error), (expected, _, fresh_error) in zip(
        texts, warm, fresh
    ):
        if error and fresh_error:
            continue
        outcome = outcomes[position]
        outcome.survived = hit
        if rows is None or expected is None:
            outcome.recheck_error = (
                f"re-run after the script's writes: "
                f"{error or 'answered'}; a fresh plan: "
                f"{fresh_error or 'answered'}"
            )
        elif not rows_equal_bag(rows, expected, rel_tol=rel_tol):
            outcome.recheck_error = (
                f"re-run after the script's writes "
                f"({'cached' if hit else 'replanned'}) got "
                f"{_summarize(rows)}, a fresh plan {_summarize(expected)}"
            )


def _replay_config(
    script: Sequence[Stmt], config: EngineConfig, rel_tol: float = 1e-6
) -> Tuple[Dict[int, QueryOutcome], Optional[Divergence], Database]:
    """Replay the whole script under one configuration."""
    if config.session:
        return _replay_session_config(script, config, rel_tol)
    db = Database(config.params)
    outcomes: Dict[int, QueryOutcome] = {}
    for position, stmt in enumerate(script):
        if stmt.kind == "query":
            outcome = QueryOutcome()
            try:
                result = db.query(
                    stmt.render(),
                    optimizer=config.optimizer,
                    options=config.options,
                )
                outcome.rows = [tuple(row) for row in result.rows]
                outcome.cost = result.estimated_cost
                outcome.io.append(_io_check(result, db))
            except ReproError as error:
                outcome.error = f"{type(error).__name__}: {error}"
            outcomes[position] = outcome
        else:
            try:
                db.execute(stmt.render())
            except ReproError as error:
                return (
                    outcomes,
                    Divergence(
                        kind="setup-error",
                        stmt_index=position,
                        config=config.name,
                        detail=f"{type(error).__name__}: {error}",
                    ),
                    db,
                )
    return outcomes, None, db


def _summarize(rows: Sequence[Tuple[Any, ...]]) -> str:
    shown = ", ".join(repr(row) for row in list(rows)[:4])
    suffix = ", ..." if len(rows) > 4 else ""
    return f"{len(rows)} rows [{shown}{suffix}]"


def check_script(
    script: Sequence[Stmt],
    configs: Sequence[EngineConfig] = CONFIGS,
    rel_tol: float = 1e-6,
) -> CheckReport:
    """Cross-check one script across the config matrix and the oracles.

    Query comparisons use bag equality with *rel_tol* float tolerance;
    the generator's dyadic-rational data keeps true answers exact, so
    the tolerance only absorbs display-level float noise (e.g. AVG's
    final division).
    """
    report = CheckReport()

    # Baseline replay also serves the reference-evaluator oracle.
    baseline = configs[0]
    base_outcomes, setup_error, _ = _replay_config(
        script, baseline, rel_tol=rel_tol
    )
    report.configs_run += 1
    if setup_error is not None:
        report.divergences.append(setup_error)
        return report

    # Oracle replay: statements in order, queries captured. A separate
    # reference database replays alongside SQLite so brute-force oracle
    # answers reflect the state *at each query's position* (the
    # baseline database above has already run to the end).
    oracle_results: Dict[int, Tuple[str, Any]] = {}
    reference_db = Database()
    try:
        sqlite_oracle: Optional[SqliteOracle] = SqliteOracle()
    except OracleError as error:  # pragma: no cover - env-specific
        sqlite_oracle = None
        report.divergences.append(
            Divergence("oracle-error", -1, "sqlite", str(error))
        )
    try:
        for position, stmt in enumerate(script):
            if stmt.kind == "query":
                try:
                    oracle_results[position] = oracle_rows(
                        sqlite_oracle, reference_db, stmt.render()
                    )
                except (OracleError, ReproError) as error:
                    report.divergences.append(
                        Divergence(
                            "oracle-error",
                            position,
                            "sqlite",
                            f"{type(error).__name__}: {error}",
                        )
                    )
                continue
            try:
                reference_db.execute(stmt.render())
            except ReproError:
                pass  # the baseline replay already reported this
            if sqlite_oracle is not None:
                try:
                    sqlite_oracle.apply(stmt)
                except OracleError as error:
                    report.divergences.append(
                        Divergence(
                            "oracle-error", position, "sqlite", str(error)
                        )
                    )
                    sqlite_oracle = None
    finally:
        if sqlite_oracle is not None:
            sqlite_oracle.close()

    # Every config (baseline included) must match the oracle.
    all_outcomes: Dict[str, Dict[int, QueryOutcome]] = {
        baseline.name: base_outcomes
    }
    for config in configs[1:]:
        outcomes, setup_error, _ = _replay_config(
            script, config, rel_tol=rel_tol
        )
        report.configs_run += 1
        if setup_error is not None:
            report.divergences.append(setup_error)
            continue
        all_outcomes[config.name] = outcomes

    for position, stmt in enumerate(script):
        if stmt.kind != "query":
            continue
        report.queries_checked += 1
        oracle = oracle_results.get(position)
        for config_name, outcomes in all_outcomes.items():
            outcome = outcomes.get(position)
            if outcome is None:
                continue
            if outcome.survived is not None:
                recheck = report.recheck.setdefault(
                    config_name, RecheckTally()
                )
                recheck.rechecked += 1
                recheck.survived += outcome.survived
            if outcome.recheck_error is not None:
                report.divergences.append(
                    Divergence(
                        "recheck", position, config_name,
                        outcome.recheck_error,
                    )
                )
            if outcome.error is not None:
                report.divergences.append(
                    Divergence(
                        "error", position, config_name, outcome.error
                    )
                )
                continue
            tally = report.io.setdefault(config_name, IOTally())
            for exact, executed, indexed, fired, folds, ordered in (
                outcome.io
            ):
                tally.io_checked += 1
                tally.io_equal += exact == executed
                tally.io_index_exempt += indexed
                tally.filters_fired += fired
                tally.folds += folds
                tally.ordered_searches += ordered
                if exact != executed and not indexed:
                    report.divergences.append(
                        Divergence(
                            "io",
                            position,
                            config_name,
                            f"cost model under actual counts charges "
                            f"{exact:g} page IOs, execution {executed}",
                        )
                    )
            if oracle is None:
                continue
            oracle_name, expected = oracle
            assert outcome.rows is not None
            if not rows_equal_bag(
                outcome.rows, expected, rel_tol=rel_tol
            ):
                report.divergences.append(
                    Divergence(
                        "rows",
                        position,
                        config_name,
                        f"vs {oracle_name}: got "
                        f"{_summarize(outcome.rows)}, expected "
                        f"{_summarize(expected)}",
                    )
                )

        # No-worse guarantee: full cost <= traditional cost.
        full = all_outcomes.get("full-batch", {}).get(position)
        trad = all_outcomes.get("traditional-batch", {}).get(position)
        if (
            full is not None
            and trad is not None
            and full.cost is not None
            and trad.cost is not None
            and full.cost > trad.cost + COST_SLACK
        ):
            report.divergences.append(
                Divergence(
                    "cost",
                    position,
                    "full-batch",
                    f"full cost {full.cost:.6f} > traditional "
                    f"{trad.cost:.6f}",
                )
            )
    return report


__all__ = [
    "CONFIGS",
    "COST_SLACK",
    "CheckReport",
    "Divergence",
    "EngineConfig",
    "IOTally",
    "QueryOutcome",
    "RecheckTally",
    "check_script",
]
