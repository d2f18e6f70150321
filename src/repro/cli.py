"""Interactive SQL shell over an in-memory repro database.

Run with ``python -m repro`` (add ``--demo`` to preload the paper's
emp/dept example data, ``--stats`` to print the search counters and
each statement's time per layer, ``--no-view-rewrite`` to stop the
optimizer answering queries from materialized views). Statements end
with ``;``. Besides SQL, the shell understands a few backslash
commands:

=============== ====================================================
``\\d``          list tables and views
``\\d name``     describe one table (columns, keys, stats)
``\\dv``         list materialized views (state, groups, deps)
``\\e [level]``  set the optimizer level (traditional/greedy/full)
``\\i file``     run a script of ``;``-terminated SQL statements
``\\explain sql`` ``EXPLAIN sql``: the chosen plan, not executed
``\\analyze sql`` ``EXPLAIN ANALYZE sql``: plan with actual row counts
``\\q``          quit
=============== ====================================================
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional, TextIO

from .db import OPTIMIZERS, Database
from .errors import ReproError
from .optimizer.options import OptimizerOptions
from .sql.lexer import split_statements
from .workloads import EmpDeptConfig, build_empdept

PROMPT = "repro> "
CONTINUATION = "...... "


def make_demo_database() -> Database:
    """The paper's emp/dept schema with a small seeded instance."""
    return build_empdept(EmpDeptConfig(employees=1000, departments=40))


def format_rows(columns: List[str], rows: Iterable[tuple]) -> List[str]:
    """Psql-ish table rendering."""
    materialized = [
        [_show(value) for value in row] for row in rows
    ]
    widths = [len(name) for name in columns]
    for row in materialized:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))
    header = " | ".join(
        name.ljust(width) for name, width in zip(columns, widths)
    )
    rule = "-+-".join("-" * width for width in widths)
    lines = [header, rule]
    lines.extend(
        " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in materialized
    )
    lines.append(f"({len(materialized)} row"
                 f"{'s' if len(materialized) != 1 else ''})")
    return lines


def _show(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


class Shell:
    """One interactive session."""

    def __init__(
        self,
        database: Optional[Database] = None,
        out: TextIO = sys.stdout,
        show_stats: bool = False,
        view_rewrite: bool = True,
    ):
        self.db = database or Database()
        self.out = out
        self.optimizer = "full"
        self.show_stats = show_stats
        self.options: Optional[OptimizerOptions] = (
            None
            if view_rewrite
            else OptimizerOptions(enable_view_rewrite=False)
        )
        # The shell is one session on the database: statements go
        # through the plan cache and PREPARE/EXECUTE/DEALLOCATE work.
        self.session = self.db.session()

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------------
    # Command handling
    # ------------------------------------------------------------------

    def handle(self, statement: str) -> bool:
        """Process one backslash command, or the SQL statements of
        *statement* (the lexer finds their ends). Returns False to quit."""
        statement = statement.strip()
        try:
            if statement.startswith("\\"):
                return self._handle_meta(statement.rstrip("; "))
            self._run_statements(statement)
        except ReproError as error:
            self.write(f"error: {error}")
        return True

    def _handle_meta(self, statement: str) -> bool:
        command, _, argument = statement.partition(" ")
        argument = argument.strip()
        if command == "\\q":
            return False
        if command == "\\d":
            if argument:
                self._describe_table(argument)
            else:
                self._list_relations()
            return True
        if command == "\\dv":
            self._list_materialized_views()
            return True
        if command == "\\e":
            if argument:
                if argument not in OPTIMIZERS:
                    self.write(
                        f"unknown level {argument!r}; "
                        f"choose from {', '.join(OPTIMIZERS)}"
                    )
                else:
                    self.optimizer = argument
            self.write(f"optimizer level: {self.optimizer}")
            return True
        if command == "\\i":
            self._run_script(argument)
            return True
        if command == "\\explain":
            self._run_sql("explain " + argument)
            return True
        if command == "\\analyze":
            self._run_sql("explain analyze " + argument)
            return True
        self.write(
            f"unknown command {command!r} (try \\d, \\dv, \\e, \\i, \\q)"
        )
        return True

    def _run_script(self, path: str) -> None:
        """Execute a file of ';'-terminated statements (\\i file.sql)."""
        if not path:
            self.write("usage: \\i <file.sql>")
            return
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            self.write(f"cannot read {path!r}: {error}")
            return
        self._run_statements(text)

    def _run_statements(self, text: str) -> None:
        """Run each SQL statement of *text*; one failing does not stop
        the next (a script that cannot be lexed runs nothing)."""
        for sql in split_statements(text):
            try:
                self._run_sql(sql)
            except ReproError as error:
                self.write(f"error: {error}")

    def _run_sql(self, sql: str) -> None:
        self.session.optimizer = self.optimizer
        self.session.options = self.options
        session_result = self.session.execute(sql)
        self._write_result(session_result)
        if self.show_stats:
            self.write("trace: " + session_result.trace.format())

    def _write_result(self, session_result) -> None:
        if session_result.kind == "ddl":
            self.write("ok")
            self._write_cache_stats()
            return
        if session_result.kind in ("prepare", "deallocate"):
            self.write(
                f"{session_result.kind} {session_result.statement_name}"
            )
            return
        result = session_result.query_result
        if session_result.kind == "explain":
            for (line,) in session_result.rows:
                self.write(line)
            self._write_stats(result)
            return
        for line in format_rows(result.columns, result.rows):
            self.write(line)
        hit = " [plan cache hit]" if session_result.cache_hit else ""
        self.write(
            f"[{self.optimizer}] estimated {result.estimated_cost:.0f} / "
            f"executed {result.executed_io.total} page IOs{hit}"
        )
        self._write_stats(result)
        self._write_cache_stats()

    def _write_cache_stats(self) -> None:
        """The --stats serving panel: plan-cache counters and sessions."""
        if not self.show_stats:
            return
        cache = self.db.plan_cache.as_dict()
        parts = " ".join(f"{name}={value}" for name, value in cache.items())
        self.write(
            f"plan-cache: {parts} sessions_open={self.db.active_sessions} "
            f"sessions_total={self.db.sessions_opened}"
        )

    def _write_stats(self, result) -> None:
        """Print every search counter plus per-operator executor
        metrics (``--stats``). The search field list comes from
        ``SearchStats.as_dict()``, so new counters show up here without
        touching the shell; the executor section comes from
        ``ExecutionMetrics`` (rows, batches, wall-clock, spill IO per
        operator); the estimates section reports per-operator
        estimate-vs-actual q-error (1.0 = exact) after execution."""
        if not self.show_stats:
            return
        stats = result.optimization.stats.as_dict()
        parts = " ".join(f"{name}={value}" for name, value in stats.items())
        self.write("stats: " + parts)
        metrics = getattr(result, "exec_metrics", None)
        if metrics is not None and metrics.operators:
            self.write(
                f"exec: kernels_compiled={metrics.kernels_compiled}"
                f" cells={metrics.total_cells}"
            )
            for line in metrics.lines():
                self.write("  " + line)
        records = result.q_errors() if hasattr(result, "q_errors") else []
        if records:
            from .stats.feedback import median

            worst = max(record.q_error for record in records)
            mid = median([record.q_error for record in records])
            self.write(
                f"estimates: median q-error {mid:.2f}, worst {worst:.2f}"
            )
            for record in records:
                self.write(
                    "  " + "  " * record.depth
                    + f"est={record.estimated_rows:.0f} "
                    f"act={record.actual_rows} q={record.q_error:.2f}  "
                    + record.operator
                )

    def _list_relations(self) -> None:
        tables = self.db.catalog.table_names()
        views = self.db.catalog.view_names()
        materialized = set(self.db.catalog.materialized_view_names())
        if not tables and not views:
            self.write("no tables (start with --demo for sample data)")
        for name in tables:
            table = self.db.catalog.table(name)
            self.write(
                f"table {name} ({table.num_rows} rows, "
                f"{table.num_pages} pages)"
            )
        for name in views:
            if name in materialized:
                self.write(f"materialized view {name}")
            else:
                self.write(f"view {name}")

    def _list_materialized_views(self) -> None:
        views = self.db.catalog.materialized_views()
        if not views:
            self.write("no materialized views")
            return
        for view in views:
            self.write(view.describe())

    def _describe_table(self, name: str) -> None:
        if not self.db.catalog.has_table(name):
            self.write(f"no table named {name!r}")
            return
        table = self.db.catalog.table(name)
        stats = self.db.catalog.stats(name)
        primary_key = self.db.catalog.primary_key(name)
        self.write(f"table {name}:")
        if stats.sampled:
            self.write(
                f"  (statistics sampled: {stats.pages_scanned} of "
                f"{stats.page_count} pages)"
            )
        for column in table.columns:
            column_stats = stats.column(column.name)
            extra = ""
            if column_stats and column_stats.n_distinct:
                extra = f"  ndv={column_stats.n_distinct}"
                if column_stats.min_value is not None:
                    extra += (
                        f" range=[{column_stats.min_value}, "
                        f"{column_stats.max_value}]"
                    )
                if column_stats.null_count:
                    extra += f" nulls={column_stats.null_count}"
                if column_stats.mcvs:
                    extra += f" mcvs={len(column_stats.mcvs)}"
                if column_stats.histogram is not None:
                    extra += (
                        f" hist={column_stats.histogram.num_buckets}"
                    )
            marker = (
                " (pk)" if primary_key and column.name in primary_key else ""
            )
            self.write(f"  {column.name} {column.dtype.value}{marker}{extra}")
        for fk in self.db.catalog.foreign_keys(name):
            self.write(
                f"  fk ({', '.join(fk.columns)}) -> "
                f"{fk.ref_table}({', '.join(fk.ref_columns)})"
            )

    # ------------------------------------------------------------------
    # REPL loop
    # ------------------------------------------------------------------

    def run(self, source: TextIO) -> None:
        self.write(
            "repro shell — Chaudhuri & Shim, 'Optimizing Queries with "
            "Aggregate Views' (EDBT 1996)"
        )
        self.write("terminate statements with ';'  —  \\q quits, \\d lists")
        buffer: List[str] = []
        interactive = source is sys.stdin and sys.stdin.isatty()
        while True:
            if interactive:
                prompt = CONTINUATION if buffer else PROMPT
                try:
                    line = input(prompt)
                except EOFError:
                    break
            else:
                line = source.readline()
                if not line:
                    break
                line = line.rstrip("\n")
            buffer.append(line)
            text = "\n".join(buffer)
            if text.strip().startswith("\\") or text.rstrip().endswith(";"):
                buffer = []
                if not self.handle(text):
                    break
        self.write("bye")


def fuzz_main(argv: List[str]) -> int:
    """``python -m repro fuzz`` — run the differential fuzz loop.

    Exit codes: 0 clean, 1 divergences found, 2 bad arguments."""
    import argparse
    from pathlib import Path

    from .testing import PROFILES, FuzzConfigError, run_fuzz

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description=(
            "Differential fuzzing: generate seeded SQL scripts, replay "
            "them across the plan-space config matrix, compare every "
            "query against the SQLite / reference oracles, and every "
            "executed plan's page IO against the cost model's under the "
            "run's actual counts."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=20,
        help="number of consecutive seeds to run (default 20)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0,
        help="first seed (default 0)",
    )
    parser.add_argument(
        "--profile", default="default",
        help=f"generation profile: {', '.join(sorted(PROFILES))}",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap; stop starting new seeds after this long",
    )
    parser.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the JSON run report to PATH",
    )
    parser.add_argument(
        "--corpus", type=Path, default=None, metavar="DIR",
        help="write shrunk repros for any divergence into DIR",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="keep full diverging scripts instead of delta-debugging",
    )
    parser.add_argument(
        "--max-shrink-checks", type=int, default=200,
        help="budget of re-checks per shrink session (default 200)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-seed progress output",
    )
    try:
        options = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)

    def progress(seed, check):
        if options.quiet:
            return
        status = "ok" if check.ok else f"{len(check.divergences)} DIVERGENCES"
        print(
            f"seed {seed}: {check.queries_checked} queries "
            f"x {check.configs_run} configs: {status}"
        )

    try:
        report = run_fuzz(
            seeds=options.seeds,
            seed_base=options.seed_base,
            profile=options.profile,
            duration=options.duration,
            corpus_dir=options.corpus,
            shrink=not options.no_shrink,
            max_shrink_checks=options.max_shrink_checks,
            progress=progress,
        )
    except FuzzConfigError as error:
        print(f"fuzz: {error}", file=sys.stderr)
        return 2

    if options.report is not None:
        options.report.parent.mkdir(parents=True, exist_ok=True)
        options.report.write_text(report.to_json() + "\n")
    stopped = " (stopped by --duration)" if report.stopped_by_duration else ""
    print(
        f"fuzz[{report.profile}]: {report.seeds_run}/{report.seeds_planned} "
        f"seeds, {report.queries_checked} queries across {report.configs} "
        f"configs in {report.duration_seconds:.1f}s{stopped}"
    )
    for config, tally in report.io.items():
        recheck = report.recheck.get(config)
        print(
            f"  {config}: io_checked={tally.io_checked} "
            f"io_equal={tally.io_equal} "
            f"io_index_exempt={tally.io_index_exempt} "
            f"filters_fired={tally.filters_fired} "
            f"folds={tally.folds} "
            f"ordered_searches={tally.ordered_searches}"
            + (
                f" rechecked={recheck.rechecked} survived={recheck.survived}"
                if recheck is not None
                else ""
            )
        )
    if report.ok:
        print("no divergences")
        return 0
    for record in report.divergences:
        where = f" -> {record.corpus_path}" if record.corpus_path else ""
        print(
            f"DIVERGENCE seed={record.seed} kind={record.kind} "
            f"config={record.config}: {record.detail} "
            f"(shrunk {record.original_statements} -> "
            f"{record.shrunk_statements} statements){where}"
        )
    return 1


def serve_main(argv: List[str]) -> int:
    """``python -m repro serve`` — serve a database over the line
    protocol (see ``repro.server.net`` for the protocol)."""
    import argparse

    from .server.net import DEFAULT_HOST, DEFAULT_PORT, serve

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve an in-memory repro database over TCP.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--demo", action="store_true",
        help="preload the paper's emp/dept example data",
    )
    parser.add_argument(
        "--no-plan-cache", action="store_true",
        help="sessions bypass the shared plan cache",
    )
    try:
        options = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    database = make_demo_database() if options.demo else Database()
    serve(
        database,
        host=options.host,
        port=options.port,
        use_plan_cache=not options.no_plan_cache,
    )
    return 0


def connect_main(argv: List[str]) -> int:
    """``python -m repro connect`` — interactive line-protocol client."""
    import argparse

    from .server.net import DEFAULT_HOST, DEFAULT_PORT, connect

    parser = argparse.ArgumentParser(
        prog="python -m repro connect",
        description="Connect to a running repro server.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    try:
        options = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    return connect(options.host, options.port)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro``; ``--demo`` preloads emp/dept."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "connect":
        return connect_main(argv[1:])
    database = None
    show_stats = False
    view_rewrite = True
    if "--demo" in argv:
        argv.remove("--demo")
        database = make_demo_database()
    if "--stats" in argv:
        argv.remove("--stats")
        show_stats = True
    if "--no-view-rewrite" in argv:
        argv.remove("--no-view-rewrite")
        view_rewrite = False
    if argv:
        print(f"unknown arguments: {argv}", file=sys.stderr)
        print(
            "usage: python -m repro [--demo] [--stats] [--no-view-rewrite]",
            file=sys.stderr,
        )
        return 2
    Shell(database, show_stats=show_stats, view_rewrite=view_rewrite).run(
        sys.stdin
    )
    return 0
