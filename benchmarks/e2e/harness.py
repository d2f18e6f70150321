"""Noise discipline and the measured cycle.

What every run does, and why (probe numbers in README.md):

- **One CPU.** The run pins itself — and every child it forks, the
  ``serve()`` child included — to the highest-numbered allowed CPU.
  Client and server strictly alternate, so one CPU loses nothing and
  removes cross-core wake-ups.
- **Fixed work.** A run is warm-up, then ``BLOCKS`` blocks of P passes;
  P depends only on the workload and ``--seconds``, never on the clock.
- **Calibration.** Before and after every pass a fixed stdlib-only
  kernel is timed (twice, second kept). Machine speed switches between
  a fast and a ~1.6x slower mode within seconds, so every pass is scaled
  on its own: ``calibrated = raw * CALIB_REF_MS / mean(kernel before,
  kernel after)``. Every time-based end-to-end metric is the median over
  blocks of the block's statistic over calibrated passes.
- **Set-up** is timed in freshly forked, pinned children that straddle
  the run, and is not calibrated.
- Answers are digested and compared after the clock stops.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from math import ceil, exp, log
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import datagen
import oracle
import tracing
import workloads
from workloads import LEDGER, STATIC, PassPlan, Workload

CALIB_REF_MS = 0.9
"""The calibration kernel's time on this machine when quiet. Fixed with
the kernel: changing either re-bases every calibrated number."""

REFERENCE_SECONDS = 20
"""``--seconds`` at which a block has ``Workload.passes_per_block``."""

BLOCKS = 5
TRACED_BLOCKS = 2
REFERENCE_BLOCKS = 1
"""A traced run first measures this many untraced blocks in the same
process, so tracing overhead is a within-run ratio."""

CHILD_LIMIT_SECONDS = 170
"""Every forked child arms ``alarm()`` with this, so no child outlives
a run that died."""


# ----------------------------------------------------------------------
# Machine
# ----------------------------------------------------------------------


def pin() -> bool:
    """Pin this process (children inherit) to one CPU; best effort."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
        return True
    except (AttributeError, OSError):
        return False


def provenance(pinned: bool) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "pinned": pinned,
        "calib_ref_ms": CALIB_REF_MS,
    }


def _git_sha() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (the
    driver's checkout is not a repository: then ``None``)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


def calibration_kernel() -> int:
    """Dict probes, list appends, tuple builds and a sort — the mix the
    engine itself is made of — over a working set below 64 KB. This
    function never changes: it is the ruler."""
    acc = 0
    for _ in range(10):
        table: Dict[int, list] = {}
        for i in range(600):
            key = (i * 40503) & 127
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append((key, i))
            acc += len(bucket) ^ key
        rows = [(key, len(bucket)) for key, bucket in table.items()]
        rows.sort()
        acc += len(rows)
    return acc


def time_kernel() -> float:
    """Seconds for one kernel run; the first run only warms caches."""
    calibration_kernel()
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(fraction * len(ordered)) - 1)]


def passes_per_block(workload: Workload, seconds: float) -> int:
    """P, scaled from the reference run length. On a served workload it
    is a multiple of ``REFRESH_EVERY`` so every block holds the same
    number of inserts and refreshes."""
    step = workloads.REFRESH_EVERY if workload.served else 4
    scaled = workload.passes_per_block * seconds / REFERENCE_SECONDS
    return max(step, int(round(scaled / step)) * step)


class Block:
    """The samples of one block of passes.

    ``kernel_s[i]`` is the kernel timed just before pass *i* and
    ``kernel_s[i + 1]`` the one just after it, so every pass is scaled
    by the machine speed on both of its sides."""

    def __init__(self, first_statement: int) -> None:
        self.first_statement = first_statement
        self.pass_s: List[float] = []
        self.kernel_s: List[float] = [time_kernel()]
        self.statements = 0
        self.statement_s: Dict[str, List[float]] = {}
        self.shapes: List[str] = []
        self.wire_bytes = 0

    def calibrated_s(self) -> List[float]:
        reference = CALIB_REF_MS / 1000.0
        kernel = self.kernel_s
        return [
            elapsed * reference / ((kernel[i] + kernel[i + 1]) / 2.0)
            for i, elapsed in enumerate(self.pass_s)
        ]

    @property
    def factor(self) -> float:
        """Calibrated over raw seconds for the block as a whole: what
        the tracer's per-layer sums are scaled by."""
        return sum(self.calibrated_s()) / sum(self.pass_s)

    def summary(self) -> Dict[str, float]:
        calibrated = self.calibrated_s()
        return {
            "factor": self.factor,
            "calib_ms": statistics.median(self.kernel_s) * 1000.0,
            "raw_pass_p50_ms": statistics.median(self.pass_s) * 1000.0,
            "raw_pass_p90_ms": percentile(self.pass_s, 0.9) * 1000.0,
            "raw_stmts_per_s": self.statements / sum(self.pass_s),
            "pass_p50_ms": statistics.median(calibrated) * 1000.0,
            "pass_p90_ms": percentile(calibrated, 0.9) * 1000.0,
            "stmts_per_s": self.statements / sum(calibrated),
        }


def median_over_blocks(blocks: Sequence[Block]) -> Dict[str, float]:
    summaries = [block.summary() for block in blocks]
    return {
        key: statistics.median(s[key] for s in summaries)
        for key in summaries[0]
    }


# ----------------------------------------------------------------------
# Forked children
# ----------------------------------------------------------------------


def forked(function: Callable[[], Any]) -> Any:
    """Run *function* in a forked (hence pinned) child and return its
    JSON-serialisable result."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            signal.alarm(CHILD_LIMIT_SECONDS)
            payload = json.dumps(function())
            with os.fdopen(write_end, "w") as handle:
                handle.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as handle:
        payload = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked child failed with status {status}")
    return json.loads(payload)


def timed_setup(
    workload: Workload, data: Dict[str, List[datagen.Row]], seed: int
) -> float:
    """Seconds to build the database and run one cold pass."""
    cold_pass = workloads.cold_pass(workload, seed)
    start = perf_counter()
    session = workloads.open_session(workload, workloads.build_database(data))
    for statement in cold_pass:
        session.execute(statement.sql)
    return perf_counter() - start


# ----------------------------------------------------------------------
# Targets: where the Database lives
# ----------------------------------------------------------------------


class LocalTarget:
    """The database in this process, driven through one ``Session``."""

    def __init__(self, workload, data, seed, traced: bool) -> None:
        self.tracer = tracing.start(traced)
        self.db = workloads.build_database(data)
        self.session = workloads.open_session(workload, self.db)
        self._first = self.session.statements

    def execute(self, sql: str):
        return self.session.execute(sql)

    @staticmethod
    def unpack(answer) -> Tuple[list, int, Optional[bool]]:
        """(rows, executed page IO, plan-cache hit or None)."""
        result = answer.query_result
        io = result.executed_io.total if result is not None else 0
        hit = answer.cache_hit if answer.kind == "query" else None
        return answer.rows, io, hit

    def settle(self) -> None:
        gc.collect()
        gc.freeze()

    def close(self) -> Dict[str, Any]:
        report = _report(self.db, self.tracer)
        if self.tracer is not None:
            # PREPARE in open_session was statement 0 of this session.
            report["trace"]["rows"] = report["trace"]["rows"][self._first:]
        self.session.close()
        gc.unfreeze()
        return report


class ServedTarget:
    """The database in a forked ``serve()`` child; this process is the
    single closed-loop ``LineClient``."""

    def __init__(self, workload, data, seed, traced: bool) -> None:
        from repro.server.net import LineClient

        port_read, port_write = os.pipe()
        report_read, report_write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(port_read)
            os.close(report_read)
            _serve_child(workload, data, seed, traced, port_write, report_write)
        os.close(port_write)
        os.close(report_write)
        self._port_pipe = os.fdopen(port_read)
        self._report_pipe = os.fdopen(report_read)
        announce = self._port_pipe.readline()
        if ":" not in announce:
            self._reap()
            raise RuntimeError("serve() child did not announce a port")
        self.client = LineClient(port=int(announce.rsplit(":", 1)[1]))

    def execute(self, sql: str):
        return self.client.execute(sql)

    @staticmethod
    def unpack(answer) -> Tuple[list, int, Optional[bool]]:
        return answer[1], 0, None

    def settle(self) -> None:
        pass

    def _reap(self) -> None:
        self._port_pipe.close()
        self._report_pipe.close()
        os.waitpid(self.pid, 0)

    def close(self) -> Dict[str, Any]:
        self.client.close()
        os.kill(self.pid, signal.SIGINT)
        payload = self._report_pipe.read()
        self._reap()
        if not payload:
            raise RuntimeError("serve() child exited without a report")
        return json.loads(payload)


def _report(db, tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """What the process holding the database says when the cycle ends."""
    return {
        "peak_rss_mb": peak_rss_mb(),
        "plan_cache": db.plan_cache.as_dict(),
        "trace": tracer.table() if tracer is not None else None,
    }


def _serve_child(workload, data, seed, traced, port_write, report_write) -> None:
    """Body of the ``serve()`` child; never returns."""
    status = 1
    try:
        from repro.server.net import serve

        signal.alarm(CHILD_LIMIT_SECONDS)
        # A parent started with SIGINT ignored (a shell's background
        # job) would pass that on; serve() stops on KeyboardInterrupt.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        tracer = tracing.start(traced)
        db = workloads.build_database(data)
        gc.collect()
        gc.freeze()
        # serve() prints the port it bound; route that line to the parent.
        sys.stdout = os.fdopen(port_write, "w", buffering=1)
        serve(db, port=0)
        report = _report(db, tracer)
        # The paper's own cost, on the final (deterministic) database:
        # one pass of read statements through a local session.
        session = workloads.open_session(workload, db)
        report["page_io_per_pass"] = sum(
            session.execute(s.sql).query_result.executed_io.total
            for s in workloads.cold_pass(workload, seed)
        )
        with os.fdopen(report_write, "w") as handle:
            json.dump(report, handle)
        status = 0
    except BaseException:
        traceback.print_exc(file=sys.stderr)
    finally:
        os._exit(status)


# ----------------------------------------------------------------------
# The measured cycle
# ----------------------------------------------------------------------


class Cycle:
    """Everything one build-warm-measure cycle produced."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self.setup_s: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.page_io = 0
        self.passes = 0
        self.report: Dict[str, Any] = {}


def run_cycle(
    workload: Workload,
    seed: int,
    data: Dict[str, List[datagen.Row]],
    expected: Dict[str, oracle.Digest],
    blocks: int,
    passes: int,
    traced: bool = False,
    setups: bool = False,
) -> Cycle:
    """Build, warm up, then measure ``blocks`` x ``passes`` passes."""
    cycle = Cycle()
    plan = PassPlan(workload, seed)
    model = oracle.LedgerModel(workload.scale, seed, data["ledger"])
    ledger_digest = model.digest()
    target_class = ServedTarget if workload.served else LocalTarget
    target = target_class(workload, data, seed, traced)
    clock = perf_counter
    sent = 0
    index = 0

    def run_pass(block: Optional[Block]) -> None:
        nonlocal sent, index, ledger_digest
        statements = plan.statements(index)
        index += 1
        answers: List[Any] = []
        times: List[float] = []
        execute = target.execute
        start = clock()
        for statement in statements:
            began = clock()
            try:
                answers.append(execute(statement.sql))
            except Exception as error:
                answers.append(error)
            times.append(clock() - began)
        elapsed = clock() - start
        # ---- the clock has stopped: check every answer ----
        sent += len(statements)
        cycle.attempted += len(statements)
        for position, (statement, answer) in enumerate(zip(statements, answers)):
            problem = None
            if isinstance(answer, Exception):
                problem = f"raised {type(answer).__name__}: {answer}"
            else:
                rows, io, hit = target.unpack(answer)
                if block is not None:
                    cycle.page_io += io
                if statement.kind == STATIC:
                    want = expected[oracle.statement_key(statement)]
                    if oracle.digest(rows) != tuple(want):
                        problem = "answer differs from sqlite3"
                elif statement.kind == LEDGER:
                    if oracle.digest(rows) != ledger_digest:
                        problem = (
                            f"answer differs from the closed form after "
                            f"{model.batches} batches"
                        )
                elif statement.shape == workloads.INSERT_BATCH.name:
                    model.apply_batch(statement.literal)
                    ledger_digest = model.digest()
                if (
                    problem is None
                    and block is not None
                    and hit is not None
                    and workload.expect_cache is not None
                    and hit != (workload.expect_cache == "hit")
                ):
                    problem = f"plan cache did not {workload.expect_cache}"
                if traced and block is not None and workload.served:
                    block.wire_bytes += wire_bytes(statement.sql, answer)
            if problem is not None:
                cycle.failures.append(
                    f"{statement.shape} literal={statement.literal}: {problem}"
                )
            if traced and block is not None:
                block.statement_s.setdefault(statement.shape, []).append(
                    times[position]
                )
        if block is not None:
            block.pass_s.append(elapsed)
            block.statements += len(statements)
            if traced:
                block.shapes.extend(s.shape for s in statements)
            block.kernel_s.append(time_kernel())

    try:
        for _ in range(workload.warmup_passes):
            run_pass(None)
        target.settle()
        for _ in range(blocks):
            if setups:
                cycle.setup_s.append(
                    forked(lambda: timed_setup(workload, data, seed))
                )
            block = Block(first_statement=sent)
            cycle.blocks.append(block)
            for _ in range(passes):
                run_pass(block)
        cycle.passes = blocks * passes
    finally:
        cycle.report = target.close()
    return cycle


def wire_bytes(sql: str, answer: Tuple[List[str], List[tuple]]) -> int:
    """Bytes one statement put on the wire in both directions, from the
    line protocol's grammar (``repro.server.net``): the statement line;
    ``ok N``, a header line and N tab-separated rows; the ``.`` line."""
    columns, rows = answer
    total = len(sql.encode()) + 1
    total += len(f"ok {len(rows)}") + 1 + 2
    if columns:
        total += len("\t".join(columns)) + 1
        for row in rows:
            total += sum(2 if v is None else len(v) for v in row) + len(row)
    return total


# ----------------------------------------------------------------------
# Inputs shared by both kinds of run
# ----------------------------------------------------------------------


def prepare_inputs(workload: Workload, seed: int, total_passes: int):
    """Generated tables and sqlite's digests for every static statement
    the run will issue."""
    data = datagen.generate(workload.scale, seed)
    expected = forked(
        lambda: oracle.expected_digests(workload, data, seed, total_passes)
    )
    return data, expected


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return exp(sum(log(v) for v in positive) / len(positive))
