"""The fuzz loop: generate → cross-check → shrink → report.

One *run* iterates seeds, generates a script per seed
(:mod:`sqlgen`), replays it across the metamorphic config matrix and
the oracles (:mod:`metamorphic`), and on divergence delta-debugs the
script down to a minimal repro (:mod:`shrink`) which is written to the
regression corpus as a self-contained ``.sql`` file.

Profiles bound the scale (``smoke`` for CI, ``default`` for local
runs, ``deep`` for nightly soak); a wall-clock ``duration`` cap can
stop a run early — the report records how far it got.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..sql import ddl
from ..sql.lexer import split_statements
from .metamorphic import CONFIGS, IOTally, RecheckTally, check_script
from .shrink import shrink_script
from .sqlgen import GenProfile, Stmt, generate_script, render_script

PROFILES: Dict[str, GenProfile] = {
    "smoke": GenProfile(
        name="smoke",
        max_tables=2,
        min_rows=5,
        max_rows=25,
        queries=3,
        matview_prob=0.5,
        with_view_prob=0.2,
    ),
    "default": GenProfile(name="default"),
    "deep": GenProfile(
        name="deep",
        max_tables=3,
        min_rows=30,
        max_rows=120,
        queries=10,
        matview_prob=0.75,
        with_view_prob=0.35,
        holistic_prob=0.12,
    ),
}


class FuzzConfigError(ReproError):
    """Bad fuzz parameters (unknown profile, bad seed range, ...)."""


def resolve_profile(name: str) -> GenProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise FuzzConfigError(
            f"unknown fuzz profile {name!r} "
            f"(choose from {', '.join(sorted(PROFILES))})"
        )


@dataclass
class DivergenceRecord:
    """One confirmed divergence, with its shrunk repro."""

    seed: int
    kind: str
    config: str
    detail: str
    script_sql: str
    shrunk_statements: int
    original_statements: int
    corpus_path: Optional[str] = None


@dataclass
class FuzzReport:
    """JSON-serializable summary of one fuzz run."""

    profile: str
    seeds_planned: int
    seeds_run: int = 0
    queries_checked: int = 0
    configs: int = len(CONFIGS)
    duration_seconds: float = 0.0
    stopped_by_duration: bool = False
    divergences: List[DivergenceRecord] = field(default_factory=list)
    io: Dict[str, IOTally] = field(default_factory=dict)
    """Per config: the executed plans the IO oracle checked
    (:class:`~repro.testing.metamorphic.IOTally`)."""
    recheck: Dict[str, RecheckTally] = field(default_factory=dict)
    """Per session config: the end-of-script re-runs
    (:class:`~repro.testing.metamorphic.RecheckTally`)."""

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _corpus_name(seed: int, kind: str, config: str) -> str:
    slug = config.replace("/", "-")
    return f"fuzz_seed{seed}_{kind}_{slug}.sql"


def write_corpus_case(
    directory: Path,
    seed: int,
    profile: str,
    script: Sequence[Stmt],
    kind: str,
    config: str,
    detail: str,
) -> Path:
    """Write one shrunk repro as a self-contained ``.sql`` file."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _corpus_name(seed, kind, config)
    header = (
        f"-- fuzz repro: seed={seed} profile={profile}\n"
        f"-- divergence: kind={kind} config={config}\n"
        + "".join(
            f"-- {line}\n" for line in detail.splitlines()
        )
    )
    path.write_text(header + render_script(script))
    return path


_KINDS = {
    ddl.CreateMaterializedViewStmt: "matview",
    ddl.CreateTableStmt: "create",
    ddl.CreateIndexStmt: "index",
    ddl.InsertStmt: "insert",
    ddl.RefreshMaterializedViewStmt: "refresh",
    ddl.AnalyzeStmt: "analyze",
    type(None): "query",
}


def classify_statement(sql: str) -> str:
    """Statement kind of one corpus SQL string (mirrors the
    generator's kinds so oracles replay corpus files identically)."""
    return _KINDS[type(ddl.maybe_parse_ddl(sql))]


def load_corpus_script(path: Path) -> List[Stmt]:
    """Parse one corpus ``.sql`` file back into a replayable script."""
    return [
        Stmt(classify_statement(sql), sql)
        for sql in split_statements(path.read_text())
    ]


def run_fuzz(
    seeds: int,
    seed_base: int = 0,
    profile: str = "default",
    duration: Optional[float] = None,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
    max_shrink_checks: int = 200,
    progress=None,
) -> FuzzReport:
    """Run the differential fuzz loop over ``seeds`` consecutive seeds.

    Returns a :class:`FuzzReport`; divergences (if any) carry shrunk
    self-contained repro scripts, optionally written to *corpus_dir*.
    """
    if seeds < 1:
        raise FuzzConfigError("seeds must be >= 1")
    gen_profile = resolve_profile(profile)
    report = FuzzReport(profile=profile, seeds_planned=seeds)
    started = time.monotonic()

    for seed in range(seed_base, seed_base + seeds):
        if duration is not None and time.monotonic() - started > duration:
            report.stopped_by_duration = True
            break
        script = generate_script(seed, gen_profile)
        check = check_script(script)
        report.seeds_run += 1
        report.queries_checked += check.queries_checked
        for config, tally in check.io.items():
            report.io.setdefault(config, IOTally()).add(tally)
        for config, recheck in check.recheck.items():
            report.recheck.setdefault(config, RecheckTally()).add(recheck)
        if progress is not None:
            progress(seed, check)
        if check.ok:
            continue

        # One record per distinct signature: shrink against the first
        # divergence of each (kind, config) pair.
        seen_signatures = set()
        for divergence in check.divergences:
            signature = divergence.signature
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            shrunk: List[Stmt] = list(script)
            if shrink:

                def recheck(candidate: List[Stmt]):
                    result = check_script(candidate)
                    for item in result.divergences:
                        if item.signature == signature:
                            return signature
                    return None

                try:
                    shrunk = shrink_script(
                        script, recheck, max_checks=max_shrink_checks
                    )
                except ValueError:
                    shrunk = list(script)  # flaky repro: keep whole
            record = DivergenceRecord(
                seed=seed,
                kind=divergence.kind,
                config=divergence.config,
                detail=divergence.detail,
                script_sql=render_script(shrunk),
                shrunk_statements=len(shrunk),
                original_statements=len(script),
            )
            if corpus_dir is not None:
                path = write_corpus_case(
                    Path(corpus_dir),
                    seed,
                    profile,
                    shrunk,
                    divergence.kind,
                    divergence.config,
                    divergence.detail,
                )
                record.corpus_path = str(path)
            report.divergences.append(record)

    report.duration_seconds = time.monotonic() - started
    return report


__all__ = [
    "PROFILES",
    "DivergenceRecord",
    "FuzzConfigError",
    "FuzzReport",
    "classify_statement",
    "load_corpus_script",
    "resolve_profile",
    "run_fuzz",
    "write_corpus_case",
]
