"""``run.py selftest``: the benchmark checking itself (< 60 s).

Each ``check_*`` function raises ``AssertionError`` with a message; the
same functions are collected by ``python -m pytest benchmarks/e2e -q``
through ``test_selftest.py``.
"""

from __future__ import annotations

import json
import pathlib
import re
import traceback
from typing import Callable, Dict, List, Tuple

import compare
import datagen
import harness
import metrics
import oracle
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE = ("--blocks", "1", "--passes", "8")
IN_PROCESS = ("dss_exec", "plan_cold", "point_lookup")

TINY_DIGEST = "88613c14"
"""``data_digest`` of the TINY instance for ``DEFAULT_SEED``: pins the
generator, so 'same seed, same inputs' also holds across commits."""


def check_manifest_matches_code() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {
        "workloads": [w["name"] for w in manifest["workloads"]],
        "end_to_end": [
            (m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]
        ],
        "per_layer": [
            (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
        ],
    }
    assert listed["workloads"] == list(workloads.WORKLOADS), listed["workloads"]
    assert listed["end_to_end"] == list(metrics.END_TO_END), "end_to_end differs"
    assert listed["per_layer"] == list(metrics.PER_LAYER), "per_layer differs"
    names = listed["workloads"] + [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    for name in names:
        assert NAME.fullmatch(name), f"bad name {name!r}"
    assert len(set(names)) == len(names), "a name is used twice"
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == harness.REFERENCE_SECONDS


def check_hooks_resolve() -> None:
    for _, module_name, attribute in tracing.HOOKS:
        owner = tracing.resolve_owner(module_name, attribute)
        name = attribute.rsplit(".", 1)[-1]
        assert owner is not None and callable(getattr(owner, name, None)), (
            f"hook target {module_name}.{attribute} is gone"
        )


def check_data_is_seeded_and_shape_invariant() -> None:
    first = datagen.generate(datagen.TINY, workloads.DEFAULT_SEED)
    again = datagen.generate(datagen.TINY, workloads.DEFAULT_SEED)
    other = datagen.generate(datagen.TINY, workloads.HELD_OUT_SEED)
    assert datagen.data_digest(first) == datagen.data_digest(again)
    assert datagen.data_digest(first) == TINY_DIGEST, datagen.data_digest(first)
    assert datagen.data_digest(first) != datagen.data_digest(other)
    for table in first:
        assert len(first[table]) == len(other[table]), table
        for a, b in zip(zip(*first[table]), zip(*other[table])):
            assert sorted(a) == sorted(b), f"{table}: a column's multiset moved"


def check_arithmetic() -> None:
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 0.9) == 90.0
    assert harness.percentile(values, 0.5) == 50.0
    assert harness.percentile([3.0], 0.9) == 3.0
    block = harness.Block(first_statement=0)
    reference = harness.CALIB_REF_MS / 1000.0
    # Six passes at reference speed, then the machine halves its speed:
    # raw times double, calibrated times must not move.
    block.pass_s = [0.010] * 6 + [0.020] * 4
    block.kernel_s = [reference] * 7 + [2 * reference] * 4
    block.statements = 80
    summary = block.summary()
    assert abs(summary["raw_pass_p50_ms"] - 10.0) < 1e-9
    assert abs(summary["raw_pass_p90_ms"] - 20.0) < 1e-9
    assert abs(summary["pass_p50_ms"] - 10.0) < 1e-9
    assert abs(summary["pass_p90_ms"] - 10.0) < 1e-9
    # the pass that straddles the switch is scaled by the mean kernel
    assert abs(max(block.calibrated_s()) - 0.020 / 1.5) < 1e-12
    calibrated_total = 0.010 * 6 + 0.020 / 1.5 + 0.010 * 3
    assert abs(summary["stmts_per_s"] - 80 / calibrated_total) < 1e-6
    assert abs(summary["factor"] - calibrated_total / 0.140) < 1e-12
    assert harness.passes_per_block(workloads.WORKLOADS["serve_mixed"], 20) % 16 == 0
    assert abs(harness.geomean([1.0, 4.0]) - 2.0) < 1e-12
    assert compare.spread([10.0] * 10) == 0.0
    assert compare.worsening("higher", 100.0, 90.0) == 0.1
    steady = [100.0 + 0.1 * i for i in range(10)]
    faster = [v * 0.8 for v in steady]
    assert compare.verdict("lower", 0.05, steady, faster) == "improved"
    assert compare.verdict("lower", 0.05, steady, [v * 1.2 for v in steady]) == "regressed"
    assert compare.verdict("lower", 0.05, steady, steady) == "unchanged"
    noisy = [100.0, 120.0, 80.0, 130.0, 70.0, 100.0, 125.0, 75.0, 110.0, 90.0]
    assert compare.verdict("lower", 0.05, noisy, noisy) == "unresolved"


def check_ledger_closed_form_equals_sqlite() -> None:
    scale, seed = datagen.TINY, workloads.DEFAULT_SEED
    data = datagen.generate(scale, seed)
    connection = oracle.load_sqlite(data)
    model = oracle.LedgerModel(scale, seed, data["ledger"])
    for batch in range(0, 4):
        if batch:
            rows = datagen.ledger_batch(scale, seed, batch)
            connection.executemany("insert into ledger values (?, ?, ?)", rows)
            model.apply_batch(batch)
        want = oracle.digest(connection.execute(workloads.MATVIEW_SQL).fetchall())
        assert model.digest() == want, f"after {batch} batches"
    connection.close()


def check_oracle_catches_a_wrong_answer() -> None:
    assert oracle.digest([(1, 2), (3, None)]) == oracle.digest([("3", None), ("1", "2")])
    assert oracle.digest([(1, 2)]) != oracle.digest([(1, 3)])
    assert oracle.digest([(1, 2)]) != oracle.digest([(1, 2), (1, 2)])


def _smoke(workload: str, trace: int) -> Tuple[Dict, Dict]:
    return compare.spawn_run(workload, trace, extra=SMOKE)


def check_plan_cache_assertions() -> None:
    _, cold = _smoke("plan_cold", 0)
    assert cold["plan_cache"]["hits"] == 0, cold["plan_cache"]
    _, point = _smoke("point_lookup", 0)
    texts = 3 * workloads.HOT_KEYS
    assert point["plan_cache"]["misses"] == texts, point["plan_cache"]
    assert point["plan_cache"]["evictions"] == 0, point["plan_cache"]


def check_counts_repeat_exactly() -> None:
    for workload in IN_PROCESS:
        untraced = [_smoke(workload, 0)[0]["metrics"] for _ in range(2)]
        assert (
            untraced[0]["page_io_per_pass"] == untraced[1]["page_io_per_pass"]
        ), f"{workload}: page_io_per_pass moved between same-seed runs"
        traced = [_smoke(workload, 1)[0]["metrics"] for _ in range(2)]
        for name in ("sql.tokens", "engine.rows_out", "storage.page_reads"):
            assert traced[0][name] == traced[1][name], f"{workload}: {name} moved"
        assert traced[0]["harness.hooks_missing"]["value"] == 0
        assert set(traced[0]) == {name for name, _, _ in metrics.PER_LAYER}
        assert set(untraced[0]) == {name for name, *_ in metrics.END_TO_END}


def check_served_workload_runs_and_stops() -> None:
    result, detail = _smoke("serve_mixed", 1)
    assert result["failed"] == 0
    assert result["metrics"]["server.wire_bytes"]["value"] > 0
    assert result["metrics"]["server.plancache_invalidations"]["value"] > 0
    assert result["metrics"]["harness.hooks_missing"]["value"] == 0


CHECKS: List[Callable[[], None]] = [
    check_manifest_matches_code,
    check_hooks_resolve,
    check_data_is_seeded_and_shape_invariant,
    check_arithmetic,
    check_ledger_closed_form_equals_sqlite,
    check_oracle_catches_a_wrong_answer,
    check_plan_cache_assertions,
    check_counts_repeat_exactly,
    check_served_workload_runs_and_stops,
]


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"PASS {check.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL {check.__name__}")
            traceback.print_exc()
    print(f"selftest: {len(CHECKS) - failed} passed, {failed} failed")
    return 1 if failed else 0
