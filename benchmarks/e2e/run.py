"""End-to-end benchmark: one command, four workloads, pass-level metrics
and a per-layer trace. See README.md beside this file.

    python3 benchmarks/e2e/run.py                       every workload, every metric
    python3 benchmarks/e2e/run.py --workload W --trace 0|1 [--seed S] [--seconds N]
    python3 benchmarks/e2e/run.py --smoke               all workloads, tiny, answers checked
    python3 benchmarks/e2e/run.py aa [--runs N]         two sets of the same code
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py selftest

One run is one process: its last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries provenance and raw (uncalibrated) values.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

SMOKE_PASSES = 20


def _bootstrap() -> None:
    """Pin hashing, then make ``repro`` and this directory importable."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found: nothing to measure")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "mode",
        nargs="?",
        default="run",
        choices=("run", "aa", "compare", "selftest"),
    )
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="aa: runs per set")
    parser.add_argument("--out", help="aa: directory for A.json and B.json")
    parser.add_argument(
        "--other", help="aa: root of another checkout to run as set B"
    )
    parser.add_argument("--blocks", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One run (one process)
# ----------------------------------------------------------------------


def run_one(arguments: argparse.Namespace) -> int:
    import harness
    import metrics
    import workloads

    workload = workloads.WORKLOADS.get(arguments.workload)
    if workload is None:
        sys.exit(
            f"error: unknown workload {arguments.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})"
        )
    seed = workloads.DEFAULT_SEED if arguments.seed is None else arguments.seed
    seconds = arguments.seconds or harness.REFERENCE_SECONDS
    passes = arguments.passes or harness.passes_per_block(workload, seconds)
    traced = bool(arguments.trace)
    blocks = arguments.blocks or (
        harness.TRACED_BLOCKS if traced else harness.BLOCKS
    )
    reference_blocks = arguments.blocks or harness.REFERENCE_BLOCKS
    pinned = harness.pin()

    most_blocks = max(blocks, reference_blocks)
    data, expected = harness.prepare_inputs(
        workload, seed, workload.warmup_passes + most_blocks * passes
    )
    if traced:
        reference = harness.run_cycle(
            workload, seed, data, expected, reference_blocks, passes
        )
        cycle = harness.run_cycle(
            workload, seed, data, expected, blocks, passes, traced=True
        )
        values = metrics.per_layer(workload, reference, cycle)
        detail = {}
        cycles = (reference, cycle)
    else:
        cycle = harness.run_cycle(
            workload, seed, data, expected, blocks, passes, setups=True
        )
        values, detail = metrics.end_to_end(cycle)
        cycles = (cycle,)

    attempted = sum(c.attempted for c in cycles)
    failures = [failure for c in cycles for failure in c.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    detail.update(
        workload=workload.name,
        seed=seed,
        trace=int(traced),
        blocks=blocks,
        passes_per_block=passes,
        provenance=harness.provenance(pinned),
        claim=None,
    )
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": values,
            }
        )
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------


def run_everything(arguments: argparse.Namespace) -> int:
    """Every workload, untraced then traced; every metric by name."""
    import workloads
    from compare import spawn_run

    extra = []
    if arguments.smoke:
        extra = ["--blocks", "1", "--passes", str(SMOKE_PASSES)]
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, detail = spawn_run(
                name, trace, arguments.seed, arguments.seconds, extra
            )
            provenance = detail["provenance"]
            print(
                f"== {name} trace={trace} seed={detail['seed']} "
                f"blocks={detail['blocks']}x{detail['passes_per_block']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"pinned={provenance['pinned']}"
            )
            for metric, entry in result["metrics"].items():
                print(f"{metric:42s} {entry['value']:16.6f} {entry['unit']}")
    return 0


def main(argv=None) -> int:
    _bootstrap()
    arguments = parse_arguments(argv)
    if arguments.mode == "aa":
        import compare

        return compare.aa(
            arguments.runs, arguments.seed, arguments.out, arguments.other
        )
    if arguments.mode == "compare":
        import compare

        if len(arguments.files) != 2:
            sys.exit("error: compare takes two files: A.json B.json")
        return compare.compare_files(*arguments.files)
    if arguments.mode == "selftest":
        import selftest

        return selftest.main()
    if arguments.workload is None:
        return run_everything(arguments)
    return run_one(arguments)


if __name__ == "__main__":
    sys.exit(main())
