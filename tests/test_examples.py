"""The example scripts' output, pinned byte for byte.

``tests/golden/examples.txt`` is what ``make -s examples`` prints: the
stdout of the five scripts under ``examples/``, in the Makefile's order.
Every number in it — plans, estimated costs, executed page IO — is
deterministic, so any change is a change in what the optimizer or the
engine does. Run as a script to regenerate it *on purpose*::

    python tests/test_examples.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "examples.txt"

# the Makefile's `examples` target, in order
SCRIPTS = (
    "quickstart.py",
    "crossover_study.py",
    "decision_support.py",
    "nested_subqueries.py",
    "transformations_walkthrough.py",
)


def examples_output() -> bytes:
    """The five scripts' stdout, concatenated, with this checkout's
    ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return b"".join(
        subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            check=True,
        ).stdout
        for script in SCRIPTS
    )


def test_examples_output_is_byte_identical():
    assert examples_output() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_bytes(examples_output())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
