"""No dead definitions: every function and method ``src/repro`` defines
is named somewhere else in the repository's Python — a caller, a test,
a benchmark, an example (a mention in a docstring or comment counts;
a hook table that names it as a string counts too). A name must occur
more often than it is defined, so one that two classes define and
nothing calls is caught as well. Dunder methods are called by the
language and are exempt."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples")


def _definitions():
    """``(name, file:line)`` for every function and method in src/repro."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    definitions = list(_definitions())
    defined = Counter(name for name, _ in definitions)
    orphans = sorted(
        where
        for name, where in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= defined[name]
    )
    assert not orphans, f"defined but named nowhere else: {orphans}"
