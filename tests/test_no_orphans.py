"""No dead definitions: every function and method ``src/repro`` defines
is named somewhere else in the repository's Python outside the tests —
a caller, a benchmark, an example (a mention in a docstring or comment
counts; a hook table that names it as a string counts too). A name
named only by tests is code kept alive for its test. A name must occur
more often than it is defined, so one that two classes define and
nothing calls is caught as well. Dunder methods are called by the
language and are exempt, and so is the public ``Database`` facade API
in :data:`FACADE`. Likewise no dead knobs: every configuration field is
set by some caller outside the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "benchmarks", "examples")

#: Public ``Database`` / ``Result`` API that a user of the library calls
#: and nothing in the repository needs to: view DDL without SQL and a
#: result's rows as dictionaries.
FACADE = {"create_view", "drop_view", "as_dicts"}


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
        and name not in FACADE
        and words[name] <= defined[name]
    )
    assert not orphans, f"defined but named nowhere else: {orphans}"


#: Configuration classes and the files that define them.
CONFIG_CLASSES = {
    "OptimizerOptions": "src/repro/optimizer/options.py",
    "CostParams": "src/repro/cost/params.py",
    "StatsConfig": "src/repro/stats/config.py",
}


def _config_fields():
    """``(class, field)`` for every field of the configuration classes."""
    for name, where in CONFIG_CLASSES.items():
        tree = ast.parse((ROOT / where).read_text())
        (cls,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == name
        ]
        for node in cls.body:
            if isinstance(node, ast.AnnAssign):
                yield name, node.target.id


def _counted_files():
    """``src/repro`` outside ``src/repro/testing``, and the paper's
    experiments."""
    testing = ROOT / "src" / "repro" / "testing"
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if testing not in path.parents:
            yield path
    yield ROOT / "benchmarks" / "experiments.py"


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _fields_set():
    """Field names the counted files set: a key of ``LEVELS``, or a
    keyword of a configuration constructor or ``dataclasses.replace``
    call (one passed on to any other callee does not count)."""
    callees = set(CONFIG_CLASSES) | {"replace"}
    found = set()
    for path in _counted_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _callee(node) in callees:
                found.update(keyword.arg for keyword in node.keywords)
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            if any(
                isinstance(target, ast.Name) and target.id == "LEVELS"
                for target in targets
            ) and isinstance(node.value, ast.Dict):
                for forced in node.value.values:
                    found.update(
                        key.value
                        for key in forced.keys
                        if isinstance(key, ast.Constant)
                    )
    return found


def test_every_config_field_has_a_caller():
    """A value only tests vary is a constant, not a knob: every field of
    ``OptimizerOptions``, ``CostParams`` and ``StatsConfig`` is set by a
    level, a constructor or a ``replace`` in ``src/repro`` (outside the
    fuzz harness) or in ``benchmarks/experiments.py``."""
    found = _fields_set()
    unset = sorted(
        f"{cls}.{field}"
        for cls, field in _config_fields()
        if field not in found
    )
    assert not unset, f"fields no caller outside the tests sets: {unset}"
