"""One DP-extension protocol: what a new block-DP alternative must be
threaded through.

An alternative is one generator in ``optimizer.block.EXTENSIONS``, which
states the entry states it accepts and the state each of its joins
produces, plus one ``FINALIZATION`` row for every state it can reach;
``POLICIES`` names the generators of each ``early_grouping`` value. The
core — enumeration, costing, finalization — never asks which eager shape
an entry carries: an AST check keeps branches on the eager state inside
the generators and ``_prune``'s key, and the optimizer options inside
the one place that reads the policy.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.optimizer import block
from repro.optimizer.block import EXTENSIONS, FINALIZATION, LAZY, POLICIES
from repro.optimizer.options import EARLY_GROUPING, OptimizerOptions

BLOCK = Path(inspect.getsourcefile(block))

#: What names the eager state: an entry's ``state`` (or the two flags it
#: replaced) and the state constants.
STATE_ATTRIBUTES = {"state", "grouped", "carry"}
STATE_NAMES = {"LAZY", "PARTIAL", "CARRY", "PARTIAL_CARRY"}


def reachable_states(names):
    """Every state the generators *names* can produce from a leaf."""
    states, pending = {LAZY}, [LAZY]
    while pending:
        state = pending.pop()
        for name in names:
            for move in EXTENSIONS[name].moves:
                produced = move.get(state)
                if produced is not None and produced not in states:
                    states.add(produced)
                    pending.append(produced)
    return states


def test_every_reachable_state_has_a_finalization_row():
    """... and every row is reachable: a state no generator produces is
    dead code in the finalization, one without a row cannot finalize."""
    assert reachable_states(EXTENSIONS) == set(FINALIZATION)
    for extension in EXTENSIONS.values():
        for move in extension.moves:
            assert set(move) <= set(FINALIZATION)
            assert set(move.values()) <= set(FINALIZATION)


def test_policies_cover_the_option_and_the_table():
    assert set(POLICIES) == set(EARLY_GROUPING)
    used = set()
    for names in POLICIES.values():
        assert names[0] == "lazy"  # plan (1) is always generated first
        assert set(names) <= set(EXTENSIONS)
        used |= set(names)
    assert used == set(EXTENSIONS)
    assert reachable_states(POLICIES["off"]) == {LAZY}


def _functions(tree):
    """``(qualified name, node)`` for every function of *tree*."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _names_state(node):
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr in STATE_ATTRIBUTES)
        or (isinstance(sub, ast.Name) and sub.id in STATE_NAMES)
        for sub in ast.walk(node)
    )


def _branch_tests(function):
    """Every expression *function* branches on, and every comparison."""
    for node in ast.walk(function):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, (ast.Compare, ast.BoolOp)):
            yield node


def test_only_generators_and_prune_branch_on_the_eager_state():
    tree = ast.parse(BLOCK.read_text(), str(BLOCK))
    branching = {
        name
        for name, function in _functions(tree)
        if any(map(_names_state, _branch_tests(function)))
    }
    generators = {ext.generate.__name__ for ext in EXTENSIONS.values()}
    allowed = generators | {"BlockOptimizer._prune"}
    assert branching <= allowed, sorted(branching - allowed)
    # the check sees what it is meant to see
    assert {"_partial", "BlockOptimizer._prune"} <= branching


def test_block_reads_the_options_in_one_place():
    tree = ast.parse(BLOCK.read_text(), str(BLOCK))
    fields = {spec.name for spec in dataclasses.fields(OptimizerOptions)}
    readers = {
        name
        for name, function in _functions(tree)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and node.attr in fields
        and "options" in ast.unparse(node.value)
    }
    assert readers == {"_BlockContext.__init__"}
