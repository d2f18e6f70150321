"""Support for the cost-first DP tests (``test_cost_first_dp.py`` and
the oracle case of ``test_property_optimizer.py``).

- The pinned statement corpus: the 13 ``dss_exec`` / ``plan_cold``
  texts of the end-to-end benchmark plus every statement the
  ``examples/`` scripts optimize.
- :class:`BuildEverythingOptimizer`, the test-only oracle: the same DP
  with every join candidate built and annotated as a node before
  pruning — what the enumerator did before it costed candidates as
  scalars.
- :class:`OrderedOptimizer`, the test-only reference of the collapsed
  search: the same DP with every block searched with its interesting-
  order classes, sort-merge joins and sort group-bys, as every block
  was before blocks within memory dropped them.
- :func:`second_search`, the other test-only oracle: the independent
  traditional search ``optimize_query`` ran for its no-worse baseline
  before it read that plan out of its own DP table
  (``tests/test_single_search.py``) — ``optimize_traditional`` itself —
  with :func:`every_optimize_query` and :func:`pruned_plans` to observe
  a search from outside.
- :func:`sqlite_copy`, the answer oracle for statements over those
  databases too large for the brute-force evaluator.

Run as a script to (re)generate the golden file — from the commit whose
plans are to be pinned::

    PYTHONPATH=src python tests/dp_support.py > tests/golden/plans_pr15.txt
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sqlite3
import sys
from pathlib import Path
from typing import Callable, Iterator, List, Tuple
from unittest import mock

import repro.db
from repro.algebra.plan import JoinNode, PlanNode, explain
from repro.db import Database
from repro.optimizer import (
    OptimizationResult,
    canonical,
    optimize_traditional,
)
from repro.optimizer.block import BlockOptimizer, _Entry

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
EXAMPLES = (
    "quickstart",
    "crossover_study",
    "decision_support",
    "nested_subqueries",
    "transformations_walkthrough",
)
COLD_LITERAL_OFFSET = 7
"""Every ``plan_cold`` shape is pinned at ``literal_base + 7``."""


def _e2e_modules():
    """``benchmarks/e2e`` imports its siblings by bare name."""
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    import datagen
    import workloads

    return datagen, workloads


def e2e_statements() -> Iterator[Tuple[str, Database, str]]:
    """``(label, database, sql)`` for the 8 + 5 benchmark texts, each
    on the scale its workload runs at."""
    datagen, workloads = _e2e_modules()
    seed = workloads.DEFAULT_SEED
    for name, shapes in (
        ("dss_exec", workloads.DSS_SHAPES),
        ("plan_cold", workloads.COLD_SHAPES),
    ):
        scale = workloads.WORKLOADS[name].scale
        db = workloads.build_database(datagen.generate(scale, seed))
        for shape in shapes:
            sql = shape.sql.format(k=shape.literal_base + COLD_LITERAL_OFFSET)
            yield f"{name}/{shape.name}", db, sql


def sqlite_copy(db: Database) -> sqlite3.Connection:
    """*db*'s stored tables in an in-memory sqlite3 database: the answer
    oracle for statements whose brute-force evaluation (a cross product
    of every table) would not finish."""
    connection = sqlite3.connect(":memory:")
    for name in db.catalog.table_names():
        table = db.catalog.table(name)
        names = [column.name for column in table.columns]
        connection.execute(f"create table {name} ({', '.join(names)})")
        connection.executemany(
            f"insert into {name} values ({', '.join('?' for _ in names)})",
            table.rows,
        )
    return connection


def run_examples(on_optimized: Callable[[str, object], None]) -> None:
    """Run every example script's ``main()`` (output discarded),
    reporting each ``Database.optimize_bound`` result in call order as
    ``on_optimized(label, OptimizationResult, Database)``."""
    original = Database.optimize_bound
    for name in EXAMPLES:
        spec = importlib.util.spec_from_file_location(
            f"_example_{name}", ROOT / "examples" / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        calls: List[int] = []

        def recording(self, query, optimizer="full", options=None):
            result = original(self, query, optimizer, options)
            calls.append(1)
            on_optimized(
                f"examples/{name}#{len(calls)}:{optimizer}", result, self
            )
            return result

        Database.optimize_bound = recording
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                module.main()
        finally:
            Database.optimize_bound = original


def pinned_plans() -> List[Tuple[str, str, float]]:
    """``(label, explain text, cost)`` for the whole corpus."""
    out: List[Tuple[str, str, float]] = []
    for label, db, sql in e2e_statements():
        result = db.optimize(sql)
        out.append((label, explain(result.plan), result.cost))
    run_examples(
        lambda label, result, db: out.append(
            (label, explain(result.plan), result.cost)
        )
    )
    return out


def rebuilt_join(node: JoinNode) -> JoinNode:
    """*node* re-made through the public constructor alone: the schema
    is re-derived from the projection, nothing is carried over."""
    return node.replace()


class BuildEverythingOptimizer(BlockOptimizer):
    """The DP with every join candidate built as a node and annotated
    by ``CostModel.annotate`` *before* pruning."""

    def _joinplans(self, *args):
        entries = []
        for candidate in super()._joinplans(*args):
            self._materialize(candidate)
            node = rebuilt_join(candidate.plan)
            self.model.annotate(node)
            entries.append(
                _Entry.of_plan(node, candidate.state)
            )
        return entries


class OrderedOptimizer(BlockOptimizer):
    """The DP with order classes kept in every block, within memory
    too."""

    def _search(self, context, finish):
        context.start_walk(ordered=True)
        return finish(self._dp_table(context))


def second_search(
    query, catalog, params=None, options=None
) -> OptimizationResult:
    """The baseline as ``optimize_query`` used to obtain it: a full
    ``optimize_traditional`` — decorrelating and propagating as
    ``optimize_query`` does — on its own ``BlockOptimizer``,
    ``CostModel`` and leaf-plan cache."""
    return optimize_traditional(query, catalog, params, options)


def every_optimize_query(on_call: Callable[..., None]):
    """A context manager: while it is open, every ``optimize_query``
    call a ``Database`` makes is reported as ``on_call(query, catalog,
    params, options, result)``."""
    original = repro.db.optimize_query

    def reporting(query, catalog, params=None, options=None):
        result = original(query, catalog, params, options)
        on_call(query, catalog, params, options, result)
        return result

    return mock.patch.object(repro.db, "optimize_query", reporting)


@contextlib.contextmanager
def pruned_plans() -> Iterator[List[PlanNode]]:
    """Every plan ``prune_plan`` hands back to ``optimize_query`` while
    the block runs, in call order: per call its best plan, then the
    traditional baseline it compared with."""
    original = canonical.prune_plan
    seen: List[PlanNode] = []

    def recording(plan, model=None, stats=None):
        seen.append(original(plan, model=model, stats=stats))
        return seen[-1]

    with mock.patch.object(canonical, "prune_plan", recording):
        yield seen


def render(plans: List[Tuple[str, str, float]]) -> str:
    """The golden file's text: costs as ``repr`` so a last-bit change
    in float arithmetic shows."""
    chunks = []
    for label, text, cost in plans:
        chunks.append(f"== {label} cost={cost!r}\n{text}\n")
    return "\n".join(chunks)


if __name__ == "__main__":
    sys.stdout.write(render(pinned_plans()))
