"""The paper's experiments, E1–E15, as deterministic tables.

Every claim the paper makes — the Section 3 pull-up crossover, Section 4
push-down, the Section 5 no-worse guarantee and its "very moderate"
search growth — is a statement about page IO and plan counts. Neither
needs a clock, so nothing here reads one: each ``e<n>()`` builds its
seeded workload, asserts the paper's shape and returns one
:class:`Table`. Where Section 5 is what is being claimed the assertion
is on *estimated* cost (that is what the guarantee speaks about);
executed page IO is reported beside it, and a note names every cell
where execution orders two plans against their estimates.

``python benchmarks/experiments.py`` (``make experiments``) prints all
tables and rewrites ``benchmarks/results/experiments.txt``;
``tests/test_experiments.py`` renders them in memory and compares them
with that file byte for byte, so a plan-changing PR regenerates the
paper's tables on purpose. EXPERIMENTS.md quotes and discusses them.
"""

from __future__ import annotations

import pathlib
import random
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )

from repro import CostParams, Database, OptimizerOptions
from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.plan import GroupByNode, JoinNode, ScanNode, plan_nodes
from repro.catalog.schema import table_row_schema
from repro.cost import CostModel
from repro.cost.model import executed_weighted_cost
from repro.engine import ExecutionContext, execute_plan
from repro.engine.reference import evaluate_canonical, rows_equal_bag
from repro.errors import TransformError
from repro.stats import (
    EXACT,
    UNIFORM,
    StatsConfig,
    median,
    percentile,
    q_error,
)
from repro.transforms import coalesce_plan, push_down_plan, unnest_sql
from repro.workloads import (
    EmpDeptConfig,
    RandomQueryConfig,
    TpcdConfig,
    build_empdept,
    build_tpcd_like,
    random_queries,
)
from repro.workloads.generator import build_star_database
from repro.workloads.tpcdlike import (
    BIG_SPENDERS_SQL,
    REVENUE_PER_CUSTOMER_SQL,
    SUPPLIER_SHARE_SQL,
)

RESULTS_FILE = (
    pathlib.Path(__file__).resolve().parent / "results" / "experiments.txt"
)


@dataclass(frozen=True)
class Table:
    """One experiment's output: a fixed-width table plus note lines."""

    id: str
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    notes: Sequence[str] = ()

    def render(self) -> str:
        cells = [[str(cell) for cell in row] for row in self.rows]
        widths = [
            max([len(header)] + [len(row[i]) for row in cells])
            for i, header in enumerate(self.headers)
        ]

        def fmt(line: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(line, widths))

        lines = [f"===== {self.id}: {self.title} ====="]
        lines.append(fmt(self.headers))
        lines.append(fmt(["-" * width for width in widths]))
        lines.extend(fmt(row) for row in cells)
        lines.extend(self.notes)
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Shared workload pieces
# ----------------------------------------------------------------------


def empdept(employees: int, departments: int) -> Database:
    """The running example with uniform ages (so the uniformity
    assumption holds), 8 pages of operator memory and no indexes."""
    return build_empdept(
        EmpDeptConfig(
            employees=employees,
            departments=departments,
            uniform_ages=True,
            memory_pages=8,
            with_indexes=False,
        )
    )


def database(tables: Dict[str, Tuple[str, list]], **params) -> Database:
    """A fresh analyzed database: ``{name: ("col:type ...", rows)}``,
    each table keyed on its first column, 8 pages of operator memory
    unless *params* says otherwise."""
    db = Database(CostParams(**{"memory_pages": 8, **params}))
    for name, (columns, rows) in tables.items():
        schema = [tuple(column.split(":")) for column in columns.split()]
        db.create_table(name, schema, primary_key=[schema[0][0]])
        db.insert(name, rows)
    db.analyze()
    return db


def example1_sql(threshold: int) -> str:
    return f"""
    with a1(dno, asal) as (
        select e2.dno, avg(e2.sal) from emp e2 group by e2.dno
    )
    select e1.sal from emp e1, a1 b
    where e1.dno = b.dno and e1.age < {threshold} and e1.sal > b.asal
    """


def run_plan(db: Database, plan):
    """Annotate and execute a plan: (result, page IO, metrics)."""
    CostModel(db.catalog, db.params).annotate_tree(plan)
    context = ExecutionContext(db.catalog, db.io, db.params)
    with db.io.measure() as span:
        result = execute_plan(plan, context)
    return result, span.delta.total, context.metrics


def note_contradiction(
    notes: List[str],
    label: str,
    preferred: Tuple[float, int],
    other: Tuple[float, int],
    plan,
    metrics,
) -> None:
    """Append a note line when executed page IO orders two plans against
    their estimated costs — ``(estimated, executed)`` pairs, *preferred*
    being the plan the estimates rank no worse. The note names the
    worst-estimated *input* of the preferred plan's joins and group-bys:
    a spill is sized by what an operator reads, and the rows the root
    hands back cost nothing."""
    if preferred[0] > other[0] or preferred[1] <= other[1]:
        return
    inputs = [
        (q_error(child.props.rows, metrics.actual_rows(child)), child)
        for node in plan_nodes(plan)
        if isinstance(node, (JoinNode, GroupByNode))
        for child in node.children
        if metrics.actual_rows(child) is not None
    ]
    q, worst = max(inputs, key=lambda pair: pair[0])
    notes.append(
        f"executed order contradicts estimated order at {label}: "
        f"estimated {preferred[0]:.0f} vs {other[0]:.0f} pages, executed "
        f"{preferred[1]} vs {other[1]}; largest input q-error "
        f"{q:.2f} at {worst.describe()} "
        f"(estimated {worst.props.rows:.0f} rows, "
        f"actual {metrics.actual_rows(worst)})"
    )


def query_pair(result) -> Tuple[float, int]:
    return result.estimated_cost, result.executed_io.total


# ----------------------------------------------------------------------
# E1 — Example 1 / Figure 1: the pull-up crossover (Section 3)
# ----------------------------------------------------------------------


def e1() -> Table:
    """The pulled-up single-block form beats the view form when the
    outer filter is selective and departments are many; the optimizer
    must pick per regime and — Section 5 — never estimate worse than
    the traditional plan."""
    databases = {d: empdept(8000, d) for d in (10, 1000, 4000)}
    rows = []
    notes = [
        "paper shape: pull-up chosen only where it wins (selective "
        "filter, many groups); never worse than traditional."
    ]
    for threshold in (19, 30, 55):
        for departments, db in databases.items():
            sql = example1_sql(threshold)
            traditional = db.query(sql, optimizer="traditional")
            full = db.query(sql, optimizer="full")
            assert sorted(traditional.rows) == sorted(full.rows)
            assert full.estimated_cost <= traditional.estimated_cost
            pulled = bool(full.optimization.pull_choices.get("b"))
            trad_io = traditional.executed_io.total
            full_io = full.executed_io.total
            rows.append(
                (
                    f"age<{threshold}",
                    departments,
                    trad_io,
                    full_io,
                    "pull-up" if pulled else "local",
                    f"{trad_io / max(1, full_io):.2f}x",
                )
            )
            note_contradiction(
                notes,
                f"age<{threshold} x {departments} depts",
                query_pair(full),
                query_pair(traditional),
                full.plan,
                full.exec_metrics,
            )
    # the crossover exists
    assert any(row[4] == "pull-up" for row in rows)
    return Table(
        "E1",
        "Example 1 pull-up crossover (executed page IO)",
        ["filter", "depts", "trad IO", "full IO", "choice", "speedup"],
        rows,
        notes,
    )


# ----------------------------------------------------------------------
# E2 — Example 2 / Figure 2(a): invariant grouping (Section 4.1)
# ----------------------------------------------------------------------

E2_DEPARTMENTS = 40


def _e2_database(emps_per_dept: int) -> Database:
    rng = random.Random(20)
    return database(
        {
            "emp": (
                "eno:int dno:int sal:float",
                [
                    (i, i % E2_DEPARTMENTS, float(rng.randint(10, 99)))
                    for i in range(E2_DEPARTMENTS * emps_per_dept)
                ],
            ),
            "dept": (
                "dno:int budget:float",
                [
                    (d, float(rng.randint(100_000, 2_000_000)))
                    for d in range(E2_DEPARTMENTS)
                ],
            ),
        }
    )


def _e2_join_first(db: Database) -> GroupByNode:
    """Query C's shape: emp join dept (sort-merge), then group by dno."""
    emp = table_row_schema("e", db.catalog.table("emp").columns).fields
    dept = table_row_schema("d", db.catalog.table("dept").columns).fields
    join = JoinNode(
        ScanNode("emp", "e", emp),
        ScanNode(
            "dept",
            "d",
            dept,
            filters=(Comparison("<", col("d.budget"), lit(1_000_000)),),
        ),
        method="smj",
        equi_keys=[(("e", "dno"), ("d", "dno"))],
    )
    return GroupByNode(
        join,
        group_keys=[("e", "dno")],
        aggregates=[("asal", AggregateCall("avg", col("e.sal")))],
        projection=[("e", "dno"), (None, "asal")],
    )


def e2() -> Table:
    """Query C (join, then group) against D1/D2 (group emp first, then
    join), both built by hand through the plan-level transform, plus
    the greedy optimizer's own choice."""
    sql = """
    select e.dno, avg(e.sal) as asal from emp e, dept d
    where e.dno = d.dno and d.budget < 1000000
    group by e.dno
    """
    rows = []
    for emps_per_dept in (5, 50, 400):
        db = _e2_database(emps_per_dept)
        c_result, c_io, _ = run_plan(db, _e2_join_first(db))
        d_result, d_io, _ = run_plan(
            db, push_down_plan(_e2_join_first(db), db.catalog)
        )
        assert rows_equal_bag(c_result.rows, d_result.rows)
        chosen = db.query(sql, optimizer="greedy")
        optimizer_io = chosen.executed_io.total
        # never worse than either hand-built shape
        assert optimizer_io <= min(c_io, d_io)
        early = chosen.optimization.stats.early_groupby_accepted > 0
        rows.append(
            (
                emps_per_dept,
                c_io,
                d_io,
                optimizer_io,
                "group-first" if d_io < c_io else "join-first",
                "early-G" if early else "late-G",
            )
        )
    # at the largest scale, group-first beats the sort plan
    assert rows[-1][4] == "group-first"
    return Table(
        "E2",
        "Example 2 invariant grouping (query C vs D1/D2, page IO)",
        ["emps/dept", "C: join-first IO", "D: group-first IO",
         "optimizer IO", "cheaper shape", "optimizer G"],
        rows,
        [
            "paper shape: early grouping (D) beats the sort-based "
            "join-first plan once the pre-group input dwarfs memory; "
            "the cost-based optimizer is never worse than either "
            "hand-built shape."
        ],
    )


# ----------------------------------------------------------------------
# E3 — Figure 2(b): simple coalescing grouping (Section 4.2)
# ----------------------------------------------------------------------

E3_GROUPS = 30


def _e3_database(rows_per_group: int) -> Database:
    rng = random.Random(30)
    return database(
        {
            "sales": (
                "sid:int gid:int amt:float",
                [
                    (i, i % E3_GROUPS, float(rng.randint(1, 99)))
                    for i in range(E3_GROUPS * rows_per_group)
                ],
            ),
            # several rows per gid: NOT key-joined, so invariant grouping
            # is inapplicable and only coalescing can group early
            "channel": (
                "cid:int gid:int region:int",
                [(c, c % E3_GROUPS, c % 5) for c in range(E3_GROUPS * 4)],
            ),
        }
    )


def _e3_late_group(db: Database, func: str = "avg") -> GroupByNode:
    sales = table_row_schema("s", db.catalog.table("sales").columns).fields
    channel = table_row_schema(
        "c", db.catalog.table("channel").columns
    ).fields
    join = JoinNode(
        ScanNode("sales", "s", sales),
        ScanNode("channel", "c", channel),
        method="smj",
        equi_keys=[(("s", "gid"), ("c", "gid"))],
    )
    return GroupByNode(
        join,
        group_keys=[("c", "region")],
        aggregates=[("out", AggregateCall(func, col("s.amt")))],
        projection=[("c", "region"), (None, "out")],
    )


def e3() -> Table:
    """A partial group-by added below a non-key join and coalesced
    above it, swept over rows per group (the data-reduction factor);
    a holistic aggregate must refuse the transform."""
    rows = []
    for rows_per_group in (2, 40, 300):
        db = _e3_database(rows_per_group)
        late_result, late_io, _ = run_plan(db, _e3_late_group(db))
        early_result, early_io, _ = run_plan(
            db, coalesce_plan(_e3_late_group(db))
        )
        assert rows_equal_bag(late_result.rows, early_result.rows)
        rows.append(
            (
                rows_per_group,
                late_io,
                early_io,
                f"{late_io / max(1, early_io):.2f}x",
            )
        )
    assert rows[-1][1] > rows[-1][2]  # coalescing wins at scale
    try:
        coalesce_plan(_e3_late_group(_e3_database(10), func="median"))
    except TransformError:
        pass
    else:
        raise AssertionError("MEDIAN is holistic: must not coalesce")
    return Table(
        "E3",
        "Simple coalescing grouping (late G vs early partial G, page IO)",
        ["rows/group", "late-G IO", "coalesced IO", "speedup"],
        rows,
        [
            "paper shape: the added early group-by wins as the "
            "data-reduction factor (rows per group) grows; at tiny "
            "factors it is pure overhead."
        ],
    )


# ----------------------------------------------------------------------
# E4 — Figure 4: the four plan shapes for a one-view query
# ----------------------------------------------------------------------

E4_CONFIGS = [
    ("(a) traditional", "traditional", None),
    (
        "(b) push only",
        "full",
        OptimizerOptions(k_level=0, enable_invariant_split=False),
    ),
    ("(c) pull only", "full", OptimizerOptions(early_grouping="off")),
    ("(d) push+pull", "full", None),
]


def e4() -> Table:
    """Traditional / push / pull / both over a selective and an
    unselective regime: the combined search space contains the other
    three, so (d) never estimates worse than any of them."""
    db = empdept(8000, 4000)
    rows = []
    notes = [
        "paper shape: (c)/(d) win in the selective regime via "
        "pull-up; in the unselective regime the pull-up plans "
        "degrade and (a)/(b) win — (d) always matches the best.",
    ]
    for regime, threshold in (("selective", 19), ("unselective", 55)):
        results = {
            label: db.query(
                example1_sql(threshold), optimizer=optimizer, options=options
            )
            for label, optimizer, options in E4_CONFIGS
        }
        combined = results["(d) push+pull"]
        for label, result in results.items():
            assert sorted(result.rows) == sorted(combined.rows)
            assert combined.estimated_cost <= result.estimated_cost
            rows.append(
                (
                    regime,
                    label,
                    f"{result.estimated_cost:.0f}",
                    result.executed_io.total,
                    dict(result.optimization.pull_choices),
                )
            )
            note_contradiction(
                notes,
                f"{regime}, (d) vs {label}",
                query_pair(combined),
                query_pair(result),
                combined.plan,
                combined.exec_metrics,
            )
        if regime == "selective":
            assert (
                results["(c) pull only"].estimated_cost
                < results["(a) traditional"].estimated_cost
            )
    return Table(
        "E4",
        "Figure 4 plan space: four strategies, two regimes (page IO)",
        ["regime", "strategy", "est cost", "exec IO", "pull choice"],
        rows,
        notes,
    )


# ----------------------------------------------------------------------
# E5 — Figure 5: two-phase optimization with two aggregate views
# ----------------------------------------------------------------------

E5_SQL = """
with v1(dno, asal) as (select e.dno, avg(e.sal) from emp e group by e.dno),
     v2(loc, msal) as (select f.loc, max(f.sal) from emp f group by f.loc)
select b1.budget, v1.asal, v2.msal from dept b1, site b2, v1, v2
where b1.dno = v1.dno and b2.loc = v2.loc
  and b1.budget < 600000 and b2.size < 40
"""


def _e5_database() -> Database:
    rng = random.Random(50)
    return database(
        {
            "emp": (
                "eno:int dno:int loc:int sal:float",
                [
                    (i, i % 600, i % 200, float(rng.randint(10, 99)))
                    for i in range(6000)
                ],
            ),
            "dept": (
                "dno:int budget:float",
                [
                    (d, float(rng.randint(100_000, 1_000_000)))
                    for d in range(600)
                ],
            ),
            "site": (
                "loc:int size:int",
                [(s, rng.randint(1, 100)) for s in range(200)],
            ),
        }
    )


def e5() -> Table:
    """Step 1 optimizes Φ(Vᵢ, Wᵢ) for every pull-up set Wᵢ; Step 2
    enumerates the consistent (pairwise disjoint) combinations — the
    literal content of Figure 5 for a concrete B1 ⋈ V1 ⋈ V2 ⋈ B2."""
    db = _e5_database()
    query = db.bind(E5_SQL)
    result = db.optimize_bound(query, optimizer="full")
    per_view: Dict[str, set] = {}
    for combo, _cost in result.alternatives:
        pulled = [alias for w in combo.values() for alias in w]
        assert len(pulled) == len(set(pulled))  # Wᵢ pairwise disjoint
        for view_alias, pulled_set in combo.items():
            per_view.setdefault(view_alias, set()).add(pulled_set)
    assert result.cost <= result.traditional_cost + 1e-9
    # the brute-force reference cannot scale to a 4-relation product at
    # this size: check the chosen plan against the traditional one
    traditional = db.optimize_bound(query, optimizer="traditional")
    full_rows, _ = db.execute_plan(result.plan)
    trad_rows, _ = db.execute_plan(traditional.plan)
    assert rows_equal_bag(full_rows.rows, trad_rows.rows)
    rows = [
        (
            " ".join(
                f"{alias}<-{{{','.join(pulled)}}}"
                for alias, pulled in sorted(combo.items())
            ),
            f"{cost:.0f}",
            "chosen" if combo == result.pull_choices else "",
        )
        for combo, cost in sorted(
            result.alternatives, key=lambda pair: pair[1]
        )
    ]
    notes = [
        f"Step 1 pull-up sets for {alias}: "
        + ", ".join("{" + ",".join(s) + "}" for s in sorted(sets))
        for alias, sets in sorted(per_view.items())
    ]
    notes.append(
        f"combinations enumerated: {result.stats.combinations_enumerated}"
    )
    notes.append(
        f"traditional cost: {result.traditional_cost:.0f}  "
        f"chosen cost: {result.cost:.0f}"
    )
    return Table(
        "E5",
        "Figure 5 two-view enumeration",
        ["combination", "est cost", ""],
        rows,
        notes,
    )


# ----------------------------------------------------------------------
# E6 / E6b — the no-worse guarantee, randomized (Section 5)
# ----------------------------------------------------------------------


def e6() -> Table:
    """Over a seeded population of random canonical queries: zero
    guarantee violations, every chosen plan checked against the
    brute-force reference."""
    db, queries = random_queries(
        RandomQueryConfig(seed=101, queries=40, fact_rows=400, dim_rows=30)
    )
    factors = []
    for query in queries:
        full = db.optimize_bound(query, "full")
        traditional = db.optimize_bound(query, "traditional")
        assert full.cost <= traditional.cost + 1e-9  # the guarantee
        factors.append(traditional.cost / max(full.cost, 1e-9))
        reference = evaluate_canonical(query, db.catalog)
        rows, _ = db.execute_plan(full.plan)
        assert rows_equal_bag(reference.rows, rows.rows)
    factors.sort()

    def at(fraction: float) -> float:
        return factors[min(len(factors) - 1, int(fraction * len(factors)))]

    assert max(factors) >= 1.0
    return Table(
        "E6",
        "No-worse guarantee over random canonical queries",
        ["metric", "value"],
        [
            ("queries", len(queries)),
            ("guarantee violations", 0),  # both asserted per query above
            ("result mismatches", 0),
            ("strictly improved", sum(1 for f in factors if f > 1.001)),
            ("median improvement", f"{at(0.5):.2f}x"),
            ("p90 improvement", f"{at(0.9):.2f}x"),
            ("max improvement", f"{max(factors):.2f}x"),
        ],
        [
            "paper shape: violations = 0 always. At this tiny scale "
            "every plan fits in memory so costs tie; improvements "
            "appear past the memory cliff (E6b) and on the paper's "
            "example shapes (E1/E4/E8/E11)."
        ],
    )


def e6b() -> Table:
    """Larger instances, past the memory cliff, where plan choices
    differ. The guarantee is on estimated cost; executed IO is reported
    and every query it contradicts is named. (The brute-force reference
    cannot scale here: full is checked against traditional.)"""
    db, queries = random_queries(
        RandomQueryConfig(
            seed=202, queries=15, fact_rows=9000, dim_rows=3000,
            memory_pages=8,
        )
    )
    estimated, executed = [], []
    notes = [
        "paper shape: still zero violations, and a fraction of "
        "queries strictly improves in estimated cost (the "
        "optimizer's objective). Executed-IO wins on the paper's "
        "own example shapes are shown in E1/E4/E8."
    ]
    for number, query in enumerate(queries):
        full = db.optimize_bound(query, "full")
        traditional = db.optimize_bound(query, "traditional")
        assert full.cost <= traditional.cost + 1e-9  # the guarantee
        estimated.append(traditional.cost / max(full.cost, 1e-9))
        full_rows, full_io, metrics = run_plan(db, full.plan)
        trad_rows, trad_io, _ = run_plan(db, traditional.plan)
        assert rows_equal_bag(full_rows.rows, trad_rows.rows)
        executed.append(trad_io / max(1, full_io))
        note_contradiction(
            notes,
            f"query {number}",
            (full.cost, full_io),
            (traditional.cost, trad_io),
            full.plan,
            metrics,
        )
    improved = sum(1 for factor in estimated if factor > 1.001)
    assert improved > 0
    return Table(
        "E6b",
        "No-worse guarantee at scale (9000-row facts, 8-page memory)",
        ["metric", "value"],
        [
            ("queries", len(queries)),
            ("guarantee violations", 0),  # both asserted per query above
            ("full vs traditional mismatches", 0),
            ("strictly improved (estimated)", improved),
            ("max improvement (estimated)", f"{max(estimated):.2f}x"),
            ("max improvement (executed IO)", f"{max(executed):.2f}x"),
            (
                "mean improvement (executed IO)",
                f"{sum(executed) / len(executed):.2f}x",
            ),
        ],
        notes,
    )


# ----------------------------------------------------------------------
# E7 — enumeration effort: "very moderate increase in search space"
# ----------------------------------------------------------------------

E7_CONFIGS = [
    ("traditional", "traditional", None),
    (
        "greedy (k=0)",
        "full",
        OptimizerOptions(k_level=0, enable_invariant_split=False),
    ),
    ("full k=1", "full", OptimizerOptions(k_level=1)),
    ("full k=2", "full", OptimizerOptions(k_level=2)),
    (
        "full k=2, no pred-share",
        "full",
        OptimizerOptions(k_level=2, require_shared_predicate=False),
    ),
    (
        "full k=2, no shared DP",
        "full",
        OptimizerOptions(k_level=2, share_view_dp=False),
    ),
]


def e7() -> Table:
    """Enumeration counters of the traditional DP, the greedy DP and
    the full optimizer at several k, summed over a query population
    (Section 5.2 citing [CS94]; Section 5.3's restrictions)."""
    db, queries = random_queries(
        RandomQueryConfig(seed=77, queries=12, fact_rows=200, dim_rows=20)
    )
    totals: Dict[str, Dict[str, float]] = {}
    for label, optimizer, options in E7_CONFIGS:
        total = {"joinplans": 0, "subsets": 0, "retained": 0, "cost": 0.0}
        for query in queries:
            result = db.optimize_bound(query, optimizer, options)
            total["joinplans"] += result.stats.joinplan_calls
            total["subsets"] += result.stats.subsets_expanded
            total["retained"] += result.stats.plans_retained
            total["cost"] += result.cost
        totals[label] = total
    baseline = totals["traditional"]["joinplans"]
    rows = [
        (
            label,
            total["joinplans"],
            total["subsets"],
            total["retained"],
            f"{total['joinplans'] / baseline:.2f}x",
            f"{total['cost']:.0f}",
        )
        for label, total in totals.items()
    ]
    costs = [total["cost"] for total in totals.values()]
    # traditional >= greedy >= full k=1 >= full k=2
    assert costs[0] >= costs[1] >= costs[2] >= costs[3] - 1e-6
    k2 = totals["full k=2"]
    # dropping predicate sharing can only grow the enumerated space,
    # k=2 explores at least as much as k=1, and Section 5.3's shared DP
    # saves enumeration at equal plan quality
    assert totals["full k=2, no pred-share"]["joinplans"] >= k2["joinplans"]
    assert k2["joinplans"] >= totals["full k=1"]["joinplans"]
    unshared = totals["full k=2, no shared DP"]
    assert k2["joinplans"] <= unshared["joinplans"]
    assert abs(k2["cost"] - unshared["cost"]) < 1e-6
    return Table(
        "E7",
        "Search-space growth vs plan quality (12 random queries)",
        ["optimizer", "joinplans", "subsets", "plans kept",
         "effort vs trad", "sum est cost"],
        rows,
        [
            "paper shape: greedy adds little effort; pull-up grows the "
            "space with k but the restrictions keep it bounded, and "
            "total plan cost only decreases."
        ],
    )


# ----------------------------------------------------------------------
# E8 — nested subqueries through flattening (Sections 1, 6)
# ----------------------------------------------------------------------


def _e8_sql(threshold: int) -> str:
    return f"""
    select e1.sal from emp e1
    where e1.age < {threshold}
      and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)
    """


def e8() -> Table:
    """Naive correlated evaluation (the inner block re-scanned for
    every outer row passing the filter — the pre-Kim model) against the
    flattened query under the traditional and the full optimizer."""
    db = empdept(6000, 300)
    emp = db.catalog.table("emp")
    age = emp.column_position("age")
    rows = []
    for threshold in (19, 30, 55):
        sql = _e8_sql(threshold)
        assert unnest_sql(sql, db.catalog).unnested_count == 1
        traditional = db.query(sql, optimizer="traditional")
        full = db.query(sql, optimizer="full")
        assert sorted(traditional.rows) == sorted(full.rows)
        passing = sum(1 for row in emp.rows if row[age] < threshold)
        naive = emp.num_pages + passing * emp.num_pages
        trad_io = traditional.executed_io.total
        full_io = full.executed_io.total
        assert full_io < naive
        assert full_io <= trad_io
        rows.append(
            (
                f"age<{threshold}",
                naive,
                trad_io,
                full_io,
                f"{naive / max(1, full_io):.0f}x",
            )
        )
    return Table(
        "E8",
        "Nested subquery: naive correlated vs flattened (page IO)",
        ["filter", "naive IO", "flattened trad IO", "flattened full IO",
         "naive/full"],
        rows,
        [
            "paper shape: flattening wins by orders of magnitude over "
            "per-row re-evaluation; the full optimizer then matches or "
            "beats the traditional plan on the flattened form."
        ],
    )


# ----------------------------------------------------------------------
# E9 — ablation: the greedy conservative width guard (Section 5.2)
# ----------------------------------------------------------------------


def e9() -> Table:
    """How often the guard vetoes an otherwise-cheaper early group-by,
    and what removing it does to the final plan's cost — where the
    §5.2 heuristic decides (eager retention off) and, for contrast,
    under retention. IO-only cost never finds an early group-by
    cheaper on this population, so a small CPU weight makes the
    candidates compete."""
    db, queries = random_queries(
        RandomQueryConfig(
            seed=303, queries=20, fact_rows=3000, dim_rows=900,
            memory_pages=8,
        )
    )
    db.params = replace(db.params, cpu_tuple_weight=0.001)
    columns = {}
    for eager in (False, True):
        considered = vetoed = on_better = off_better = 0
        accepted_on = accepted_off = 0
        total_on = total_off = 0.0
        for number, query in enumerate(queries):
            on, off = (
                db.optimize_bound(
                    query,
                    "full",
                    OptimizerOptions(
                        width_guard=guard,
                        early_grouping="eager" if eager else "greedy",
                    ),
                )
                for guard in (True, False)
            )
            if number == 0:  # both sides stay correct
                reference = evaluate_canonical(query, db.catalog)
                for result in (on, off):
                    rows, _ = db.execute_plan(result.plan)
                    assert rows_equal_bag(reference.rows, rows.rows)
            considered += on.stats.early_groupby_considered
            accepted_on += on.stats.early_groupby_accepted
            accepted_off += off.stats.early_groupby_accepted
            if (
                off.stats.early_groupby_accepted
                > on.stats.early_groupby_accepted
            ):
                vetoed += 1
            total_on += on.cost
            total_off += off.cost
            if on.cost < off.cost - 1e-9:
                on_better += 1
            elif off.cost < on.cost - 1e-9:
                off_better += 1
        assert accepted_on <= accepted_off  # the guard only ever restricts
        assert vetoed >= 1  # ...and here it does restrict
        columns[eager] = [
            len(queries),
            considered,
            accepted_on,
            accepted_off,
            vetoed,
            on_better,
            off_better,
            f"{total_on:.1f}",
            f"{total_off:.1f}",
        ]
    metrics = [
        "queries",
        "early-G considered",
        "early-G accepted (guard on)",
        "early-G accepted (guard off)",
        "queries with vetoed early-G",
        "guard-on cheaper",
        "guard-off cheaper",
        "sum est cost (guard on)",
        "sum est cost (guard off)",
    ]
    return Table(
        "E9",
        "Ablation: greedy conservative width guard (cpu_tuple_weight=0.001)",
        ["metric", "heuristic (eager off)", "eager retention"],
        [
            (metric, heuristic, retained)
            for metric, heuristic, retained in zip(
                metrics, columns[False], columns[True]
            )
        ],
        [
            "paper shape: the guard only ever rejects candidates (never "
            "invents them). Where the heuristic decides, its vetoes are "
            "real: they keep a cheaper-but-wider early group-by out and "
            "leave the chosen plans slightly more expensive. Under eager "
            "retention the lazy and eager plans both stay in the DP, so "
            "the guard's verdict moves a counter and no cost."
        ],
    )


# ----------------------------------------------------------------------
# E10 — ablation: the Section 5.3 search-space restrictions
# ----------------------------------------------------------------------

E10_SQL = """
with v(dno, asal) as (select e.dno, avg(e.sal) from emp e group by e.dno)
select b1.x, v.asal from t1 b1, t2 b2, t3 b3, v
where b1.dno = v.dno and b2.dno = v.dno and b3.k = b2.k
  and b1.x < 50 and v.asal > 20
"""


def _e10_database() -> Database:
    rng = random.Random(60)
    tables = {
        "emp": (
            "eno:int dno:int sal:float",
            [(i, i % 2000, float(rng.randint(1, 99))) for i in range(6000)],
        )
    }
    for name in ("t1", "t2", "t3"):
        tables[name] = (
            "id:int dno:int k:int x:float",
            [
                (i, i % 2000, i % 50, float(rng.randint(1, 99)))
                for i in range(1000)
            ],
        )
    return database(tables)


def e10() -> Table:
    """The quality/effort frontier as k sweeps 0..3 with and without
    the predicate-sharing restriction, on a query with several
    pullable relations."""
    db = _e10_database()
    rows = []
    for shared in (True, False):
        for k in (0, 1, 2, 3):
            result = db.optimize(
                E10_SQL,
                optimizer="full",
                options=OptimizerOptions(
                    k_level=k, require_shared_predicate=shared
                ),
            )
            rows.append(
                (
                    k,
                    "yes" if shared else "no",
                    result.stats.pullup_sets_enumerated,
                    result.stats.joinplan_calls,
                    f"{result.cost:.0f}",
                )
            )
    by_key = {(row[0], row[1]): row for row in rows}
    costs = [float(by_key[(k, "yes")][4]) for k in (0, 1, 2, 3)]
    assert costs[0] >= costs[1] >= costs[3] - 1e-6  # monotone in k
    assert abs(costs[2] - costs[3]) < 1e-6  # saturated by k=2
    # effort grows with k, and without the restriction
    assert by_key[(2, "no")][2] >= by_key[(2, "yes")][2]
    assert by_key[(3, "yes")][3] >= by_key[(1, "yes")][3]
    return Table(
        "E10",
        "Ablation: k-level pull-up and predicate sharing",
        ["k", "pred-share", "pull sets", "joinplans", "est cost"],
        rows,
        [
            "paper shape: effort grows with k and explodes without "
            "predicate sharing, while plan quality saturates at small "
            "k — the restrictions are nearly free."
        ],
    )


# ----------------------------------------------------------------------
# E11 — TPC-D-like decision-support queries (Section 1's motivation)
# ----------------------------------------------------------------------


def e11() -> Table:
    """Three decision-support shapes over a seeded synthetic star
    schema (the real kit is not available offline; DESIGN.md,
    substitutions) under all three optimizer levels."""
    db = build_tpcd_like(
        TpcdConfig(orders=4000, customers=400, memory_pages=8)
    )
    rows = []
    for label, sql in (
        ("Q1 revenue/customer", REVENUE_PER_CUSTOMER_SQL),
        ("Q2 big spenders", BIG_SPENDERS_SQL),
        ("Q3 supplier share", SUPPLIER_SHARE_SQL),
    ):
        results = {
            level: db.query(sql, optimizer=level)
            for level in ("traditional", "greedy", "full")
        }
        reference = sorted(map(repr, results["traditional"].rows))
        for level, result in results.items():
            assert sorted(map(repr, result.rows)) == reference
            rows.append(
                (
                    label,
                    level,
                    len(result.rows),
                    f"{result.estimated_cost:.0f}",
                    result.executed_io.total,
                )
            )
        assert (
            results["full"].estimated_cost
            <= results["traditional"].estimated_cost + 1e-9
        )
    return Table(
        "E11",
        "TPC-D-like workload across optimizer levels (page IO)",
        ["query", "optimizer", "rows", "est cost", "exec IO"],
        rows,
        [
            "paper shape: full <= greedy <= traditional in estimated "
            "cost on every query; all three return identical results."
        ],
    )


# ----------------------------------------------------------------------
# E12 — cost-model fidelity: estimated vs executed page IO
# ----------------------------------------------------------------------

E12_QUERIES = [
    ("full scan", "select e.sal from emp e"),
    (
        "filter+join",
        "select e.sal, d.budget from emp e, dept d "
        "where e.dno = d.dno and e.age < 30",
    ),
    ("group-by", "select e.dno, avg(e.sal) as a from emp e group by e.dno"),
    (
        "view join",
        "with v(dno, a) as (select e.dno, avg(e.sal) from emp e "
        "group by e.dno) "
        "select d.budget, v.a from dept d, v where d.dno = v.dno",
    ),
    (
        "nested subquery",
        "select e1.sal from emp e1 where e1.age < 25 and e1.sal > "
        "(select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
    ),
    (
        "having",
        "select e.dno, sum(e.sal) as s from emp e group by e.dno "
        "having sum(e.sal) > 100000",
    ),
]


def e12() -> Table:
    """Every cost-based claim rides on the model ranking plans
    correctly: whole-query estimates against executed page IO on
    uniform data."""
    db = empdept(6000, 500)
    rows = []
    for label, sql in E12_QUERIES:
        result = db.query(sql, optimizer="full")
        estimated = result.estimated_cost
        executed = result.executed_io.total
        assert 0.5 <= executed / max(estimated, 1e-9) <= 2.0, label
        if label in ("full scan", "group-by"):  # exact when unfiltered
            assert abs(estimated - executed) < 1.0, label
        rows.append(
            (
                label,
                f"{estimated:.0f}",
                executed,
                f"{executed / max(estimated, 1e-9):.3f}",
            )
        )
    return Table(
        "E12",
        "Cost-model fidelity (estimated vs executed page IO)",
        ["query", "estimated", "executed", "exec/est"],
        rows,
        [
            "shape: ratios ~1.0; deviations come only from cardinality "
            "estimation (uniformity), never from the IO formulas, which "
            "are shared between model and executor."
        ],
    )


# ----------------------------------------------------------------------
# E13 — pull-up benefit #2: "Increased Execution Alternatives"
# ----------------------------------------------------------------------

E13_SQL = """
with a1(dno, asal) as (
    select e.dno, avg(e.sal) from emp e group by e.dno
)
select w.wid, v.asal from watch w, a1 v
where w.dno = v.dno
"""


def _e13_database(watchlist_size: int) -> Database:
    rng = random.Random(90)
    db = database(
        {
            "emp": (
                "eno:int dno:int sal:float",
                [
                    (i, i % 6000, float(rng.randint(10, 99)))
                    for i in range(60_000)
                ],
            ),
            "watch": (
                "wid:int dno:int",
                [(w, rng.randrange(6000)) for w in range(watchlist_size)],
            ),
        }
    )
    db.create_index("emp_dno_idx", "emp", ["dno"])
    return db


def e13() -> Table:
    """An index on a base relation is unusable through a view boundary;
    after pull-up the join partner is the base table itself and an
    index nested-loop join applies (Section 3)."""
    rows = []
    notes = [
        "paper shape: with a small probing side, pull-up turns the "
        "full view computation into a handful of index probes; as "
        "the probing side grows the scan-based plan takes over and "
        "the optimizer follows."
    ]
    for watchlist_size in (10, 100, 2000):
        db = _e13_database(watchlist_size)
        traditional = db.query(E13_SQL, optimizer="traditional")
        full = db.query(E13_SQL, optimizer="full")
        assert sorted(traditional.rows) == sorted(full.rows)
        assert full.estimated_cost <= traditional.estimated_cost
        trad_io = traditional.executed_io.total
        full_io = full.executed_io.total
        rows.append(
            (
                watchlist_size,
                trad_io,
                full_io,
                "index NLJ" if "inlj" in full.explain() else "scan join",
                f"{trad_io / max(1, full_io):.2f}x",
            )
        )
        note_contradiction(
            notes,
            f"{watchlist_size} watchlist rows",
            query_pair(full),
            query_pair(traditional),
            full.plan,
            full.exec_metrics,
        )
    # pull-up + index beats the view scan when the probe side is small
    assert rows[0][3] == "index NLJ"
    assert rows[0][2] < rows[0][1]
    return Table(
        "E13",
        "Pull-up benefit #2: index access paths through the view "
        "boundary (page IO)",
        ["watchlist rows", "trad IO", "full IO", "full join method",
         "speedup"],
        rows,
        notes,
    )


# ----------------------------------------------------------------------
# E14 — the Section 5 adaptation: weighted CPU + IO cost
# ----------------------------------------------------------------------


def e14() -> Table:
    """Under a pure IO objective an in-memory group-by is free and
    stays late; once tuples cost, the greedy heuristic aggregates
    first. (Survives only until ROADMAP item 4's fitting script.)"""
    sql = """
    select s.dno, sum(s.amt) as t from sales s, dept d
    where s.dno = d.dno
    group by s.dno
    """
    rows = []
    for weight in (0.0, 0.001, 0.01, 0.05):
        rng = random.Random(31)
        db = database(
            {
                "sales": (
                    "sid:int dno:int amt:float",
                    [
                        (i, i % 20, float(rng.randint(1, 99)))
                        for i in range(6000)
                    ],
                ),
                "dept": ("dno:int name:int", [(d, d) for d in range(20)]),
            },
            memory_pages=64,
            cpu_tuple_weight=weight,
        )
        result = db.query(sql, optimizer="greedy")
        executed = executed_weighted_cost(
            result.plan,
            db.params,
            result.executed_io.total,
            result.exec_metrics,
        )
        # estimates track weighted execution
        assert abs(executed - result.estimated_cost) <= 0.02 * executed
        early = result.optimization.stats.early_groupby_accepted > 0
        rows.append(
            (
                weight,
                f"{result.estimated_cost:.1f}",
                f"{executed:.1f}",
                "early-G" if early else "late-G",
            )
        )
    assert rows[0][3] == "late-G" and rows[-1][3] == "early-G"
    return Table(
        "E14",
        "Weighted CPU+IO objective (Section 5 adaptation)",
        ["cpu weight", "est cost", "executed cost", "greedy grouping"],
        rows,
        [
            "paper shape: at weight 0 (IO-only) the in-memory group-by "
            "is free and stays late; as tuples start to cost, the "
            "greedy conservative heuristic moves the group-by below "
            "the join."
        ],
    )


# ----------------------------------------------------------------------
# E15 — cardinality q-error under skew: histograms/MCVs vs uniform
# ----------------------------------------------------------------------

E15_CONFIG = RandomQueryConfig(
    seed=7, fact_rows=20000, dim_rows=500, zipf_skew=1.3
)
E15_MIN_IMPROVEMENT = 5.0
E15_NDV_BOUND = 3.0  # sampled NDV must land within 3x of exact
#: Hot keys (0, 1, 2) are where uniform NDV division is most wrong; the
#: cold key and the range shape keep both estimators honest on the tail.
E15_QUERIES = [
    "select d.val as v, f.qty as q from fact f, dim1 d "
    "where f.d1_id = d.d1_id and f.d1_id = 0",
    "select d.val as v, f.price as p from fact f, dim2 d "
    "where f.d2_id = d.d2_id and f.d2_id = 1",
    "select d.cat as c, f.qty as q from fact f, dim1 d "
    "where f.d1_id = d.d1_id and f.d1_id = 2",
    "select f.f_id, sum(f.qty) as s from fact f "
    "where f.d1_id = 0 group by f.f_id",
    "select f.f_id, sum(f.price) as s from fact f "
    "where f.d2_id = 0 group by f.f_id",
    "select f.d2_id, sum(f.qty) as s from fact f "
    "where f.d1_id = 0 group by f.d2_id",
    "select f.flag, count(f.f_id) as c from fact f "
    "where f.d1_id < 10 group by f.flag",
    "select f.flag, count(f.f_id) as c from fact f "
    f"where f.d1_id = {E15_CONFIG.dim_rows - 5} group by f.flag",
]
#: On Zipf-skewed keys the uniform baseline prices the hot key at
#: |fact|/ndv matches and picks the unclustered index probe; MCVs reveal
#: its true frequency and the optimizer falls back to the heap scan.
E15_PROBE_SQL = "select f.qty from fact f where f.d1_id = 0"
E15_KINDS = (("scan", ScanNode), ("join", JoinNode), ("group", GroupByNode))


def _set_stats_config(db: Database, config: StatsConfig) -> None:
    db.catalog.stats_config = config
    for name in db.catalog.table_names():
        db.catalog.info(name).invalidate_stats()
    db.analyze()


def e15() -> Table:
    """Per-operator q-error on a Zipf-skewed star with full statistics
    (MCVs + equi-depth histograms) against the uniform baseline (NDV +
    range only), the plan the better estimate flips, and sampled
    ANALYZE's page budget and NDV bounds."""
    db = build_star_database(E15_CONFIG)
    rows = []
    join_group: Dict[str, List[float]] = {}
    probes = {}
    for label, config in (("uniform", UNIFORM), ("histograms", StatsConfig())):
        _set_stats_config(db, config)
        q_errors: Dict[str, List[float]] = {kind: [] for kind, _ in E15_KINDS}
        for sql in E15_QUERIES:
            result = db.query(sql)
            for node in plan_nodes(result.plan):
                actual = result.exec_metrics.actual_rows(node)
                if node.props is None or actual is None:
                    continue
                for kind, node_type in E15_KINDS:
                    if isinstance(node, node_type):
                        q_errors[kind].append(
                            q_error(node.props.rows, actual)
                        )
        for kind, values in q_errors.items():
            rows.append(
                (
                    label,
                    kind,
                    len(values),
                    round(median(values), 3),
                    round(percentile(values, 0.95), 3),
                )
            )
        join_group[label] = q_errors["join"] + q_errors["group"]
        probes[label] = db.query(E15_PROBE_SQL)
    improvement = median(join_group["uniform"]) / max(
        median(join_group["histograms"]), 1e-9
    )
    assert improvement >= E15_MIN_IMPROVEMENT
    probe_io = {k: probe.executed_io.total for k, probe in probes.items()}
    assert probe_io["histograms"] < probe_io["uniform"]
    assert (
        probes["histograms"].explain().splitlines()[0]
        != probes["uniform"].explain().splitlines()[0]
    )

    fact = db.catalog.info("fact").table
    pages = fact.num_pages
    _set_stats_config(db, EXACT)
    exact = db.catalog.stats("fact")
    sampled_config = StatsConfig(
        full_scan_pages=max(1, pages // 4),
        sample_fraction=0.25,
        min_sample_pages=max(4, pages // 20),
    )
    _set_stats_config(db, sampled_config)
    sampled = db.catalog.stats("fact")
    budget = max(
        sampled_config.min_sample_pages,
        int(pages * sampled_config.sample_fraction),
    )
    assert sampled.sampled and sampled.pages_scanned <= budget
    assert sampled.row_count == fact.num_rows
    for name in ("f_id", "d1_id", "d2_id", "qty", "flag"):
        ratio = sampled.column(name).n_distinct / max(
            1.0, exact.column(name).n_distinct
        )
        assert 1.0 / E15_NDV_BOUND <= ratio <= E15_NDV_BOUND, (name, ratio)
    return Table(
        "E15",
        "Cardinality q-error on Zipf-skewed star workload",
        ["stats", "operator", "ops", "median q", "p95 q"],
        rows,
        [
            f"join + group-by median improvement: {round(improvement, 2)}x "
            f"(bar: {E15_MIN_IMPROVEMENT}x)",
            "plan choice on hot-key probe: "
            f"uniform {probe_io['uniform']} page reads vs "
            f"histograms {probe_io['histograms']}",
            f"sampled ANALYZE: {sampled.pages_scanned} of {pages} pages "
            f"(budget {budget}), NDV within {E15_NDV_BOUND}x on every "
            "column",
        ],
    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

EXPERIMENTS = (
    e1, e2, e3, e4, e5, e6, e6b, e7, e8, e9, e10, e11, e12, e13, e14, e15
)


def render_all() -> str:
    """Every table, in order — the exact content of ``RESULTS_FILE``."""
    return "\n".join(experiment().render() for experiment in EXPERIMENTS)


def main() -> int:
    text = render_all()
    print(text, end="")
    RESULTS_FILE.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
