"""The emp/dept schema of the paper's running examples.

Example 1 (Section 3): employees under an age threshold earning more
than their department's average — the pull-up crossover depends on how
many employees pass the age filter and how many departments exist.
Example 2 (Section 4.1): average salary per department with a budget
filter — the invariant-grouping example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..cost.params import CostParams
from ..db import Database


@dataclass(frozen=True)
class EmpDeptConfig:
    """Shape of the generated emp/dept instance.

    - ``employees`` / ``departments``: table sizes.
    - ``young_fraction``: fraction of employees under the Example 1 age
      threshold (22) — the join selectivity knob of the crossover.
    - ``low_budget_fraction``: fraction of departments under the
      Example 2 budget threshold (1,000,000).
    """

    employees: int = 2000
    departments: int = 50
    young_fraction: float = 0.1
    low_budget_fraction: float = 0.5
    seed: int = 42
    memory_pages: int = 32
    with_indexes: bool = True
    uniform_ages: bool = False
    """When True, ages are uniform over [18, 65] (so the optimizer's
    uniformity assumption holds exactly) and ``young_fraction`` is
    ignored; selectivity is then controlled by the query's threshold."""

    @property
    def age_threshold(self) -> int:
        return 22


def build_empdept(config: Optional[EmpDeptConfig] = None) -> Database:
    """Build a database holding the configured emp/dept instance."""
    config = config or EmpDeptConfig()
    rng = random.Random(config.seed)
    db = Database(CostParams(memory_pages=config.memory_pages))

    db.create_table(
        "emp",
        [("eno", "int"), ("dno", "int"), ("sal", "float"), ("age", "int")],
        primary_key=["eno"],
    )
    db.create_table(
        "dept",
        [("dno", "int"), ("budget", "float"), ("loc", "int")],
        primary_key=["dno"],
    )

    employees = []
    for eno in range(config.employees):
        dno = rng.randrange(config.departments)
        salary = float(rng.randint(20_000, 120_000))
        if config.uniform_ages:
            age = rng.randint(18, 65)
        elif rng.random() < config.young_fraction:
            age = rng.randint(18, config.age_threshold - 1)
        else:
            age = rng.randint(config.age_threshold, 65)
        employees.append((eno, dno, salary, age))
    db.insert("emp", employees)

    departments = []
    for dno in range(config.departments):
        if rng.random() < config.low_budget_fraction:
            budget = float(rng.randint(100_000, 999_999))
        else:
            budget = float(rng.randint(1_000_000, 5_000_000))
        departments.append((dno, budget, rng.randrange(10)))
    db.insert("dept", departments)

    if config.with_indexes:
        db.create_index("emp_dno_idx", "emp", ["dno"])
        db.create_index("dept_dno_idx", "dept", ["dno"])
    db.add_foreign_key("emp", ["dno"], "dept", ["dno"])
    db.analyze()
    return db


EXAMPLE1_SQL = """
with a1(dno, asal) as (
    select e2.dno, avg(e2.sal) from emp e2 group by e2.dno
)
select e1.sal from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal
"""
"""Example 1 in its aggregate-view form (queries A1/A2 of Section 3)."""

EXAMPLE1_NESTED_SQL = """
select e1.sal from emp e1
where e1.age < 22
  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)
"""
"""Example 1 as the correlated nested subquery it flattens from."""

EXAMPLE2_SQL = """
select e.dno, avg(e.sal) as asal from emp e, dept d
where e.dno = d.dno and d.budget < 1000000
group by e.dno
"""
"""Example 2 (Section 4.1), query C: the invariant-grouping example."""
