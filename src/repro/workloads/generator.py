"""Seeded random canonical-form queries (Figure 3) over a star schema.

Used by the no-worse-guarantee experiment (E6), the search-space
experiment (E7), and the randomized correctness tests: every generated
query is well-formed by construction, small enough for the brute-force
reference evaluator, and exercises views, outer group-bys, HAVING
clauses, and multi-view joins in seed-controlled proportions.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..algebra.aggregates import AggregateCall
from ..algebra.expressions import ColumnRef, Comparison, Expression, col, lit
from ..algebra.query import AggregateView, CanonicalQuery, QueryBlock, TableRef
from ..cost.params import CostParams
from ..db import Database


@dataclass(frozen=True)
class JoinWorkloadConfig:
    """Shape of a synthetic single-block join workload."""

    topology: str = "chain"  # chain | star | clique | disconnected
    leaves: int = 6
    seed: int = 0
    rows_base: int = 600
    # A large key domain makes the equijoins selective, so connected
    # join orders strictly dominate cross products and equal-cost plan
    # ties are rare.
    jk_domain: int = 1000
    # Smaller than most tables, so hash builds spill and sorts go
    # external: plan costs then depend on the join order.
    memory_pages: int = 4


@dataclass(frozen=True)
class JoinWorkload:
    """A single-block join workload for the DP enumerators.

    Everything :meth:`BlockOptimizer.optimize_block` needs, without
    this module importing the optimizer: callers build the
    ``GroupingSpec`` from ``group_keys``/``aggregates`` themselves.
    """

    db: Database
    relations: Tuple[TableRef, ...]
    predicates: Tuple[Expression, ...]
    group_keys: Tuple[Tuple[str, str], ...]
    aggregates: Tuple[Tuple[str, AggregateCall], ...]
    select: Tuple[Tuple[str, Expression], ...]


def _topology_edges(topology: str, leaves: int) -> List[Tuple[int, int]]:
    if topology == "chain":
        return [(i, i + 1) for i in range(leaves - 1)]
    if topology == "star":
        return [(0, i) for i in range(1, leaves)]
    if topology == "clique":
        return [
            (i, j) for i in range(leaves) for j in range(i + 1, leaves)
        ]
    if topology == "disconnected":
        # two independent chains (an optimizer must cross-product them)
        half = max(1, leaves // 2)
        edges = [(i, i + 1) for i in range(half - 1)]
        edges += [(i, i + 1) for i in range(half, leaves - 1)]
        return edges
    raise ValueError(f"unknown topology {topology!r}")


def build_join_workload(
    config: Optional[JoinWorkloadConfig] = None,
) -> JoinWorkload:
    """A fresh database of *leaves* relations wired as a chain, star,
    clique, or disconnected pair of chains, plus the single-block query
    joining them (grouped on the first relation's join key).

    Relation sizes grow with the position index so plan costs are
    non-degenerate: distinct join orders get distinct costs, which
    keeps the enumerator parity tests meaningful (ties would let two
    correct enumerators pick different equal-cost shapes).
    """
    config = config or JoinWorkloadConfig()
    if config.leaves < 2:
        raise ValueError("a join workload needs at least two relations")
    rng = random.Random(config.seed)
    db = Database(CostParams(memory_pages=config.memory_pages))
    aliases = [f"r{i}" for i in range(config.leaves)]
    for i in range(config.leaves):
        table = f"t{i}_{config.seed}"
        db.create_table(
            table,
            [("id", "int"), ("jk", "int"), ("v", "float")],
            primary_key=["id"],
        )
        rows = config.rows_base * (i + 1) + rng.randrange(config.rows_base)
        db.insert(
            table,
            [
                (
                    row,
                    rng.randrange(config.jk_domain),
                    float(rng.randint(0, 100)),
                )
                for row in range(rows)
            ],
        )
    db.analyze()

    relations = tuple(
        TableRef(f"t{i}_{config.seed}", aliases[i])
        for i in range(config.leaves)
    )
    predicates: List[Expression] = [
        Comparison(
            "=",
            ColumnRef(aliases[i], "jk"),
            ColumnRef(aliases[j], "jk"),
        )
        for i, j in _topology_edges(config.topology, config.leaves)
    ]
    # one local predicate so leaf access paths differ from bare scans
    predicates.append(
        Comparison(
            "<", ColumnRef(aliases[-1], "v"), lit(float(rng.randint(40, 80)))
        )
    )
    first = aliases[0]
    return JoinWorkload(
        db=db,
        relations=relations,
        predicates=tuple(predicates),
        group_keys=((first, "jk"),),
        aggregates=(
            ("total", AggregateCall("sum", ColumnRef(first, "v"))),
        ),
        select=(
            ("jk", ColumnRef(first, "jk")),
            ("total", ColumnRef(None, "total")),
        ),
    )


@dataclass(frozen=True)
class RandomQueryConfig:
    """Workload shape for the random generator."""

    seed: int = 0
    queries: int = 20
    fact_rows: int = 300
    dim_rows: int = 30
    categories: int = 6
    max_views: int = 2
    memory_pages: int = 16
    # NULL / empty-group shapes (0.0 / 0 keeps the paper's NULL-free
    # setting that the optimizer experiments assume).
    null_fraction: float = 0.0
    """Probability that a measure (``val``/``qty``/``price``) or a
    dim ``cat`` key is NULL. Any value > 0 also forces every fact row
    with ``flag = 2`` to carry a NULL ``qty``, so grouping by ``flag``
    always contains an all-NULL aggregate input group."""
    empty_categories: int = 0
    """Reserve the highest N ``cat`` values: no row ever lands there,
    so group-bys over ``cat`` see absent groups."""
    zipf_skew: float = 0.0
    """Zipf exponent for the fact table's foreign keys: ``d1_id`` and
    ``d2_id`` are drawn with P(k) ∝ 1/(k+1)^s, so dimension row 0 is
    the hottest join partner. 0.0 keeps the uniform draw (and the exact
    seed-for-seed data of older configs); 1.0–1.5 is realistic skew.
    This is what makes histograms and MCV-aware join estimates earn
    their keep in experiment E15."""
    hot_category_fraction: float = 0.0
    """Probability that a dimension row's ``cat`` is the hot category
    (0) instead of a uniform draw — the hot/cold category knob for
    group-by estimate studies. 0.0 keeps the uniform draw."""


_AGG_FUNCS = ("sum", "avg", "min", "max", "count")
_FACT_MEASURES = ("qty", "price")


def _maybe_null(rng: random.Random, value, fraction: float):
    return None if fraction > 0 and rng.random() < fraction else value


class ZipfSampler:
    """Zipf-distributed ranks in ``[0, n)``: ``P(k) ∝ 1/(k+1)^s``.

    Sampling inverts a precomputed CDF, so a draw costs one
    ``rng.random()`` plus a binary search — cheap enough for
    million-row fact loads."""

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError("ZipfSampler needs a non-empty domain")
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random())


def _fk_sampler(config: RandomQueryConfig) -> Optional[ZipfSampler]:
    if config.zipf_skew > 0:
        return ZipfSampler(config.dim_rows, config.zipf_skew)
    return None


def _category(
    rng: random.Random, config: RandomQueryConfig, populated: int
) -> int:
    # The zero-probability branch draws nothing, keeping older configs'
    # rng streams (and therefore their data) bit-identical.
    if (
        config.hot_category_fraction > 0
        and rng.random() < config.hot_category_fraction
    ):
        return 0
    return rng.randrange(populated)


def build_star_database(config: RandomQueryConfig) -> Database:
    """A small star schema: fact(f) referencing dim1/dim2.

    With ``null_fraction > 0`` the measure columns and the dim ``cat``
    keys carry NULLs (and fact rows with ``flag = 2`` always have a
    NULL ``qty``); ``empty_categories`` keeps the top of the ``cat``
    domain unpopulated. Both knobs default off."""
    rng = random.Random(config.seed)
    populated = max(1, config.categories - config.empty_categories)
    nullable = (
        ["cat", "val"] if config.null_fraction > 0 else None
    )
    db = Database(CostParams(memory_pages=config.memory_pages))
    db.create_table(
        "dim1",
        [("d1_id", "int"), ("cat", "int"), ("val", "float")],
        primary_key=["d1_id"],
        nullable=nullable,
    )
    db.create_table(
        "dim2",
        [("d2_id", "int"), ("cat", "int"), ("val", "float")],
        primary_key=["d2_id"],
        nullable=nullable,
    )
    db.create_table(
        "fact",
        [
            ("f_id", "int"),
            ("d1_id", "int"),
            ("d2_id", "int"),
            ("qty", "float"),
            ("price", "float"),
            ("flag", "int"),
        ],
        primary_key=["f_id"],
        nullable=["qty", "price"] if config.null_fraction > 0 else None,
    )
    for dim in ("dim1", "dim2"):
        db.insert(
            dim,
            [
                (
                    i,
                    _maybe_null(
                        rng,
                        _category(rng, config, populated),
                        config.null_fraction,
                    ),
                    _maybe_null(
                        rng,
                        float(rng.randint(0, 100)),
                        config.null_fraction,
                    ),
                )
                for i in range(config.dim_rows)
            ],
        )
    sampler = _fk_sampler(config)
    fact_rows = []
    for i in range(config.fact_rows):
        if sampler is not None:
            d1 = sampler.sample(rng)
            d2 = sampler.sample(rng)
        else:
            d1 = rng.randrange(config.dim_rows)
            d2 = rng.randrange(config.dim_rows)
        qty = _maybe_null(
            rng, float(rng.randint(1, 50)), config.null_fraction
        )
        price = _maybe_null(
            rng, float(rng.randint(10, 500)), config.null_fraction
        )
        flag = rng.randrange(3)
        if flag == 2 and config.null_fraction > 0:
            qty = None  # guaranteed all-NULL qty group under flag
        fact_rows.append((i, d1, d2, qty, price, flag))
    db.insert("fact", fact_rows)
    db.create_index("fact_d1_idx", "fact", ["d1_id"])
    db.create_index("fact_d2_idx", "fact", ["d2_id"])
    db.add_foreign_key("fact", ["d1_id"], "dim1", ["d1_id"])
    db.add_foreign_key("fact", ["d2_id"], "dim2", ["d2_id"])
    db.analyze()
    return db


def random_queries(
    config: Optional[RandomQueryConfig] = None,
) -> Tuple[Database, List[CanonicalQuery]]:
    """Build the star database and a list of random canonical queries."""
    config = config or RandomQueryConfig()
    db = build_star_database(config)
    rng = random.Random(config.seed + 1)
    queries = [
        _random_query(rng, index, config) for index in range(config.queries)
    ]
    return db, queries


def _random_view(
    rng: random.Random, name: str, config: RandomQueryConfig
) -> Tuple[AggregateView, str, str]:
    """One aggregate view over the fact table (optionally joined to a
    dimension). Returns (view, group output name, aggregate output
    name); the group output is always a fact FK column usable for
    joining outside."""
    fact_alias = f"{name}_f"
    group_column = rng.choice(("d1_id", "d2_id"))
    relations: List[TableRef] = [TableRef("fact", fact_alias)]
    predicates: List[Expression] = []

    if rng.random() < 0.4:
        # join a dimension inside the view (tests invariant splitting)
        dim = "dim1" if group_column == "d1_id" else "dim2"
        dim_alias = f"{name}_d"
        relations.append(TableRef(dim, dim_alias))
        predicates.append(
            Comparison(
                "=",
                ColumnRef(fact_alias, group_column),
                ColumnRef(dim_alias, f"{group_column}"),
            )
        )
        if rng.random() < 0.5:
            predicates.append(
                Comparison(
                    "<",
                    ColumnRef(dim_alias, "val"),
                    lit(float(rng.randint(30, 90))),
                )
            )
    if rng.random() < 0.5:
        predicates.append(
            Comparison(
                "=", ColumnRef(fact_alias, "flag"), lit(rng.randrange(3))
            )
        )

    func = rng.choice(_AGG_FUNCS)
    measure = rng.choice(_FACT_MEASURES)
    agg_arg = None if func == "count" else ColumnRef(fact_alias, measure)
    aggregates = (("agg_out", AggregateCall(func, agg_arg)),)
    having: Tuple[Expression, ...] = ()
    if rng.random() < 0.3 and func in ("sum", "avg", "min", "max"):
        having = (
            Comparison(">", ColumnRef(None, "agg_out"), lit(0.0)),
        )
    block = QueryBlock(
        relations=tuple(relations),
        predicates=tuple(predicates),
        group_by=(ColumnRef(fact_alias, group_column),),
        aggregates=aggregates,
        having=having,
        select=(
            ("gkey", ColumnRef(fact_alias, group_column)),
            ("agg_out", ColumnRef(None, "agg_out")),
        ),
    )
    return AggregateView(alias=name, block=block), "gkey", "agg_out"


def _random_query(
    rng: random.Random, index: int, config: RandomQueryConfig
) -> CanonicalQuery:
    view_count = rng.randint(1, config.max_views)
    views: List[AggregateView] = []
    view_info: List[Tuple[str, str, str]] = []
    for v in range(view_count):
        name = f"q{index}v{v}"
        view, group_out, agg_out = _random_view(rng, name, config)
        views.append(view)
        view_info.append((name, group_out, agg_out))

    base_tables: List[TableRef] = []
    predicates: List[Expression] = []
    select: List[Tuple[str, Expression]] = []

    # Join each view to a dimension (or to the first view) on its key.
    anchor_dim = rng.choice(("dim1", "dim2"))
    dim_alias = f"q{index}dim"
    dim_key = "d1_id" if anchor_dim == "dim1" else "d2_id"
    base_tables.append(TableRef(anchor_dim, dim_alias))
    first_alias, first_group, first_agg = view_info[0]
    # views group on d1_id or d2_id of fact; join to the matching dim
    first_view = views[0]
    group_source = first_view.block.group_by[0].name  # d1_id or d2_id
    if (group_source == "d1_id") != (anchor_dim == "dim1"):
        anchor_dim = "dim1" if group_source == "d1_id" else "dim2"
        dim_key = "d1_id" if anchor_dim == "dim1" else "d2_id"
        base_tables[0] = TableRef(anchor_dim, dim_alias)
    predicates.append(
        Comparison(
            "=",
            ColumnRef(dim_alias, dim_key),
            ColumnRef(first_alias, first_group),
        )
    )
    if rng.random() < 0.6:
        predicates.append(
            Comparison(
                "<", ColumnRef(dim_alias, "val"), lit(float(rng.randint(20, 95)))
            )
        )
    if rng.random() < 0.5:
        predicates.append(
            Comparison(
                ">", ColumnRef(first_alias, first_agg), lit(float(rng.randint(0, 50)))
            )
        )
    for extra_alias, extra_group, extra_agg in view_info[1:]:
        predicates.append(
            Comparison(
                "=",
                ColumnRef(first_alias, first_group),
                ColumnRef(extra_alias, extra_group),
            )
        )

    grouped = rng.random() < 0.4
    if grouped:
        group_by = (ColumnRef(dim_alias, "cat"),)
        func = rng.choice(("sum", "avg", "max", "min"))
        aggregates = (
            (
                "outer_agg",
                AggregateCall(func, ColumnRef(first_alias, first_agg)),
            ),
        )
        having: Tuple[Expression, ...] = ()
        if rng.random() < 0.4:
            having = (
                Comparison(">", ColumnRef(None, "outer_agg"), lit(1.0)),
            )
        select = [
            ("cat", ColumnRef(dim_alias, "cat")),
            ("outer_agg", ColumnRef(None, "outer_agg")),
        ]
        return CanonicalQuery(
            base_tables=tuple(base_tables),
            views=tuple(views),
            predicates=tuple(predicates),
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            select=tuple(select),
        )

    select = [
        ("dim_val", ColumnRef(dim_alias, "val")),
        ("view_agg", ColumnRef(first_alias, first_agg)),
    ]
    for extra_alias, _, extra_agg in view_info[1:]:
        select.append((f"{extra_alias}_agg", ColumnRef(extra_alias, extra_agg)))
    return CanonicalQuery(
        base_tables=tuple(base_tables),
        views=tuple(views),
        predicates=tuple(predicates),
        select=tuple(select),
    )
