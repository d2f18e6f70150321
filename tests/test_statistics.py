"""The statistics subsystem: NULL-aware collection, histograms, MCVs,
block-sampled ANALYZE, staleness-driven refresh, the ANALYZE statement,
and the estimate-vs-actual feedback loop."""

import pytest

from repro.algebra.plan import GroupByNode, JoinNode, plan_nodes
from repro.db import Database
from repro.errors import CatalogError, SqlSyntaxError
from repro.stats import (
    EXACT,
    UNIFORM,
    StatsConfig,
    StatsConfig as _StatsConfig,  # noqa: F401 (re-export sanity)
    build_histogram,
    estimate_ndv,
    median,
    percentile,
    q_error,
    sample_pages,
)
from repro.stats.collect import analyze_table
from repro.workloads.generator import (
    RandomQueryConfig,
    build_star_database,
)


def make_db(rows, nullable=("v",), stats_config=None):
    db = Database(stats_config=stats_config)
    db.create_table(
        "t",
        [("k", "int"), ("v", "int")],
        primary_key=["k"],
        nullable=list(nullable) if nullable else None,
    )
    db.insert("t", rows)
    return db


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


class TestHistogram:
    def test_equi_depth_fractions(self):
        hist = build_histogram([float(i) for i in range(100)], 4)
        assert hist is not None
        assert hist.fraction_below(0.0, inclusive=False) == 0.0
        assert hist.fraction_below(50.0, inclusive=False) == pytest.approx(
            0.5, abs=0.05
        )
        assert hist.fraction_below(99.0, inclusive=True) == pytest.approx(
            1.0
        )

    def test_ties_never_straddle_buckets(self):
        # 90 copies of one value squeezed into 4 buckets: edges get
        # pushed past the run, so bounds stay strictly increasing (the
        # tie never becomes a zero-width straddled boundary) and the
        # run's whole mass sits between 5 and 6.
        values = sorted([5.0] * 90 + [float(i) for i in range(10)])
        hist = build_histogram(values, 4)
        assert all(
            lo < hi for lo, hi in zip(hist.bounds, hist.bounds[1:])
        )
        # The whole run landed in a single bucket...
        assert max(hist.fractions) >= 0.9
        # ...and every row is accounted for exactly once.
        assert sum(hist.fractions) == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        empty = build_histogram([], 4)
        assert empty.num_buckets == 0
        assert empty.fraction_below(1.0, inclusive=True) == 0.0
        single = build_histogram([1.0], 4)
        assert single.fraction_below(1.0, inclusive=True) == pytest.approx(
            1.0
        )
        assert single.fraction_below(0.5, inclusive=False) == 0.0


# ----------------------------------------------------------------------
# NULL handling (regression: NULLs inflated NDV and killed min/max)
# ----------------------------------------------------------------------


class TestNullHandling:
    def test_nulls_excluded_from_ndv_and_range(self):
        db = make_db([(0, None), (1, 5), (2, 5), (3, 9), (4, None)])
        stats = db.catalog.stats("t")
        column = stats.column("v")
        assert column.n_distinct == 2  # {5, 9}; NULLs don't count
        assert column.null_count == 2
        assert column.min_value == 5
        assert column.max_value == 9
        assert column.null_fraction(stats.row_count) == pytest.approx(0.4)

    def test_all_null_column(self):
        db = make_db([(0, None), (1, None)])
        column = db.catalog.stats("t").column("v")
        assert column.n_distinct == 0
        assert column.null_count == 2
        assert column.min_value is None

    def test_range_filter_estimate_survives_nulls(self):
        # Before the refactor a single NULL raised TypeError inside
        # min()/max(), which was swallowed and the range estimate
        # silently degraded to NDV-only. With the generator's
        # null_fraction knob the estimate must stay selective.
        config = RandomQueryConfig(
            seed=3, fact_rows=600, dim_rows=20, null_fraction=0.2
        )
        db = build_star_database(config)
        stats = db.catalog.stats("fact")
        qty = stats.column("qty")
        assert qty.null_count > 0
        assert qty.min_value is not None and qty.max_value is not None
        result = db.query(
            "select f.f_id from fact f where f.qty < 5.0", execute=False
        )
        estimated = result.plan.props.rows
        # qty spans [1, 50]: a `< 5` filter must not estimate the
        # whole table, and NULLs must discount it further.
        assert estimated < 0.3 * stats.row_count


# ----------------------------------------------------------------------
# Block sampling + Duj1 NDV estimation
# ----------------------------------------------------------------------


class TestSampling:
    def test_sample_pages_deterministic(self):
        config = StatsConfig(sample_fraction=0.25, min_sample_pages=4)
        first = sample_pages("fact", 100, config)
        second = sample_pages("fact", 100, config)
        assert first == second
        assert len(first) == max(4, 25)
        assert all(0 <= p < 100 for p in first)

    def test_estimate_ndv_unique_column(self):
        # All-singleton sample of a unique column scales to the table.
        assert estimate_ndv(500, 500, 500, 2000) == 2000

    def test_estimate_ndv_exhausted_domain(self):
        # No singletons: the sample saw every value often; D ~= d.
        assert estimate_ndv(10, 0, 500, 2000) == 10

    def test_sampled_analyze_respects_page_budget(self):
        rows = [(i, i % 50) for i in range(20000)]
        config = StatsConfig(
            full_scan_pages=4, sample_fraction=0.2, min_sample_pages=4
        )
        db = make_db(rows, nullable=None, stats_config=config)
        stats = db.catalog.stats("t")
        pages = db.catalog.info("t").table.num_pages
        assert pages > config.full_scan_pages
        assert stats.sampled
        budget = max(
            config.min_sample_pages,
            int(pages * config.sample_fraction),
        )
        assert 0 < stats.pages_scanned <= budget
        # Error bounds on the generator-style data: the unique key is
        # recovered exactly by Duj1 scaling, the 50-value column has
        # no singletons so its sample NDV is already complete, and the
        # row count comes from the heap, not the sample.
        assert stats.row_count == 20000
        key_ndv = stats.column("k").n_distinct
        assert 20000 / 3 <= key_ndv <= 20000 * 3
        assert stats.column("v").n_distinct == 50

    def test_exact_preset_never_samples(self):
        rows = [(i, i) for i in range(20000)]
        db = make_db(rows, nullable=None, stats_config=EXACT)
        stats = db.catalog.stats("t")
        assert not stats.sampled
        assert stats.column("k").n_distinct == 20000


# ----------------------------------------------------------------------
# Staleness: inserts must be O(1), refresh lazy and thresholded
# ----------------------------------------------------------------------


class TestStaleness:
    def test_insert_cost_does_not_scale_with_table_size(self):
        # The micro-benchmark behind satellite 2: with the old eager
        # recompute every insert rescanned the table, so N small
        # inserts cost O(N * table). Now the deterministic
        # pages_scanned_total counter must stay flat while growth sits
        # below the staleness threshold, regardless of table size.
        db = make_db([(i, i % 7) for i in range(5000)], nullable=None)
        info = db.catalog.info("t")
        db.catalog.stats("t")  # initial collection
        baseline_scans = info.pages_scanned_total
        baseline_count = info.analyze_count
        for i in range(50):  # 1% growth, well under the 20% threshold
            db.insert("t", [(5000 + i, i)])
            db.catalog.stats("t")
        assert info.pages_scanned_total == baseline_scans
        assert info.analyze_count == baseline_count
        # Row/page counts still track reality without a rescan.
        assert db.catalog.stats("t").row_count == 5050

    def test_growth_past_threshold_triggers_one_reanalyze(self):
        db = make_db([(i, i) for i in range(100)], nullable=None)
        info = db.catalog.info("t")
        db.catalog.stats("t")
        count = info.analyze_count
        db.insert("t", [(100 + i, i) for i in range(30)])  # +30%
        db.catalog.stats("t")
        db.catalog.stats("t")
        assert info.analyze_count == count + 1

    def test_epoch_bumps_on_insert_and_invalidate(self):
        db = make_db([(0, 0)], nullable=None)
        info = db.catalog.info("t")
        epoch = info.stats_epoch
        db.insert("t", [(1, 1)])
        assert info.stats_epoch == epoch + 1
        info.invalidate_stats()
        assert info.stats_epoch == epoch + 2
        assert db.catalog.stats("t").row_count == 2  # lazily recollected


# ----------------------------------------------------------------------
# The ANALYZE statement
# ----------------------------------------------------------------------


class TestAnalyzeStatement:
    def test_analyze_all_and_single_table(self):
        db = make_db([(0, 1), (1, 2)])
        info = db.catalog.info("t")
        count = info.analyze_count
        assert db.execute("analyze t") is None
        assert info.analyze_count == count + 1
        assert db.execute("ANALYZE") is None
        assert info.analyze_count == count + 2

    def test_analyze_matview_resolves_to_backing(self):
        db = make_db([(0, 1), (1, 2), (2, 2)])
        db.execute(
            "create materialized view mv as "
            "select t.v, count(t.k) as c from t group by t.v"
        )
        backing = db.catalog._matviews["mv"].backing_name
        backing_info = db.catalog.info(backing)
        count = backing_info.analyze_count
        assert db.analyze("mv") == ["mv"]
        assert backing_info.analyze_count == count + 1

    def test_analyze_unknown_table_fails(self):
        db = make_db([(0, 1)])
        with pytest.raises(CatalogError, match="nope"):
            db.execute("analyze nope")

    def test_analyze_trailing_input_fails(self):
        db = make_db([(0, 1)])
        with pytest.raises(SqlSyntaxError):
            db.execute("analyze t extra")
        with pytest.raises(SqlSyntaxError):
            db.execute("analyze 123")


# ----------------------------------------------------------------------
# Feedback: q-error through explain(analyze=True)
# ----------------------------------------------------------------------


class TestFeedback:
    def test_q_error_symmetry_and_floor(self):
        assert q_error(100, 100) == 1.0
        assert q_error(10, 1000) == q_error(1000, 10) == 100.0
        assert q_error(0.0, 0) == 1.0  # both floored at one row

    def test_median_and_percentile(self):
        values = [1.0, 2.0, 4.0, 8.0]
        assert median(values) == 3.0
        assert percentile(values, 0.95) == 8.0
        assert percentile(values, 0.5) in (2.0, 4.0)

    def test_explain_analyze_reports_q_error(self):
        db = make_db([(i, i % 5) for i in range(200)], nullable=None)
        result = db.query("select t.v, count(t.k) as c from t group by t.v")
        text = result.explain(analyze=True)
        assert "actual rows=" in text
        assert "q=" in text
        records = result.q_errors()
        assert records
        assert all(r.q_error >= 1.0 for r in records)
        assert any("Scan" in r.operator for r in records)


# ----------------------------------------------------------------------
# Workload skew knobs
# ----------------------------------------------------------------------


class TestSkewKnobs:
    def test_zero_skew_keeps_legacy_data_bit_identical(self):
        base = RandomQueryConfig(seed=5, fact_rows=300, dim_rows=30)
        skewless = RandomQueryConfig(
            seed=5, fact_rows=300, dim_rows=30, zipf_skew=0.0,
            hot_category_fraction=0.0,
        )
        rows_a = build_star_database(base).catalog.table("fact").rows
        rows_b = build_star_database(skewless).catalog.table("fact").rows
        assert rows_a == rows_b

    def test_zipf_skew_makes_key_zero_hot(self):
        db = build_star_database(
            RandomQueryConfig(seed=5, fact_rows=2000, dim_rows=50,
                              zipf_skew=1.3)
        )
        counts = [0] * 50
        for row in db.catalog.table("fact").rows:
            counts[row[1]] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 5 * (sum(counts[25:]) / 25)

    def test_hot_category_fraction_concentrates_cat_zero(self):
        db = build_star_database(
            RandomQueryConfig(seed=5, dim_rows=400, categories=8,
                              hot_category_fraction=0.5)
        )
        cats = [row[1] for row in db.catalog.table("dim1").rows]
        assert cats.count(0) > 0.4 * len(cats)


# ----------------------------------------------------------------------
# Collection internals reachable without a Database
# ----------------------------------------------------------------------


class TestAnalyzeTable:
    def test_uniform_preset_reduces_to_system_r(self):
        db = make_db([(i, i % 10) for i in range(1000)], nullable=None)
        table = db.catalog.table("t")
        stats = analyze_table(table, UNIFORM)
        column = stats.column("v")
        assert column.mcvs == ()
        assert column.histogram is None
        assert column.n_distinct == 10

    def test_mcvs_only_for_genuinely_common_values(self):
        # 500 copies of one value against a uniform tail: only the hot
        # value clears the 2x-average bar, so uniform columns carry no
        # MCVs at all and estimates reduce to 1/NDV exactly.
        rows = [(i, 7 if i < 500 else i) for i in range(1000)]
        db = make_db(rows, nullable=None)
        column = db.catalog.stats("t").column("v")
        mcv_values = [value for value, _ in column.mcvs]
        assert mcv_values == [7]
        assert dict(column.mcvs)[7] == pytest.approx(0.5)
        uniform = db.catalog.stats("t").column("k")
        assert uniform.mcvs == ()


# ----------------------------------------------------------------------
# Acceptance bars on a Zipf-skewed star (EXPERIMENTS.md E15, CI size)
# ----------------------------------------------------------------------


def _restat(db, config):
    db.catalog.stats_config = config
    for name in db.catalog.table_names():
        db.catalog.info(name).invalidate_stats()
    db.analyze()


class TestSkewedStarBars:
    """Hot keys are where uniform NDV division is most wrong; MCVs and
    histograms must earn their keep there, at a fixed seed."""

    QUERIES = [
        "select d.val as v, f.qty as q from fact f, dim1 d "
        "where f.d1_id = d.d1_id and f.d1_id = 0",
        "select d.val as v, f.price as p from fact f, dim2 d "
        "where f.d2_id = d.d2_id and f.d2_id = 1",
        "select f.f_id, sum(f.qty) as s from fact f "
        "where f.d1_id = 0 group by f.f_id",
        "select f.d2_id, sum(f.qty) as s from fact f "
        "where f.d1_id = 0 group by f.d2_id",
        "select f.flag, count(f.f_id) as c from fact f "
        "where f.d1_id < 10 group by f.flag",
    ]

    @pytest.fixture(scope="class")
    def star_db(self):
        return build_star_database(
            RandomQueryConfig(
                seed=7, fact_rows=4000, dim_rows=200, zipf_skew=1.3
            )
        )

    def _join_group_q_errors(self, db):
        return [
            q_error(node.props.rows, result.exec_metrics.actual_rows(node))
            for result in map(db.query, self.QUERIES)
            for node in plan_nodes(result.plan)
            if isinstance(node, (JoinNode, GroupByNode))
        ]

    def test_median_join_groupby_q_error_improves_5x(self, star_db):
        _restat(star_db, UNIFORM)
        uniform = median(self._join_group_q_errors(star_db))
        _restat(star_db, StatsConfig())
        informed = median(self._join_group_q_errors(star_db))
        assert uniform >= 5 * informed

    def test_mcv_estimate_flips_the_hot_key_probe_to_a_cheaper_plan(
        self, star_db
    ):
        probe = "select f.qty from fact f where f.d1_id = 0"
        _restat(star_db, UNIFORM)
        blind = star_db.query(probe)
        _restat(star_db, StatsConfig())
        informed = star_db.query(probe)
        assert informed.explain() != blind.explain()
        assert informed.executed_io.total < blind.executed_io.total

    def test_sampled_analyze_ndv_within_3x_on_every_column(self, star_db):
        table = star_db.catalog.info("fact").table
        pages = table.num_pages
        _restat(star_db, EXACT)
        exact = star_db.catalog.stats("fact")
        config = StatsConfig(
            full_scan_pages=max(1, pages // 4),
            sample_fraction=0.25,
            min_sample_pages=max(4, pages // 20),
        )
        _restat(star_db, config)
        sampled = star_db.catalog.stats("fact")
        assert sampled.sampled
        assert sampled.pages_scanned <= max(
            config.min_sample_pages, int(pages * config.sample_fraction)
        )
        assert sampled.row_count == table.num_rows
        for name in ("f_id", "d1_id", "d2_id", "qty", "flag"):
            ratio = sampled.column(name).n_distinct / max(
                1.0, exact.column(name).n_distinct
            )
            assert 1 / 3 <= ratio <= 3, (name, ratio)
