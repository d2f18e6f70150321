"""Unit tests for the Selinger-style selectivity/cardinality estimator."""

import pytest

from repro.algebra.expressions import (
    And,
    Comparison,
    Literal,
    Not,
    Or,
    Parameter,
    col,
    lit,
)
from repro.cost.cardinality import (
    DEFAULT_SELECTIVITY,
    HAVING_SELECTIVITY,
    CardinalityEstimator,
    ColMeta,
)


@pytest.fixture
def estimator():
    return CardinalityEstimator()


@pytest.fixture
def meta():
    return {
        ("e", "dno"): ColMeta(ndv=10, min_value=0, max_value=9),
        ("e", "sal"): ColMeta(ndv=100, min_value=0, max_value=1000),
        ("d", "dno"): ColMeta(ndv=20, min_value=0, max_value=19),
        ("e", "name"): ColMeta(ndv=50),  # no numeric range
    }


class TestLiteralSelectivity:
    def test_equality_is_one_over_ndv(self, estimator, meta):
        predicate = Comparison("=", col("e.dno"), lit(3))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.1)

    def test_inequality_uses_range(self, estimator, meta):
        predicate = Comparison("<", col("e.sal"), lit(250))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.25)

    def test_greater_than_uses_range(self, estimator, meta):
        predicate = Comparison(">", col("e.sal"), lit(750))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.25)

    def test_not_equal(self, estimator, meta):
        predicate = Comparison("!=", col("e.dno"), lit(3))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.9)

    def test_range_without_stats_uses_default(self, estimator, meta):
        predicate = Comparison("<", col("e.name"), lit("m"))
        assert estimator.selectivity(predicate, meta) == pytest.approx(
            DEFAULT_SELECTIVITY
        )

    def test_unknown_column_uses_default(self, estimator, meta):
        predicate = Comparison("=", col("zz.q"), lit(1))
        assert estimator.selectivity(predicate, meta) == pytest.approx(
            DEFAULT_SELECTIVITY
        )

    def test_selectivity_floor_at_one_over_ndv(self, estimator, meta):
        # below the minimum: clamped to 1/ndv, never zero
        predicate = Comparison("<", col("e.sal"), lit(-100))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.01)

    def test_selectivity_capped_at_one(self, estimator, meta):
        predicate = Comparison("<", col("e.sal"), lit(99999))
        assert estimator.selectivity(predicate, meta) == 1.0

    def test_flipped_literal_side(self, estimator, meta):
        predicate = Comparison(">", lit(250), col("e.sal"))  # sal < 250
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.25)


class TestParameterSelectivity:
    """``col = $n`` is equality with a value not seen yet."""

    def test_equality_is_one_over_ndv(self, estimator, meta):
        predicate = Comparison("=", col("e.dno"), Parameter(1))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.1)
        assert estimator.selectivity(
            predicate, meta
        ) == estimator.selectivity(Comparison("=", col("e.dno"), lit(3)), meta)

    def test_flipped_parameter_side(self, estimator, meta):
        predicate = Comparison("=", Parameter(2), col("e.sal"))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.01)

    def test_equality_takes_the_non_mcv_share_and_skips_nulls(self, estimator):
        skewed = {
            ("t", "k"): ColMeta(
                ndv=12, null_frac=0.2, mcvs=((7, 0.5), (9, 0.3))
            )
        }
        predicate = Comparison("=", col("t.k"), Parameter(1))
        # (1 - 0.8) / (12 - 2) of the non-null rows, like a literal that
        # is no MCV -- never the 0.5 the hot key would get.
        assert estimator.selectivity(predicate, skewed) == pytest.approx(
            0.02 * 0.8
        )
        assert estimator.selectivity(
            predicate, skewed
        ) == estimator.selectivity(Comparison("=", col("t.k"), lit(1)), skewed)

    def test_unknown_column_uses_default(self, estimator, meta):
        predicate = Comparison("=", col("zz.q"), Parameter(1))
        assert estimator.selectivity(predicate, meta) == pytest.approx(
            DEFAULT_SELECTIVITY
        )

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "!="])
    def test_other_comparisons_keep_the_default(self, estimator, meta, op):
        for predicate in (
            Comparison(op, col("e.sal"), Parameter(1)),
            Comparison(op, Parameter(1), col("e.sal")),
        ):
            assert estimator.selectivity(predicate, meta) == pytest.approx(
                DEFAULT_SELECTIVITY
            )

    def test_column_free_comparison_keeps_the_default(self, estimator, meta):
        predicate = Comparison("=", Parameter(1), lit(3))
        assert estimator.selectivity(predicate, meta) == pytest.approx(
            DEFAULT_SELECTIVITY
        )


class TestBooleanCombinations:
    def test_and_multiplies(self, estimator, meta):
        predicate = And(
            [
                Comparison("=", col("e.dno"), lit(1)),
                Comparison("<", col("e.sal"), lit(500)),
            ]
        )
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.05)

    def test_or_inclusion_exclusion(self, estimator, meta):
        predicate = Or(
            [
                Comparison("=", col("e.dno"), lit(1)),
                Comparison("=", col("e.dno"), lit(2)),
            ]
        )
        assert estimator.selectivity(predicate, meta) == pytest.approx(
            1 - 0.9 * 0.9
        )

    def test_not_complements(self, estimator, meta):
        predicate = Not(Comparison("=", col("e.dno"), lit(1)))
        assert estimator.selectivity(predicate, meta) == pytest.approx(0.9)

    def test_literal_true_false(self, estimator, meta):
        assert estimator.selectivity(Literal(True), meta) == 1.0
        assert estimator.selectivity(Literal(False), meta) == 0.0


class TestJoinAndGrouping:
    def test_equijoin_one_over_max_ndv(self, estimator, meta):
        rows = estimator.join_rows(
            100.0,
            200.0,
            ((("e", "dno"), ("d", "dno")),),
            (),
            meta,
        )
        assert rows == pytest.approx(100 * 200 / 20)

    def test_residual_scales_join(self, estimator, meta):
        residual = (Comparison("<", col("e.sal"), lit(250)),)
        rows = estimator.join_rows(
            100.0, 200.0, ((("e", "dno"), ("d", "dno")),), residual, meta
        )
        assert rows == pytest.approx(100 * 200 / 20 * 0.25)

    def test_group_rows_product_of_ndv(self, estimator, meta):
        groups = estimator.group_rows(
            1000.0, (("e", "dno"), ("d", "dno")), meta
        )
        assert groups == pytest.approx(200)

    def test_group_rows_capped_by_input(self, estimator, meta):
        groups = estimator.group_rows(
            50.0, (("e", "dno"), ("e", "sal")), meta
        )
        assert groups == 50.0

    def test_group_rows_empty_input(self, estimator, meta):
        assert estimator.group_rows(0.0, (("e", "dno"),), meta) == 0.0

    def test_having_known_columns_use_stats(self, estimator, meta):
        predicate = Comparison("=", col("e.dno"), lit(1))
        assert estimator.having_selectivity(
            predicate, meta
        ) == pytest.approx(0.1)

    def test_having_aggregate_uses_fallback(self, estimator, meta):
        predicate = Comparison(">", col("avg_sal"), lit(10))
        assert estimator.having_selectivity(
            predicate, meta
        ) == pytest.approx(HAVING_SELECTIVITY)


class TestColMeta:
    def test_from_stats_numeric(self):
        from repro.stats.collect import ColumnStats

        meta = ColMeta.from_stats(
            ColumnStats(n_distinct=5, min_value=1, max_value=9), rows=100
        )
        assert meta.ndv == 5 and meta.min_value == 1

    def test_from_stats_none(self):
        meta = ColMeta.from_stats(None, rows=42.0)
        assert meta.ndv == 42.0

    def test_clamped(self):
        meta = ColMeta(ndv=100).clamped(7.0)
        assert meta.ndv == 7.0
        assert ColMeta(ndv=3).clamped(7.0).ndv == 3
