"""Selectivity and cardinality estimation over column statistics.

Every plan node gets per-column metadata (:class:`ColMeta`) propagated
bottom-up. The base formulas are the classic System R ones —
``1/V(col)`` for equality with a literal or a ``$n``, range fractions
for inequalities, ``1/max(V(a), V(b))`` for equi-joins, a fixed 1/3
default elsewhere — refined by the distribution detail the statistics
subsystem collects:

- **Null fractions** discount equality/range/join selectivities by the
  non-null fraction (NULL compares to nothing and joins with nothing).
- **MCV lists** answer equality with a known-common literal exactly and
  split equi-join selectivity into a matched-MCV part and a residual
  (the Postgres ``eqjoinsel`` shape), which is where skewed join
  estimates stop being off by orders of magnitude.
- **Equi-depth histograms** answer range predicates by bucket
  interpolation instead of a straight line between min and max.

All refinements degrade exactly to the System R formulas when the
statistics carry no MCVs, no histogram, and no nulls — uniform data
costs nothing and estimates stay bit-identical to the uniform model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..algebra.expressions import (
    And,
    Comparison,
    Expression,
    FieldKey,
    Literal,
    Not,
    Or,
    comparison_with_literal,
    comparison_with_parameter,
    equijoin_sides,
)
from ..stats.collect import ColumnStats
from ..stats.histogram import EquiDepthHistogram

DEFAULT_SELECTIVITY = 1.0 / 3.0
"""Fallback predicate selectivity when statistics cannot say better
(System R's 1/3-style default)."""

HAVING_SELECTIVITY = 1.0 / 3.0
"""Fallback selectivity of a HAVING conjunct over aggregate outputs,
where no column statistics exist."""


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ColMeta:
    """Estimator's knowledge about one column of an intermediate result.

    Field order up to ``max_value`` is public API (callers construct
    ``ColMeta(ndv, min_value, max_value)`` positionally); distribution
    fields append after it with neutral defaults.
    """

    ndv: float
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    null_frac: float = 0.0
    mcvs: Tuple[Tuple[Any, float], ...] = ()
    histogram: Optional[EquiDepthHistogram] = None

    @classmethod
    def from_stats(
        cls, stats: Optional[ColumnStats], rows: float
    ) -> "ColMeta":
        if stats is None or (stats.n_distinct == 0 and stats.null_count == 0):
            return cls(ndv=max(1.0, rows))
        if stats.n_distinct == 0:
            # All-NULL column: one "value class", everything filtered by
            # the null fraction.
            return cls(ndv=1.0, null_frac=1.0)
        low = stats.min_value if _is_number(stats.min_value) else None
        high = stats.max_value if _is_number(stats.max_value) else None
        return cls(
            ndv=float(stats.n_distinct),
            min_value=low,
            max_value=high,
            null_frac=stats.null_fraction(int(rows)),
            mcvs=stats.mcvs,
            histogram=stats.histogram,
        )

    def clamped(self, rows: float) -> "ColMeta":
        """Distinct values can never exceed the row count."""
        if 1.0 <= self.ndv <= rows:
            return self
        return self.with_ndv(max(1.0, min(self.ndv, rows)))

    def with_ndv(self, ndv: float) -> "ColMeta":
        """This column with its distinct count replaced (every other
        distribution detail kept)."""
        if ndv == self.ndv:
            return self
        return ColMeta(
            ndv,
            self.min_value,
            self.max_value,
            self.null_frac,
            self.mcvs,
            self.histogram,
        )

    @property
    def mcv_total_fraction(self) -> float:
        return sum(fraction for _, fraction in self.mcvs)


ColMetaMap = Dict[FieldKey, ColMeta]

_UNKNOWN = ColMeta(ndv=1.0)


class CardinalityEstimator:
    """Stateless selectivity arithmetic over :class:`ColMeta` maps."""

    # ------------------------------------------------------------------
    # Predicate selectivity
    # ------------------------------------------------------------------

    def selectivity(self, predicate: Expression, meta: ColMetaMap) -> float:
        """Estimated fraction of rows satisfying *predicate*."""
        if isinstance(predicate, And):
            result = 1.0
            for item in predicate.items:
                result *= self.selectivity(item, meta)
            return result
        if isinstance(predicate, Or):
            miss = 1.0
            for item in predicate.items:
                miss *= 1.0 - self.selectivity(item, meta)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return max(0.0, 1.0 - self.selectivity(predicate.item, meta))
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, meta)
        if isinstance(predicate, Literal):
            return 1.0 if predicate.value else 0.0
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self, predicate: Comparison, meta: ColMetaMap
    ) -> float:
        literal_form = comparison_with_literal(predicate)
        if literal_form is not None:
            key, op, value = literal_form
            return self._literal_selectivity(meta.get(key), op, value)
        sides = equijoin_sides(predicate)
        if sides is not None:
            return self.equijoin_selectivity(
                meta.get(sides[0]), meta.get(sides[1])
            )
        parameter_form = comparison_with_parameter(predicate)
        if parameter_form is not None and parameter_form[1] == "=":
            # ``col = $n``: a value not seen yet. A Parameter equals no
            # MCV, so this is the non-MCV share ("otherdistinct", or
            # 1/NDV without MCVs) — what the bound value will cost
            # unless it happens to be a common one.
            key, _, parameter = parameter_form
            return self.eq_selectivity(meta.get(key), parameter)
        return DEFAULT_SELECTIVITY

    def eq_selectivity(self, column: Optional[ColMeta], value: Any) -> float:
        """Selectivity of ``col = value`` — the MCV-aware equality
        estimate, also used to size index probes. *value* is a literal
        key or an unbound ``Parameter``, which matches no MCV."""
        if column is None:
            return DEFAULT_SELECTIVITY
        return self._eq_fraction(column, value) * (1.0 - column.null_frac)

    def _eq_fraction(self, column: ColMeta, value: Any) -> float:
        """Fraction of *non-null* rows equal to *value*."""
        for mcv_value, fraction in column.mcvs:
            if mcv_value == value:
                return fraction
        if column.mcvs:
            # Not a common value: the non-MCV mass spread over the
            # remaining distinct values (the Postgres "otherdistinct"
            # rule).
            other = max(0.0, 1.0 - column.mcv_total_fraction)
            remaining = max(1.0, column.ndv - len(column.mcvs))
            return other / remaining
        return 1.0 / max(1.0, column.ndv)

    def _literal_selectivity(
        self, column: Optional[ColMeta], op: str, value: object
    ) -> float:
        if column is None:
            return DEFAULT_SELECTIVITY
        non_null = 1.0 - column.null_frac
        if op == "=":
            return self._eq_fraction(column, value) * non_null
        if op == "!=":
            return max(0.0, 1.0 - self._eq_fraction(column, value)) * non_null
        if not _is_number(value):
            return DEFAULT_SELECTIVITY
        # Range predicate over the histogram (plus MCVs in range) when
        # the column has one; linear min/max interpolation otherwise.
        histogram = column.histogram
        if histogram is not None and histogram.fractions:
            return min(
                1.0, self._range_fraction(column, op, float(value))
            ) * non_null
        if (
            column.min_value is not None
            and column.max_value is not None
            and column.max_value > column.min_value
        ):
            span = float(column.max_value) - float(column.min_value)
            if op in ("<", "<="):
                fraction = (float(value) - float(column.min_value)) / span
            else:  # > or >=
                fraction = (float(column.max_value) - float(value)) / span
            floor = 1.0 / max(1.0, column.ndv)
            return min(1.0, max(floor, fraction)) * non_null
        return DEFAULT_SELECTIVITY

    def _range_fraction(self, column: ColMeta, op: str, value: float) -> float:
        """Non-null fraction satisfying a range op, composing the MCV
        list with the histogram over the remaining values."""
        histogram = column.histogram
        assert histogram is not None
        if op == "<":
            base = histogram.fraction_below(value, inclusive=False)
        elif op == "<=":
            base = histogram.fraction_below(value, inclusive=True)
        elif op == ">":
            base = 1.0 - histogram.fraction_below(value, inclusive=True)
        else:  # >=
            base = 1.0 - histogram.fraction_below(value, inclusive=False)
        mcv_part = sum(
            fraction
            for mcv_value, fraction in column.mcvs
            if _is_number(mcv_value)
            and _op_holds(float(mcv_value), op, value)
        )
        other = max(0.0, 1.0 - column.mcv_total_fraction)
        return max(0.0, mcv_part + other * base)

    # ------------------------------------------------------------------
    # Join and grouping cardinalities
    # ------------------------------------------------------------------

    def equijoin_selectivity(
        self, left: Optional[ColMeta], right: Optional[ColMeta]
    ) -> float:
        """Selectivity of ``a = b`` across two inputs.

        With MCV lists on both sides, the estimate decomposes the way
        Postgres's ``eqjoinsel`` does: the matched common values
        contribute their exact frequency product, each side's unmatched
        common mass meets the other side's residual mass at one value's
        share, and the two residual masses meet at
        ``1/max(residual distinct counts)``. Without MCVs this is
        exactly ``1/max(V(a), V(b))``.
        """
        left = left or _UNKNOWN
        right = right or _UNKNOWN
        non_null = (1.0 - left.null_frac) * (1.0 - right.null_frac)
        if left.mcvs and right.mcvs:
            right_map = dict(right.mcvs)
            match = 0.0
            matched_left = 0.0
            matched_right = 0.0
            for value, fraction in left.mcvs:
                other = right_map.get(value)
                if other is not None:
                    match += fraction * other
                    matched_left += fraction
                    matched_right += other
            total_left = left.mcv_total_fraction
            total_right = right.mcv_total_fraction
            unmatched_left = max(0.0, total_left - matched_left)
            unmatched_right = max(0.0, total_right - matched_right)
            other_left = max(0.0, 1.0 - total_left)
            other_right = max(0.0, 1.0 - total_right)
            nd_left = max(1.0, left.ndv - len(left.mcvs))
            nd_right = max(1.0, right.ndv - len(right.mcvs))
            selectivity = (
                match
                + unmatched_left * other_right / nd_right
                + unmatched_right * other_left / nd_left
                + other_left * other_right / max(nd_left, nd_right)
            )
            return min(1.0, selectivity) * non_null
        return non_null / max(left.ndv, right.ndv, 1.0)

    def join_rows(
        self,
        left_rows: float,
        right_rows: float,
        equi_keys: Tuple[Tuple[FieldKey, FieldKey], ...],
        residuals: Tuple[Expression, ...],
        meta: ColMetaMap,
    ) -> float:
        rows = left_rows * right_rows
        for left_key, right_key in equi_keys:
            rows *= self.equijoin_selectivity(
                meta.get(left_key), meta.get(right_key)
            )
        for predicate in residuals:
            rows *= self.selectivity(predicate, meta)
        return max(0.0, rows)

    def group_rows(
        self,
        input_rows: float,
        group_keys: Tuple[FieldKey, ...],
        meta: ColMetaMap,
    ) -> float:
        """Estimated group count: product of key NDVs capped by rows."""
        if input_rows <= 0:
            return 0.0
        distinct = 1.0
        for key in group_keys:
            distinct *= meta[key].ndv if key in meta else input_rows
            if distinct >= input_rows:
                return input_rows
        return max(1.0, min(distinct, input_rows))

    def partial_group_rows(
        self,
        input_rows: float,
        group_keys: Tuple[FieldKey, ...],
        meta: ColMetaMap,
    ) -> Tuple[float, float]:
        """Estimated ``(groups, reduction)`` of an eager partial
        group-by below a join: the NDV-based group count of
        :meth:`group_rows` plus the collapse factor ``input_rows /
        groups`` (≥ 1.0). The optimizer's eager-aggregation step uses
        the reduction to skip generating alternatives the statistics
        say cannot shrink their input."""
        groups = self.group_rows(input_rows, group_keys, meta)
        if groups <= 0:
            return 0.0, 1.0
        return groups, max(1.0, input_rows / groups)

    def having_selectivity(
        self, predicate: Expression, meta: ColMetaMap
    ) -> float:
        """Selectivity of a HAVING conjunct. Conjuncts over grouping
        columns use normal statistics; anything touching an aggregate
        output falls back to the HAVING default."""
        known = all(key in meta for key in predicate.columns())
        if known:
            return self.selectivity(predicate, meta)
        return HAVING_SELECTIVITY


def _op_holds(left: float, op: str, right: float) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right
