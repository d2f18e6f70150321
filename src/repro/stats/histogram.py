"""Equi-depth histograms over the non-null values of one column.

Each bucket holds (approximately) the same number of rows, so skew shows
up as *narrow* buckets around popular regions instead of tall bars — the
classic trade that makes range selectivity error bounded by roughly one
bucket's fraction regardless of the distribution.

Buckets are stored as ``bounds`` (``len(fractions) + 1`` edges, first is
the column min, last the column max), per-bucket ``fractions`` of the
non-null row count, and per-bucket ``distincts``. The bucket convention
is half-open ``[lo, hi)`` except the last, which is closed — the same
convention SQLite's ``stat4`` and Postgres's ``histogram_bounds`` use.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class EquiDepthHistogram:
    """Bucketed distribution of one column's non-null, orderable values."""

    bounds: Tuple[float, ...]
    fractions: Tuple[float, ...]
    distincts: Tuple[int, ...]

    @property
    def num_buckets(self) -> int:
        return len(self.fractions)

    # -- selectivity ---------------------------------------------------

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Fraction of non-null rows with ``col < value`` (or ``<=``).

        Interpolates linearly inside the bucket containing *value*;
        the ``inclusive`` flag adds one average value's worth of rows
        from that bucket, so ``<=`` and ``<`` differ by roughly the
        equality fraction rather than being conflated.
        """
        if not self.fractions:
            return 0.0
        if value < self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            # Above the max; for inclusive comparisons at exactly the
            # max everything qualifies too.
            if value > self.bounds[-1] or inclusive:
                return 1.0
            return 1.0 - self._point_fraction(len(self.fractions) - 1)
        bucket = min(
            bisect_right(self.bounds, value) - 1, len(self.fractions) - 1
        )
        below = sum(self.fractions[:bucket])
        lo, hi = self.bounds[bucket], self.bounds[bucket + 1]
        if hi > lo:
            below += self.fractions[bucket] * (value - lo) / (hi - lo)
        if inclusive:
            below += self._point_fraction(bucket)
        return min(1.0, max(0.0, below))

    def _point_fraction(self, bucket: int) -> float:
        """One value's share of rows within *bucket*: the bucket's
        fraction spread uniformly over its distinct values."""
        return self.fractions[bucket] / max(1, self.distincts[bucket])


def build_histogram(
    sorted_values: Sequence[float], buckets: int
) -> EquiDepthHistogram:
    """Build an equi-depth histogram from pre-sorted non-null values.

    Bucket edges land on value boundaries (all copies of a value stay in
    one bucket), so heavy hitters collapse their bucket's width to zero
    rather than smearing across neighbours.
    """
    n = len(sorted_values)
    if n == 0 or buckets <= 0:
        return EquiDepthHistogram((), (), ())
    buckets = min(buckets, n)
    bounds: List[float] = [float(sorted_values[0])]
    fractions: List[float] = []
    distincts: List[int] = []
    start = 0
    for b in range(buckets):
        # Ideal end of this bucket, then push past ties so equal values
        # never straddle a boundary.
        end = round((b + 1) * n / buckets)
        end = max(end, start + 1)
        while end < n and sorted_values[end] == sorted_values[end - 1]:
            end += 1
        if b == buckets - 1:
            end = n
        if start >= end:
            continue
        chunk = sorted_values[start:end]
        fractions.append(len(chunk) / n)
        distinct = 1
        for i in range(1, len(chunk)):
            if chunk[i] != chunk[i - 1]:
                distinct += 1
        distincts.append(distinct)
        # Upper bound: the next bucket's minimum (half-open), or the
        # column max for the final bucket (closed).
        bounds.append(
            float(sorted_values[end]) if end < n else float(chunk[-1])
        )
        start = end
        if start >= n:
            break
    return EquiDepthHistogram(tuple(bounds), tuple(fractions), tuple(distincts))


__all__ = ["EquiDepthHistogram", "build_histogram"]
