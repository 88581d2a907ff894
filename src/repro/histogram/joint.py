"""Joint value-count histograms: the paper's extended ``H^v(V, C1..Ck)``.

Section 3.2 (end): "we introduce extended multi-dimensional value
histograms H^v(V1,...,Vl, C1,...,Ck), which approximate the joint
distribution of elements in n_i with respect to values and edge counts".
This engine implements the one-value-dimension form the estimation
framework consumes: a partition of the value domain (equi-depth ranges
for numeric values, top-k plus remainder pool for strings) with, per
value bucket, a compressed distribution of the count vector.

Elements whose value is missing are tracked as a separate bucket so that
total mass stays 1; value predicates never match them.

Like an edge histogram's, each bucket's count distribution is merged on
first read: a summary built and dropped unread (most XBUILD candidates)
never runs the Ward merge, and its size needs none.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from ..errors import SynopsisError
from ..query.values import ValuePredicate
from . import ops
from .centroid import CentroidHistogram
from .ops import Point
from .sparse import SparseDistribution


class _Bucket:
    """One value bucket: a value range/key, its mass, and count points.

    The points are given, or merged from a :class:`CentroidHistogram` on
    the first read of :attr:`points`.
    """

    __slots__ = ("low", "high", "key", "mass", "distinct", "_points",
                 "_counts")

    def __init__(self, low, high, key, mass, distinct, points):
        self.low = low
        self.high = high
        self.key = key  # exact string key, or None for range/pool buckets
        self.mass = mass
        self.distinct = distinct
        if isinstance(points, CentroidHistogram):
            self._points, self._counts = None, points
        else:
            self._points, self._counts = points, None

    @property
    def points(self) -> list[Point]:
        """The count points over the count dimensions, merged on first
        read.  ``_counts`` is read before ``_points`` and cleared after it
        is set, so a concurrent first read finds one or the other."""
        counts = self._counts
        points = self._points
        if points is None:
            points = self._points = counts.points()
            self._counts = None
        return points

    def point_count(self) -> int:
        """Stored count points, without merging."""
        counts = self._counts
        return len(self._points) if counts is None else counts.bucket_count()

    def overlap(self, predicate: ValuePredicate) -> float:
        """Fraction of this bucket's mass matching ``predicate``."""
        if self.key is not None:
            return 1.0 if predicate.matches(self.key) else 0.0
        if self.low is None:  # remainder pool of a string histogram
            if predicate.op == "=":
                return 1.0 / self.distinct if self.distinct else 0.0
            if predicate.op == "!=":
                return 1.0 - (1.0 / self.distinct if self.distinct else 0.0)
            return 0.5  # ordered predicate on the unknown pool
        # numeric range bucket, continuous-uniform inside
        if isinstance(predicate.value, str):
            return 0.0  # type mismatch, as in the numeric value histogram
        low, high = float(self.low), float(self.high)
        if predicate.op == "=":
            if low <= predicate.value <= high:
                return 1.0 / max(1, self.distinct)
            return 0.0
        if predicate.op == "!=":
            inside = 1.0 / max(1, self.distinct) if low <= predicate.value <= high else 0.0
            return 1.0 - inside
        if predicate.op == "range":
            qlow, qhigh = float(predicate.value), float(predicate.high)
        elif predicate.op in ("<", "<="):
            qlow, qhigh = float("-inf"), float(predicate.value)
        else:  # > or >=
            qlow, qhigh = float(predicate.value), float("inf")
        overlap_low = max(low, qlow)
        overlap_high = min(high, qhigh)
        if overlap_low > overlap_high:
            return 0.0
        if high == low:
            return 1.0
        return (overlap_high - overlap_low) / (high - low)


class ValueCountHistogram:
    """Joint distribution of one value dimension and k count dimensions.

    Args:
        observations: one ``(value, count_vector)`` pair per element; the
            value may be None (element without a value).
        value_buckets: number of value buckets.
        count_buckets: centroid-bucket budget per value bucket.
    """

    def __init__(
        self,
        observations: Sequence[tuple[object, tuple[int, ...]]],
        value_buckets: int,
        count_buckets: int,
    ):
        if not observations:
            raise SynopsisError("joint histogram needs observations")
        if value_buckets < 1 or count_buckets < 1:
            raise SynopsisError("bucket budgets must be at least 1")
        widths = {len(counts) for _, counts in observations}
        if len(widths) != 1:
            raise SynopsisError("inconsistent count-vector widths")
        self.dimensions = widths.pop()
        self.count_buckets = count_buckets
        total = len(observations)

        present = [(v, c) for v, c in observations if v is not None]
        missing = [c for v, c in observations if v is None]
        self.missing_mass = len(missing) / total
        self._missing = _Bucket(
            None, None, None, self.missing_mass, 0,
            self._compress(missing) if missing else [],
        )

        self.buckets: list[_Bucket] = []
        if present:
            if all(isinstance(v, (int, float)) for v, _ in present):
                self._build_numeric(present, value_buckets, total)
            else:
                self._build_string(
                    [(str(v), c) for v, c in present], value_buckets, total
                )

    # ------------------------------------------------------------------
    def _compress(self, count_vectors) -> CentroidHistogram:
        """The count distribution of ``count_vectors``, merged on first
        read."""
        source = SparseDistribution.from_observations(count_vectors)
        return CentroidHistogram(source, self.count_buckets)

    def _build_numeric(self, present, value_buckets, total) -> None:
        ordered = sorted(present, key=lambda pair: pair[0])
        bucket_count = min(value_buckets, len(ordered))
        for index in range(bucket_count):
            low_pos = index * len(ordered) // bucket_count
            high_pos = (index + 1) * len(ordered) // bucket_count
            if high_pos <= low_pos:
                continue
            chunk = ordered[low_pos:high_pos]
            values = [v for v, _ in chunk]
            self.buckets.append(
                _Bucket(
                    low=values[0],
                    high=values[-1],
                    key=None,
                    mass=len(chunk) / total,
                    distinct=len(set(values)),
                    points=self._compress([c for _, c in chunk]),
                )
            )

    def _build_string(self, present, value_buckets, total) -> None:
        frequency = Counter(v for v, _ in present)
        top = {v for v, _ in frequency.most_common(value_buckets)}
        grouped: dict[str, list] = {}
        pool = []
        for value, counts in present:
            if value in top:
                grouped.setdefault(value, []).append(counts)
            else:
                pool.append(counts)
        for value, count_vectors in sorted(grouped.items()):
            self.buckets.append(
                _Bucket(
                    low=None,
                    high=None,
                    key=value,
                    mass=len(count_vectors) / total,
                    distinct=1,
                    points=self._compress(count_vectors),
                )
            )
        if pool:
            self.buckets.append(
                _Bucket(
                    low=None,
                    high=None,
                    key=None,
                    mass=len(pool) / total,
                    distinct=len(frequency) - len(top),
                    points=self._compress(pool),
                )
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def match_mass(self, predicate: Optional[ValuePredicate]) -> float:
        """Fraction of elements whose value satisfies ``predicate``
        (``None`` → all elements, including missing values)."""
        if predicate is None:
            return 1.0
        return sum(b.mass * b.overlap(predicate) for b in self.buckets)

    def conditional_points(
        self, predicate: Optional[ValuePredicate]
    ) -> list[Point]:
        """Count-vector points of the elements matching ``predicate``,
        renormalized to unit mass (empty when nothing matches)."""
        weighted: list[Point] = []
        if predicate is None:
            for bucket in self.buckets:
                weighted.extend(
                    (vector, mass * bucket.mass) for vector, mass in bucket.points
                )
            weighted.extend(
                (vector, mass * self.missing_mass)
                for vector, mass in self._missing.points
            )
            return ops.normalize(weighted)
        for bucket in self.buckets:
            fraction = bucket.overlap(predicate)
            if fraction <= 0:
                continue
            weighted.extend(
                (vector, mass * bucket.mass * fraction)
                for vector, mass in bucket.points
            )
        return ops.normalize(weighted)

    def bucket_count(self) -> int:
        """Stored value buckets (including the missing bucket when used)."""
        return len(self.buckets) + (1 if self.missing_mass > 0 else 0)

    def to_state(self) -> dict:
        """JSON-serializable state (see :mod:`repro.synopsis.persist`)."""
        return {
            "dimensions": self.dimensions,
            "count_buckets": self.count_buckets,
            "missing_mass": self.missing_mass,
            "missing_points": [
                [list(vector), mass] for vector, mass in self._missing.points
            ],
            "buckets": [
                {
                    "low": bucket.low,
                    "high": bucket.high,
                    "key": bucket.key,
                    "mass": bucket.mass,
                    "distinct": bucket.distinct,
                    "points": [[list(v), m] for v, m in bucket.points],
                }
                for bucket in self.buckets
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ValueCountHistogram":
        """Rebuild from :meth:`to_state` output."""
        histogram = cls.__new__(cls)
        histogram.dimensions = state["dimensions"]
        histogram.count_buckets = state["count_buckets"]
        histogram.missing_mass = state["missing_mass"]
        histogram._missing = _Bucket(
            None, None, None, histogram.missing_mass, 0,
            [(tuple(vector), mass) for vector, mass in state["missing_points"]],
        )
        histogram.buckets = [
            _Bucket(
                entry["low"],
                entry["high"],
                entry["key"],
                entry["mass"],
                entry["distinct"],
                [(tuple(v), m) for v, m in entry["points"]],
            )
            for entry in state["buckets"]
        ]
        return histogram

    def count_point_total(self) -> int:
        """Total stored count points across all buckets (size accounting),
        without merging."""
        total = sum(bucket.point_count() for bucket in self.buckets)
        return total + self._missing.point_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ValueCountHistogram dims={self.dimensions} "
            f"value_buckets={self.bucket_count()}>"
        )
