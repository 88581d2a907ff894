"""Per-node value histograms ``H(v)`` for value predicates.

The paper's measured prototype stores single-dimensional histograms on the
values under each synopsis node ("value-histograms are single-dimensional
and only cover the distribution of values under a specific synopsis node").
This module implements that summary:

* numeric values — an equi-depth histogram (buckets with equal mass);
  range/inequality selectivities use the continuous-uniform assumption
  inside buckets and the distinct-count for equality;
* string values — the top-k most frequent values exactly, plus a uniform
  "other" pool over the remaining distinct values.

The size charged per bucket / per exact string is defined in
:mod:`repro.synopsis.size`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from ..errors import SynopsisError
from ..query.values import ValuePredicate


class NumericValueHistogram:
    """Equi-depth histogram over numeric values.

    Args:
        values: the observed values (one per element carrying a value).
        buckets: maximum number of buckets.
    """

    kind = "numeric"

    def __init__(self, values: Sequence[float], buckets: int):
        if not values:
            raise SynopsisError("cannot build a value histogram without values")
        if buckets < 1:
            raise SynopsisError("bucket budget must be at least 1")
        ordered = sorted(float(v) for v in values)
        self.total = len(ordered)
        bucket_count = min(buckets, self.total)
        # Equi-depth boundaries: split the sorted values into equal slices.
        self.buckets: list[tuple[float, float, int, int]] = []
        for index in range(bucket_count):
            low_pos = index * self.total // bucket_count
            high_pos = (index + 1) * self.total // bucket_count
            if high_pos <= low_pos:
                continue
            slice_values = ordered[low_pos:high_pos]
            self.buckets.append(
                (
                    slice_values[0],
                    slice_values[-1],
                    len(slice_values),
                    len(set(slice_values)),
                )
            )

    # ------------------------------------------------------------------
    def bucket_count(self) -> int:
        """Number of stored buckets."""
        return len(self.buckets)

    def to_state(self) -> dict:
        """JSON-serializable state (see :mod:`repro.synopsis.persist`)."""
        return {"kind": self.kind, "total": self.total, "buckets": self.buckets}

    @classmethod
    def from_state(cls, state: dict) -> "NumericValueHistogram":
        """Rebuild from :meth:`to_state` output."""
        histogram = cls.__new__(cls)
        histogram.total = state["total"]
        histogram.buckets = [tuple(bucket) for bucket in state["buckets"]]
        return histogram

    def selectivity(self, predicate: ValuePredicate) -> float:
        """Fraction of elements whose value satisfies ``predicate``."""
        if isinstance(predicate.value, str):
            return 0.0  # type mismatch: string predicate on numeric values
        if predicate.op == "=":
            return self._mass_in(predicate.value, predicate.value, point=True)
        if predicate.op == "!=":
            return 1.0 - self._mass_in(predicate.value, predicate.value, point=True)
        if predicate.op == "<":
            return self._mass_in(-math.inf, predicate.value, open_high=True)
        if predicate.op == "<=":
            return self._mass_in(-math.inf, predicate.value)
        if predicate.op == ">":
            return self._mass_in(predicate.value, math.inf, open_low=True)
        if predicate.op == ">=":
            return self._mass_in(predicate.value, math.inf)
        return self._mass_in(predicate.value, predicate.high)

    def _mass_in(
        self,
        low: float,
        high: float,
        point: bool = False,
        open_low: bool = False,
        open_high: bool = False,
    ) -> float:
        matched = 0.0
        for bucket_low, bucket_high, count, distinct in self.buckets:
            if point:
                if bucket_low <= low <= bucket_high:
                    matched += count / max(1, distinct)
                continue
            overlap_low = max(low, bucket_low)
            overlap_high = min(high, bucket_high)
            if overlap_low > overlap_high:
                continue
            width = bucket_high - bucket_low
            if width <= 0:
                inside = bucket_low > low or (not open_low and bucket_low == low)
                inside = inside and (
                    bucket_high < high or (not open_high and bucket_high == high)
                )
                matched += count if inside else 0.0
            else:
                fraction = (overlap_high - overlap_low) / width
                matched += count * fraction
        return min(1.0, matched / self.total)


class StringValueHistogram:
    """Top-k exact frequencies plus a uniform remainder pool for strings."""

    kind = "string"

    def __init__(self, values: Sequence[str], buckets: int):
        if not values:
            raise SynopsisError("cannot build a value histogram without values")
        if buckets < 1:
            raise SynopsisError("bucket budget must be at least 1")
        counts = Counter(str(v) for v in values)
        self.total = sum(counts.values())
        most_common = counts.most_common(buckets)
        self.top: dict[str, int] = dict(most_common)
        self.other_count = self.total - sum(self.top.values())
        self.other_distinct = len(counts) - len(self.top)

    # ------------------------------------------------------------------
    def bucket_count(self) -> int:
        """Stored entries (each exact string counts as one bucket)."""
        return max(1, len(self.top))

    def to_state(self) -> dict:
        """JSON-serializable state (see :mod:`repro.synopsis.persist`)."""
        return {
            "kind": self.kind,
            "total": self.total,
            "top": self.top,
            "other_count": self.other_count,
            "other_distinct": self.other_distinct,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StringValueHistogram":
        """Rebuild from :meth:`to_state` output."""
        histogram = cls.__new__(cls)
        histogram.total = state["total"]
        histogram.top = dict(state["top"])
        histogram.other_count = state["other_count"]
        histogram.other_distinct = state["other_distinct"]
        return histogram

    def selectivity(self, predicate: ValuePredicate) -> float:
        """Fraction of elements whose value satisfies ``predicate``.

        Equality/inequality are first-class; ordered operators on strings
        fall back to an exact-boundary count over the stored top values
        plus half of the remainder pool (documented approximation — the
        paper's workloads never order strings).
        """
        if not isinstance(predicate.value, str):
            return 0.0
        if predicate.op == "=":
            if predicate.value in self.top:
                return self.top[predicate.value] / self.total
            if self.other_distinct <= 0:
                return 0.0
            return self.other_count / self.other_distinct / self.total
        if predicate.op == "!=":
            equal = self.selectivity(ValuePredicate("=", predicate.value))
            return max(0.0, 1.0 - equal)
        matched = 0.0
        for value, count in self.top.items():
            if predicate.matches(value):
                matched += count
        matched += self.other_count * 0.5
        return min(1.0, matched / self.total)


def build_value_histogram(values: Sequence, buckets: int):
    """Build the right engine for the value population.

    Numeric when every value is int/float; string histogram otherwise
    (mixed populations are summarized as strings).
    """
    if not values:
        raise SynopsisError("cannot build a value histogram without values")
    if all(isinstance(v, (int, float)) for v in values):
        return NumericValueHistogram(values, buckets)
    return StringValueHistogram([str(v) for v in values], buckets)


def value_counts(values: Iterable) -> Counter:
    """The multiset of ``values``, keyed so that each engine's reading of
    a value is kept.

    A string is its own key; any other value is keyed with its type, so
    ``1``, ``1.0``, ``True`` and ``"1"`` are four keys: the numeric engine
    reads ``float(v)`` and the string engine ``str(v)``, and which engine
    applies, and how many distinct strings there are, depend on the types.
    A float zero is keyed by its text, keeping ``-0.0`` apart from ``0.0``.
    """
    return Counter([
        value if value.__class__ is str
        else (
            value.__class__,
            value if value or value.__class__ is not float else str(value),
        )
        for value in values
    ])


def value_bucket_count(counts: Counter, buckets: int) -> int:
    """``build_value_histogram(values, buckets).bucket_count()`` for the
    values of the multiset ``counts`` (:func:`value_counts`), without
    building the engine: ``min(buckets, n)`` for numeric values,
    ``max(1, min(buckets, distinct strings))`` otherwise."""
    if all(
        key.__class__ is tuple and issubclass(key[0], (int, float))
        for key in counts
    ):
        return min(buckets, sum(counts.values()))
    distinct: set[str] = set()
    for key in counts:
        distinct.add(key if key.__class__ is str else str(key[1]))
        if len(distinct) >= buckets:
            break
    return max(1, len(distinct))
