"""Centroid histograms: bucketized multidimensional edge distributions.

The paper observes that an edge distribution "can be summarized very
efficiently using multidimensional methods such as histograms and wavelets,
since it is essentially defined over a space of integer edge counts".  This
engine is the default histogram: it compresses an exact
:class:`~repro.histogram.sparse.SparseDistribution` down to a bucket budget
by greedy agglomerative merging (Ward's criterion: each merge minimizes the
increase of mass-weighted within-bucket variance in count space).

Each bucket stores its total mass and per-dimension weighted centroid, so
compression *exactly* preserves the distribution's total mass and its
per-dimension means — which in turn means selectivity estimates for
single-edge expansions are unaffected by compression, and only the
correlation detail degrades.  That is the property the paper's estimation
framework relies on.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from ..errors import SynopsisError
from . import ops
from .ops import Point
from .sparse import SparseDistribution

#: Above this many distinct points, inputs are pre-quantized onto a
#: geometric grid before agglomerative merging (keeps builds near-linear).
MAX_EXACT_POINTS = 512


def _quantize(points: list[Point], ratio: float = 1.25) -> list[Point]:
    """Snap each count to a geometric grid and merge colliding points."""
    buckets: dict[tuple[int, ...], tuple[list[float], float]] = {}
    log_ratio = math.log(ratio)
    for vector, mass in points:
        key = tuple(
            0 if c <= 0 else int(math.floor(math.log(c) / log_ratio + 1e-9))
            for c in vector
        )
        if key in buckets:
            sums, total = buckets[key]
            for index, coordinate in enumerate(vector):
                sums[index] += coordinate * mass
            buckets[key] = (sums, total + mass)
        else:
            buckets[key] = ([c * mass for c in vector], mass)
    return [
        (tuple(s / total for s in sums), total)
        for sums, total in buckets.values()
    ]


def _merge(a: Point, b: Point) -> Point:
    (vector_a, mass_a), (vector_b, mass_b) = a, b
    total = mass_a + mass_b
    centroid = tuple(
        (x * mass_a + y * mass_b) / total for x, y in zip(vector_a, vector_b)
    )
    return centroid, total


def _agglomerate(points: list[Point], budget: int) -> list[Point]:
    """Merge nearest (Ward) cluster pairs until ``budget`` remain.

    A pair's cost is ``m_a·m_b / (m_a + m_b) · ‖a − b‖²``, the increase
    of mass-weighted within-bucket variance.  Heap entries are unique
    ``(cost, left, right)`` tuples, so they pop in one total order however
    the heap was built.  Every live pair has an entry, so with more than
    ``budget`` clusters the heap never runs dry: the result has exactly
    ``min(budget, len(points))`` points.
    """
    clusters: dict[int, Point] = dict(enumerate(points))
    next_id = len(points)
    heap: list[tuple[float, int, int]] = []
    for left, (vector_a, mass_a) in enumerate(points):
        for right in range(left + 1, len(points)):
            vector_b, mass_b = points[right]
            total = mass_a + mass_b
            heap.append((
                0.0 if total <= 0 else mass_a * mass_b / total * sum([
                    (x - y) ** 2 for x, y in zip(vector_a, vector_b)
                ]),
                left,
                right,
            ))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while len(clusters) > budget and heap:
        _, left, right = pop(heap)
        if left not in clusters or right not in clusters:
            continue  # stale entry
        merged = _merge(clusters.pop(left), clusters.pop(right))
        vector_a, mass_a = merged
        for other_id, (vector_b, mass_b) in clusters.items():
            total = mass_a + mass_b
            push(heap, (
                0.0 if total <= 0 else mass_a * mass_b / total * sum([
                    (x - y) ** 2 for x, y in zip(vector_a, vector_b)
                ]),
                next_id,
                other_id,
            ))
        clusters[next_id] = merged
        next_id += 1
    return list(clusters.values())


class CentroidHistogram:
    """A bucketized approximation of a multidimensional count distribution.

    Args:
        source: the exact distribution to compress.
        buckets: maximum number of buckets to keep (≥ 1).

    The histogram keeps masses summing to 1 and per-dimension means equal to
    the source's (up to float rounding).  Construction quantizes large
    inputs; the Ward merge runs on the first read of the buckets, so a
    histogram that is built and replaced unread (most XBUILD candidates)
    never pays for it.  :meth:`bucket_count` needs no merge.
    """

    def __init__(self, source: SparseDistribution, buckets: int):
        if buckets < 1:
            raise SynopsisError("bucket budget must be at least 1")
        self.dimensions = source.dimensions
        self.budget = buckets
        points = source.points()
        if len(points) > MAX_EXACT_POINTS:
            points = _quantize(points)
        self._count = min(buckets, len(points))
        #: the points to merge, until the first read merges them
        self._source: Optional[list[Point]] = points
        self._points: Optional[list[Point]] = None

    def _buckets(self) -> list[Point]:
        """The merged buckets, computed on first call.

        ``_source`` is read before ``_points`` and cleared after it is
        set, so a concurrent first read finds one or the other.
        """
        source = self._source
        points = self._points
        if points is None:
            if len(source) > self.budget:
                source = _agglomerate(source, self.budget)
            points = self._points = sorted(source)
            self._source = None
        return points

    # ------------------------------------------------------------------
    # the common engine interface
    # ------------------------------------------------------------------
    def points(self) -> list[Point]:
        """Bucket representatives: (centroid vector, mass)."""
        return list(self._buckets())

    def bucket_count(self) -> int:
        """Number of buckets stored (≤ budget), without merging."""
        return self._count

    # ------------------------------------------------------------------
    def expected_product(self, dims: Sequence[int]) -> float:
        """``Σ mass · Π centroid_d`` over buckets — the ΣF estimate."""
        return ops.expected_product(self._buckets(), dims)

    def mean(self, dim: int) -> float:
        """Mass-weighted mean of one dimension (preserved exactly)."""
        return ops.mean(self._buckets(), dim)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CentroidHistogram dims={self.dimensions} "
            f"buckets={self._count}/{self.budget}>"
        )
