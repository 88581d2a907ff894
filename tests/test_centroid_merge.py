"""Compress-on-read centroid histograms against the eager reference.

:class:`CentroidHistogram` quantizes at construction and runs the Ward
merge on its first read.  The merge heapifies its initial pair list and
computes the Ward cost inline.  :func:`reference_agglomerate` is the
merge as it was (one ``heappush`` per pair, a cost function): on every
input the new merge must return an equal list, a lazy engine must read
exactly like an eager one, and an XBUILD result must serialize unchanged.
"""

import heapq
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build.xbuild import XBuild
from repro.datasets import generate_imdb
from repro.histogram import CentroidHistogram, SparseDistribution, ops
from repro.histogram import centroid as centroid_module
from repro.histogram.centroid import MAX_EXACT_POINTS, _agglomerate, _quantize
from repro.synopsis.persist import sketch_to_dict


def _ward_cost(a, b):
    (vector_a, mass_a), (vector_b, mass_b) = a, b
    if mass_a + mass_b <= 0:
        return 0.0
    distance_sq = sum((x - y) ** 2 for x, y in zip(vector_a, vector_b))
    return (mass_a * mass_b) / (mass_a + mass_b) * distance_sq


def _merge(a, b):
    (vector_a, mass_a), (vector_b, mass_b) = a, b
    total = mass_a + mass_b
    centroid = tuple(
        (x * mass_a + y * mass_b) / total for x, y in zip(vector_a, vector_b)
    )
    return centroid, total


def reference_agglomerate(points, budget):
    """The merge before compress-on-read, kept as the reference."""
    clusters = dict(enumerate(points))
    next_id = len(points)
    heap = []
    ids = list(clusters)
    for position, left in enumerate(ids):
        for right in ids[position + 1:]:
            heapq.heappush(
                heap, (_ward_cost(clusters[left], clusters[right]), left, right)
            )
    while len(clusters) > budget and heap:
        _, left, right = heapq.heappop(heap)
        if left not in clusters or right not in clusters:
            continue
        merged = _merge(clusters.pop(left), clusters.pop(right))
        for other_id, other in clusters.items():
            heapq.heappush(
                heap, (_ward_cost(merged, other), next_id, other_id)
            )
        clusters[next_id] = merged
        next_id += 1
    return list(clusters.values())


def eager_points(source, budget):
    """The buckets an engine that merged at construction stored."""
    points = source.points()
    if len(points) > MAX_EXACT_POINTS:
        points = _quantize(points)
    if len(points) > budget:
        points = reference_agglomerate(points, budget)
    return sorted(points)


@st.composite
def sources(draw):
    """Distributions over 1–3 dimensions.  A narrow value range gives
    tied points and tied costs; a wide first dimension gives more than
    :data:`MAX_EXACT_POINTS` distinct points, so quantization runs."""
    dims = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        highs = [draw(st.integers(0, 6))] * dims
        count = draw(st.integers(1, 60))
    else:
        highs = [100_000] + [2] * (dims - 1)
        count = draw(st.integers(MAX_EXACT_POINTS + 100, 700))
    observations = [
        tuple(rng.randint(0, high) for high in highs) for _ in range(count)
    ]
    return SparseDistribution.from_observations(observations)


@given(sources(), st.integers(1, 8))
def test_merge_equals_the_reference(source, budget):
    points = source.points()
    if len(points) > MAX_EXACT_POINTS:
        points = _quantize(points)
    expected = reference_agglomerate(list(points), budget)
    assert _agglomerate(list(points), budget) == expected
    assert len(expected) == min(budget, len(points))


@given(sources(), st.integers(1, 8), st.data())
def test_lazy_engine_reads_like_an_eager_one(source, budget, data):
    eager = eager_points(source, budget)
    dims = range(source.dimensions)
    first = data.draw(st.sampled_from(["points", "mean", "product", "count"]))
    lazy = CentroidHistogram(source, budget)
    reads = {
        "points": lambda: lazy.points(),
        "mean": lambda: [lazy.mean(dim) for dim in dims],
        "product": lambda: lazy.expected_product(list(dims)),
        "count": lambda: lazy.bucket_count(),
    }
    reads[first]()  # any read may come first
    assert lazy.bucket_count() == len(eager)
    assert lazy.points() == eager
    assert [lazy.mean(dim) for dim in dims] == [
        ops.mean(eager, dim) for dim in dims
    ]
    assert lazy.expected_product(list(dims)) == ops.expected_product(
        eager, list(dims)
    )


def test_bucket_count_alone_does_not_merge(monkeypatch):
    merges = []
    monkeypatch.setattr(
        centroid_module,
        "_agglomerate",
        lambda points, budget: merges.append(budget)
        or reference_agglomerate(points, budget),
    )
    source = SparseDistribution.from_observations(
        [(i % 9, i % 4) for i in range(40)]
    )
    histogram = CentroidHistogram(source, 3)
    assert histogram.bucket_count() == 3
    assert merges == []
    points = histogram.points()
    assert merges == [3] and len(points) == 3
    assert histogram.points() == points
    assert histogram.mean(0) == pytest.approx(source.mean(0))
    assert merges == [3]
    # under budget there is nothing to merge, on any read
    small = CentroidHistogram(source, 64)
    assert small.bucket_count() == source.point_count
    assert small.points() == sorted(source.points())
    assert merges == [3]


class EagerCentroidHistogram(CentroidHistogram):
    def __init__(self, source, buckets):
        super().__init__(source, buckets)
        self.points()


def test_xbuild_result_serializes_as_with_eager_merges(monkeypatch):
    def build():
        tree = generate_imdb(2000, seed=55)
        return sketch_to_dict(
            XBuild(tree, 2048, seed=55, sample_value_probability=0.3)
            .run().sketch
        )

    lazy = build()
    monkeypatch.setattr(
        "repro.synopsis.summary.CentroidHistogram", EagerCentroidHistogram
    )
    monkeypatch.setattr(centroid_module, "_agglomerate", reference_agglomerate)
    assert build() == lazy


def test_quantized_input_keeps_its_means():
    rng = random.Random(11)
    source = SparseDistribution.from_observations(
        [(rng.randint(0, 3000),) for _ in range(2000)]
    )
    assert source.point_count > MAX_EXACT_POINTS
    histogram = CentroidHistogram(source, 4)
    assert histogram.bucket_count() == 4
    assert math.isclose(histogram.mean(0), source.mean(0), rel_tol=1e-9)
