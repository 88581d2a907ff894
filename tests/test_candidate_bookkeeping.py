"""Per-candidate bookkeeping against the full walks it replaced.

An XBUILD candidate costs what its refinement changes:

* ``TwigXSketch.size_bytes()`` reads a total every statistics write keeps
  (``TwigXSketch._store``); the reference is :func:`walked_size`, the sum
  over the graph and every statistic it replaced.
* ``TwigXSketch.changes_from`` returns the nodes and edges the writes and
  the splits recorded since ``copy()``; the reference is
  :func:`changes_since`, the identity diff of two sketches it replaced.
  The record must contain the diff (a missing change would give a wrong
  derived estimate); it may hold more.
* ``GraphSynopsis.split_node`` patches the adjacency index; the
  references are the canonical order, sorted in the test from ``nodes``
  and ``edges``, and a rebuild, list order and records included
  (:func:`~tests.test_fast_path_differential.assert_index_is_canonical`).
* ``ValueCountHistogram`` merges each bucket's count points on first
  read; the reference is the eager merge it replaced
  (:func:`eager_merge`).

Every refinement kind is drawn from whole candidate pools, and random
refinement chains run on random recursive documents.  CI re-runs this
module with ``HYPOTHESIS_PROFILE=fuzz``.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build import sampling
from repro.build.refinements import ALL_REFINEMENTS, BStabilize, ValueRefine
from repro.build.sampling import generate_candidates
from repro.errors import BuildError
from repro.estimation import TwigEstimator
from repro.histogram import centroid, joint
from repro.histogram.centroid import CentroidHistogram
from repro.histogram.joint import ValueCountHistogram
from repro.histogram.sparse import SparseDistribution
from repro.query.values import ValuePredicate
from repro.synopsis import TwigXSketch, XSketchConfig
from repro.synopsis import size as sizing
from repro.synopsis.summary import ExtendedValueSummary, SketchChanges
from repro.synopsis.validate import validate_sketch
from tests.test_fast_path_differential import (
    CONFIGS,
    MIXED_VALUES,
    NAMED_DOCUMENTS,
    assert_index_is_canonical,
    recursive_trees,
)


# ----------------------------------------------------------------------
# the references
# ----------------------------------------------------------------------
def walked_size(sketch):
    """The stored size, summed over the graph and every statistic."""
    total = sizing.graph_bytes(
        sketch.graph.node_count,
        sketch.graph.edge_count,
        sketch.config.store_edge_counts,
    )
    for histograms in sketch.edge_stats.values():
        total += sum(h.size_bytes() for h in histograms)
    for summary in sketch.value_stats.values():
        total += summary.size_bytes()
    for summaries in sketch.extended_stats.values():
        total += sum(s.size_bytes() for s in summaries)
    return total


def changes_since(refined, base):
    """The nodes and edges whose statistics differ from ``base``.

    Statistics objects are compared by identity: a refinement rebuilds
    every histogram it touches and keeps the others.  A graph shared with
    ``base`` is not walked.
    """
    nodes = set()
    for ours, theirs in (
        (refined.edge_stats, base.edge_stats),
        (refined.extended_stats, base.extended_stats),
    ):
        for node_id in ours.keys() | theirs.keys():
            mine, other = ours.get(node_id, ()), theirs.get(node_id, ())
            if len(mine) != len(other) or any(
                a is not b for a, b in zip(mine, other)
            ):
                nodes.add(node_id)
    for node_id in refined.value_stats.keys() | base.value_stats.keys():
        if refined.value_stats.get(node_id) is not base.value_stats.get(
            node_id
        ):
            nodes.add(node_id)
    edges = set()
    if refined.graph is not base.graph:
        ours, theirs = refined.graph.nodes, base.graph.nodes
        for node_id in ours.keys() | theirs.keys():
            mine, other = ours.get(node_id), theirs.get(node_id)
            if (
                mine is None
                or other is None
                or (mine.count, mine.tag) != (other.count, other.tag)
            ):
                nodes.add(node_id)
        ours, theirs = refined.graph.edges, base.graph.edges
        edges.update(
            key
            for key in ours.keys() | theirs.keys()
            if ours.get(key) != theirs.get(key)
        )
    return SketchChanges(nodes, edges)


def check_books(refined, base):
    """The kept size, the change record and the index of ``refined``, a
    refinement of ``base``, against the references."""
    assert refined.size_bytes() == walked_size(refined)
    assert base.size_bytes() == walked_size(base)
    recorded = refined.changes_from(base)
    assert recorded is not None
    diff = changes_since(refined, base)
    assert diff.nodes <= recorded.nodes
    assert diff.edges <= recorded.edges
    if refined.graph is base.graph:
        assert recorded.edges == set()
    assert_index_is_canonical(refined.graph)
    assert_index_is_canonical(base.graph)


def apply_pool(sketch, rng):
    """Every applicable candidate of a whole pool, with its refined
    sketch."""
    with mock.patch.object(sampling, "DEFAULT_MAX_CANDIDATES", 10_000):
        candidates = generate_candidates(sketch, rng)
    for candidate in candidates:
        try:
            yield candidate, candidate.apply(sketch)
        except BuildError:
            continue


# ----------------------------------------------------------------------
# size, change record and adjacency over refinements
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_refinement_kind_keeps_its_books(config_name):
    """Whole candidate pools over three rounds of the imdb and paper
    documents: every refinement kind is applied and checked."""
    kinds = set()
    for name in ("imdb", "paperfig"):
        rng = random.Random(7)
        sketch = TwigXSketch.coarsest(NAMED_DOCUMENTS[name],
                                      CONFIGS[config_name])
        assert sketch.size_bytes() == walked_size(sketch)
        for _ in range(3):
            first = None
            for candidate, refined in apply_pool(sketch, rng):
                kinds.add(type(candidate).__name__)
                check_books(refined, sketch)
                first = first or refined
            sketch = first or sketch
    assert kinds == {cls.__name__ for cls in ALL_REFINEMENTS}


@given(
    tree=recursive_trees(values=MIXED_VALUES),
    config_name=st.sampled_from(sorted(CONFIGS)),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 6),
)
def test_random_refinement_chains_keep_their_books(
    tree, config_name, seed, length
):
    """A chain of random refinements: each link against its base, and a
    grandchild's record is not one against its grandparent."""
    rng = random.Random(seed)
    sketch = TwigXSketch.coarsest(tree, CONFIGS[config_name])
    chain = [sketch]
    for _ in range(length):
        applied = list(apply_pool(sketch, rng))
        if not applied:
            break
        _, refined = rng.choice(applied)
        check_books(refined, sketch)
        assert validate_sketch(refined) == []
        chain.append(refined)
        sketch = refined
    for older, younger in zip(chain, chain[2:]):
        assert younger.changes_from(older) is None


def test_a_written_base_disowns_its_copies():
    """A write to the base after the copy voids the copy's record, so a
    derived estimator takes the full path and still answers exactly."""
    tree = NAMED_DOCUMENTS["paperfig"]
    sketch = TwigXSketch.coarsest(tree)
    node_id = next(iter(sketch.value_stats))
    refined = ValueRefine(node_id).apply(sketch)
    assert refined.changes_from(sketch).nodes == {node_id}
    other = next(n for n in sketch.value_stats if n != node_id)
    sketch.set_value_summary(other, None)
    assert refined.changes_from(sketch) is None
    base = TwigEstimator(sketch).keep_records()
    derived = base.derive(refined)
    assert derived._base is None


def test_a_copy_shares_the_index_until_it_splits():
    tree = NAMED_DOCUMENTS["imdb"]
    sketch = TwigXSketch.coarsest(tree)
    index = sketch.graph._adjacency
    assert index is not None
    copied = sketch.graph.copy()
    assert copied._adjacency is index
    edge = next(e for e in sketch.graph.edges.values()
                if not e.backward_stable)
    refined = BStabilize(edge.source, edge.target).apply(sketch)
    assert sketch.graph._adjacency is index
    assert refined.graph._adjacency is not index
    assert_index_is_canonical(sketch.graph)
    assert_index_is_canonical(refined.graph)


def test_size_kept_past_the_writer_is_flagged():
    """A statistic stored straight into a dict leaves the kept size
    behind the walk; the validator names it."""
    sketch = TwigXSketch.coarsest(NAMED_DOCUMENTS["paperfig"])
    assert validate_sketch(sketch) == []
    node_id, summary = next(iter(sketch.value_stats.items()))
    del sketch.value_stats[node_id]
    codes = {v.code for v in validate_sketch(sketch)}
    assert codes == {"size-kept"}
    sketch.value_stats[node_id] = summary
    assert validate_sketch(sketch) == []


# ----------------------------------------------------------------------
# extended summaries merged on first read
# ----------------------------------------------------------------------
@contextmanager
def eager_merge():
    """Value-count histograms merge every bucket when built, as before
    the merge moved to the first read."""
    def compress(self, count_vectors):
        source = SparseDistribution.from_observations(count_vectors)
        return CentroidHistogram(source, self.count_buckets).points()

    with mock.patch.object(ValueCountHistogram, "_compress", compress):
        yield


@contextmanager
def counting_merges():
    calls = []
    original = centroid._agglomerate

    def counted(points, budget):
        calls.append(len(points))
        return original(points, budget)

    with mock.patch.object(centroid, "_agglomerate", counted):
        yield calls


STRINGS = st.none() | st.sampled_from(["x", "y", "z", "w", "1", "3"])


@st.composite
def observations(draw, numeric):
    width = draw(st.integers(1, 3))
    value = st.none() | st.integers(0, 40) if numeric else STRINGS
    return draw(st.lists(
        st.tuples(
            value,
            st.tuples(*[st.integers(0, 6)] * width),
        ),
        min_size=1,
        max_size=80,
    ))


PREDICATES = [
    None,
    ValuePredicate("=", 3),
    ValuePredicate("!=", 3),
    ValuePredicate("<=", 5),
    ValuePredicate(">", 20),
    ValuePredicate.between(2, 30),
    ValuePredicate("!=", "x"),
    ValuePredicate("=", "y"),
]


@given(
    numeric=st.booleans(),
    data=st.data(),
    value_buckets=st.integers(1, 6),
    count_buckets=st.integers(1, 4),
)
def test_a_lazily_merged_extended_summary_reads_like_an_eager_one(
    numeric, data, value_buckets, count_buckets
):
    observed = data.draw(observations(numeric))
    with eager_merge():
        eager = ValueCountHistogram(observed, value_buckets, count_buckets)
    with counting_merges() as merges:
        lazy = ValueCountHistogram(observed, value_buckets, count_buckets)
        scope = tuple(range(lazy.dimensions))
        lazy_summary = ExtendedValueSummary(0, None, scope, lazy, 1, 1)
        eager_summary = ExtendedValueSummary(0, None, scope, eager, 1, 1)
        assert lazy_summary.size_bytes() == eager_summary.size_bytes()
        assert lazy.count_point_total() == eager.count_point_total()
        assert lazy.bucket_count() == eager.bucket_count()
        for predicate in PREDICATES:
            assert lazy.match_mass(predicate) == eager.match_mass(predicate)
        assert merges == []
        for predicate in PREDICATES:
            assert lazy.conditional_points(predicate) == (
                eager.conditional_points(predicate)
            )
    assert lazy.to_state() == eager.to_state()
    assert lazy.count_point_total() == eager.count_point_total()
    assert ValueCountHistogram.from_state(lazy.to_state()).to_state() == (
        eager.to_state()
    )


def test_a_split_defers_its_extended_summaries_merge():
    """A value-expand's summary and the ones a split rebuilds from it run
    no merge until read; reading one merges it once."""
    tree = NAMED_DOCUMENTS["imdb"]
    rng = random.Random(3)
    sketch = TwigXSketch.coarsest(tree)
    expanded = next(
        refined for candidate, refined in apply_pool(sketch, rng)
        if type(candidate).__name__ == "ValueExpand"
    )
    (node_id, summaries), = [
        (n, s) for n, s in expanded.extended_stats.items()
    ]
    part = {e.node_id for e in expanded.graph.node(node_id).extent[::2]}
    with counting_merges() as merges:
        split = expanded.copy()
        split.split_node(node_id, part)
        rebuilt = [s for n in split.extended_stats
                   for s in split.extended_at(n)]
        assert rebuilt and merges == []
        assert split.size_bytes() == walked_size(split)
        assert merges == []
        rebuilt[0].histogram.conditional_points(None)
        merged = len(merges)
        rebuilt[0].histogram.to_state()
        assert len(merges) == merged
    assert summaries[0].histogram is not rebuilt[0].histogram
