"""Derived split statistics against a scan.

A split of node X into parts S (the smaller) and L derives L's default
edge histograms and value summary, and the remapped histograms of X's
parents, from the exact counts kept beside every statistic, at the cost
of S.  EdgeRefine and ValueRefine rebuild from the counts of the
statistic they replace.  Here every statistic a refinement makes is held
to the one a scan of the extents builds (:func:`scanning` makes the same
refinement ignore the counts), field by field:

* its retained counts equal a recount from the extents;
* ``points()``, ``bucket_count()``, ``size_bytes()`` and the value
  engine's state equal the scanned statistic's;
* the change record (``changes_from``) and the identity diff
  (``changes_since``) name the same nodes and edges.

Counters on the scan entry points check that ``bucket_count()`` and
``size_bytes()`` never build a value engine, and that a derivation never
scans L or a parent's extent.
"""

import importlib
import random
import threading
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build import sampling
from repro.build.refinements import (
    ALL_REFINEMENTS,
    BStabilize,
    EdgeExpand,
    EdgeRefine,
    FStabilize,
    ValueExpand,
    ValueRefine,
    ValueSplit,
)
from repro.build.sampling import generate_candidates
from repro.build.xbuild import XBuild
from repro.datasets import generate_imdb, generate_xmark
from repro.doc import build_tree
from repro.errors import BuildError, FaultInjected
from repro.histogram.value import build_value_histogram
from repro.query.values import ValuePredicate
from repro.resilience import Fault, FaultPlan
from repro.resilience.faults import SITE_BUILD_STEP
from repro.synopsis import (
    TwigXSketch,
    XSketchConfig,
    sketch_from_dict,
    sketch_to_dict,
)
from repro.synopsis.distributions import EdgeRef, exact_edge_counts
from tests.test_candidate_bookkeeping import changes_since

summary_module = importlib.import_module("repro.synopsis.summary")

TAGS = ("a", "b", "c")
#: values that equal one another in Python but not to the engines
MIXED_VALUES = (1, 1.0, True, "1", 0.0, -0.0, 2.5, "x", 7)


# ----------------------------------------------------------------------
# the scan reference and the counters
# ----------------------------------------------------------------------
@contextmanager
def scanning():
    """Refinements build every statistic from a scan, as before
    derivation: the builders drop the counts their callers derived."""
    edge = TwigXSketch.make_edge_histogram
    value = TwigXSketch.make_value_summary
    with mock.patch.object(
        TwigXSketch,
        "make_edge_histogram",
        lambda self, node_id, scope, buckets, counts=None: edge(
            self, node_id, scope, buckets
        ),
    ), mock.patch.object(
        TwigXSketch,
        "make_value_summary",
        lambda self, node_id, buckets, counts=None: value(
            self, node_id, buckets
        ),
    ):
        yield


@contextmanager
def counting_scans():
    """Record the scans refinements make: the node of each
    ``forward_columns`` and ``exact_edge_counts`` call, the number of
    elements each direct ``child_counts`` call (a parent's rows) reads,
    the number of values each ``value_counts`` call reads, and each
    engine build."""
    scans = {
        "columns": [], "edges": [], "rows": [], "values": [], "engines": 0
    }
    columns = summary_module.forward_columns
    rows = summary_module.child_counts
    edges = summary_module.exact_edge_counts
    values = summary_module.value_counts
    engines = summary_module.build_value_histogram

    def record_columns(graph, node_id, targets):
        if targets:
            scans["columns"].append(node_id)
        return columns(graph, node_id, targets)

    def record_rows(graph, element_ids, groups):
        scans["rows"].append(len(element_ids))
        return rows(graph, element_ids, groups)

    def record_edges(graph, node_id, scope):
        scans["edges"].append(node_id)
        return edges(graph, node_id, scope)

    def record_values(iterable):
        read = list(iterable)
        scans["values"].append(len(read))
        return values(read)

    def record_engines(*args):
        scans["engines"] += 1
        return engines(*args)

    with mock.patch.object(
        summary_module, "forward_columns", record_columns
    ), mock.patch.object(
        summary_module, "child_counts", record_rows
    ), mock.patch.object(
        summary_module, "exact_edge_counts", record_edges
    ), mock.patch.object(
        summary_module, "value_counts", record_values
    ), mock.patch.object(
        summary_module, "build_value_histogram", record_engines
    ):
        yield scans


def value_text(key):
    """A value-count key as (type name, exact text)."""
    if key.__class__ is str:
        return "str", repr(key)
    cls, value = key
    if cls is float and isinstance(value, str):  # a float zero
        value = float(value)
    return cls.__name__, repr(value)


def assert_recounted(sketch):
    """Every statistic's retained counts equal a recount of the extents."""
    graph = sketch.graph
    for node_id, histograms in sketch.edge_stats.items():
        for histogram in histograms:
            assert histogram.counts == exact_edge_counts(
                graph, node_id, histogram.scope
            ), (node_id, histogram.scope)
            assert 0 not in histogram.counts.values()
    for node_id, summary in sketch.value_stats.items():
        values = [
            element.value
            for element in graph.node(node_id).extent
            if element.value is not None
        ]
        recount = Counter((type(v).__name__, repr(v)) for v in values)
        retained = Counter()
        for key, count in summary.counts.items():
            retained[value_text(key)] += count
        assert retained == recount, node_id
        assert summary.total == len(values)


def assert_sizes_build_no_engine(sketch):
    with counting_scans() as scans:
        sketch.size_bytes()
        for summary in sketch.value_stats.values():
            summary.bucket_count()
    assert scans["engines"] == 0


def assert_matches_scan(derived, scanned):
    """Statistic by statistic, ``derived`` equals ``scanned``."""
    assert list(derived.edge_stats) == list(scanned.edge_stats)
    for node_id, histograms in derived.edge_stats.items():
        others = scanned.edge_stats[node_id]
        assert len(histograms) == len(others)
        for ours, theirs in zip(histograms, others):
            assert (ours.scope, ours.budget) == (theirs.scope, theirs.budget)
            assert ours.counts == theirs.counts
            assert ours.bucket_count() == theirs.bucket_count()
            assert ours.size_bytes() == theirs.size_bytes()
            assert ours.points() == theirs.points()
    assert list(derived.value_stats) == list(scanned.value_stats)
    for node_id, ours in derived.value_stats.items():
        theirs = scanned.value_stats[node_id]
        assert ours.budget == theirs.budget
        assert ours.counts == theirs.counts
        assert ours.bucket_count() == theirs.bucket_count()
        assert ours.size_bytes() == theirs.size_bytes()
        values = [
            element.value
            for element in derived.graph.node(node_id).extent
            if element.value is not None
        ]
        eager = build_value_histogram(values, ours.budget)
        assert ours.histogram.to_state() == eager.to_state()
        assert ours.bucket_count() == eager.bucket_count()
    assert derived.size_bytes() == scanned.size_bytes()


def check_refinement(candidate, base):
    """Apply ``candidate`` with and without derivation and compare;
    returns the derived sketch, or None when it does not apply."""
    try:
        derived = candidate.apply(base)
    except BuildError:
        return None
    with scanning():
        scanned = candidate.apply(base)
    assert_sizes_build_no_engine(derived)
    assert_matches_scan(derived, scanned)
    assert changes_since(derived, base) == changes_since(scanned, base)
    assert derived.changes_from(base) == scanned.changes_from(base)
    assert_recounted(derived)
    return derived


def check_pool(sketch, rng):
    """Check every candidate of a whole pool; returns the kinds that
    applied and the first refined sketch."""
    kinds, first = set(), None
    with mock.patch.object(sampling, "DEFAULT_MAX_CANDIDATES", 10_000):
        candidates = generate_candidates(sketch, rng)
    for candidate in candidates:
        refined = check_refinement(candidate, sketch)
        if refined is None:
            continue
        kinds.add(kind_of(candidate))
        if first is None:
            first = refined
    return kinds, first


def kind_of(candidate):
    name = type(candidate).__name__
    if isinstance(candidate, ValueSplit):
        return name + ("/child" if candidate.child_tag else "/own")
    return name


ALL_KINDS = {
    cls.__name__ for cls in ALL_REFINEMENTS if cls is not ValueSplit
} | {"ValueSplit/child", "ValueSplit/own"}


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------
@st.composite
def recursive_trees(draw, max_nodes=30):
    """Small documents over three tags that nest inside themselves, each
    node valued (ints, floats, bools and strings mixed) or not."""
    size = draw(st.integers(2, max_nodes))
    parents = [
        draw(st.just(index - 1) | st.integers(0, index - 1))
        for index in range(1, size)
    ]
    tags = [draw(st.sampled_from(TAGS)) for _ in range(size)]
    values = [
        draw(st.none() | st.sampled_from(MIXED_VALUES)) for _ in range(size)
    ]
    children: list[list[int]] = [[] for _ in range(size)]
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)
    specs: list = [None] * size
    for index in reversed(range(size)):
        specs[index] = (
            tags[index], values[index], [specs[c] for c in children[index]]
        )
    return build_tree(specs[0])


CONFIGS = {
    "default": XSketchConfig(),
    "full": XSketchConfig(include_backward=True),
    "exact": XSketchConfig(engine="exact"),
}


@given(
    tree=recursive_trees(),
    config=st.sampled_from(sorted(CONFIGS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_documents_derive_every_statistic_exactly(tree, config, seed):
    rng = random.Random(seed)
    sketch = TwigXSketch.coarsest(tree, CONFIGS[config])
    assert_recounted(sketch)
    for _ in range(3):
        _, refined = check_pool(sketch, rng)
        if refined is None:
            break
        sketch = refined


@pytest.mark.parametrize("value_probability", [0.0, 0.3])
@pytest.mark.parametrize("name", ["imdb", "xmark"])
def test_xbuild_steps_derive_every_statistic_exactly(name, value_probability):
    """Every step of a small XBUILD build is recounted, and whole pools
    over the first steps are checked against the scan."""
    tree = (
        generate_imdb(400, seed=3) if name == "imdb"
        else generate_xmark(300, seed=5)
    )
    steps = []
    coarse = TwigXSketch.coarsest(tree).size_bytes()
    XBuild(
        tree,
        coarse + 2500,
        seed=11,
        sample_value_probability=value_probability,
        on_step=steps.append,
    ).run()
    assert len(steps) >= 4
    rng = random.Random(13)
    for sketch in steps:
        assert_recounted(sketch)
        assert_sizes_build_no_engine(sketch)
    for sketch in steps[:3]:
        check_pool(sketch, rng)


def test_every_refinement_kind_is_checked():
    """Whole pools over a few rounds of imdb draw every refinement kind,
    value-split with and without a child tag included."""
    tree = generate_imdb(400, seed=3)
    rng = random.Random(7)
    kinds = set()
    for config in (XSketchConfig(), XSketchConfig(include_backward=True)):
        sketch = TwigXSketch.coarsest(tree, config)
        for _ in range(3):
            found, refined = check_pool(sketch, rng)
            kinds |= found
            sketch = refined
    assert kinds == ALL_KINDS


# ----------------------------------------------------------------------
# hand-made splits
# ----------------------------------------------------------------------
def movie_document(movies):
    """``r`` over movies (``m``, each with a year value, a ``t`` child and
    one or two ``y`` children), and a ``c`` child under the first
    ``with_c`` of them; ``movies`` lists each movie's ``y`` count and
    whether it has a ``c``."""
    return build_tree((
        "r", None,
        [
            ("m", 1990 + index, [("t", None, [])]
             + [("y", index, [])] * ys
             + ([("c", None, [])] if has_c else []))
            for index, (ys, has_c) in enumerate(movies)
        ],
    ))


def split_movies(sketch, part_ids):
    """Split the movie node into the movies of ``part_ids`` and the rest,
    counting the scans."""
    movies = sketch.graph.nodes_with_tag("m")[0]
    refined = sketch.copy()
    with counting_scans() as scans:
        refined.split_node(movies.node_id, {
            e.node_id for i, e in enumerate(movies.extent) if i in part_ids
        })
    return movies, refined, scans


def scanned_split(sketch, movies, part_ids):
    with scanning():
        refined = sketch.copy()
        refined.split_node(movies.node_id, {
            e.node_id for i, e in enumerate(movies.extent) if i in part_ids
        })
    return refined


@pytest.mark.parametrize("part_ids", [{0}, set(range(1, 12))])
def test_lopsided_splits_scan_only_the_smaller_part(part_ids):
    """One movie against eleven, whichever side ``part`` names: only that
    movie is scanned, for its edges and its values, and ``r``'s histogram
    (a parent of the split node) is remapped without a scan."""
    tree = movie_document([(1 + i % 3, False) for i in range(12)])
    sketch = TwigXSketch.coarsest(tree)
    movies, refined, scans = split_movies(sketch, part_ids)
    root = sketch.graph.nodes_with_tag("r")[0].node_id
    assert sketch.histograms_at(root)  # r -> m is F-stable
    small = min(
        (n for n in refined.graph.iter_nodes() if n.tag == "m"),
        key=lambda n: n.count,
    )
    assert small.count == 1
    assert set(scans["columns"]) == {small.node_id}
    assert scans["edges"] == []
    assert scans["rows"] == [1]  # r's one element with a child in S
    assert scans["values"] == [1]
    assert scans["engines"] == 0
    assert_matches_scan(refined, scanned_split(sketch, movies, part_ids))
    assert_recounted(refined)


def test_a_part_stable_only_after_the_split_is_scanned():
    """``m -> c`` is not F-stable, so the movie node keeps no counts for
    it; after an f-stabilize the part holding every ``c`` is the larger
    one, and only its histogram over ``c`` comes from a scan."""
    tree = movie_document([(1, i < 8) for i in range(12)])
    sketch = TwigXSketch.coarsest(tree)
    movies = sketch.graph.nodes_with_tag("m")[0].node_id
    c_node = sketch.graph.nodes_with_tag("c")[0].node_id
    assert not sketch.graph.edge(movies, c_node).forward_stable
    refinement = FStabilize(movies, c_node)
    with counting_scans() as scans:
        refined = refinement.apply(sketch)
    small, large = sorted(
        (n for n in refined.graph.iter_nodes() if n.tag == "m"),
        key=lambda n: n.count,
    )
    assert refined.graph.edge(large.node_id, c_node).forward_stable
    assert scans["columns"] == [small.node_id]
    assert scans["edges"] == [large.node_id]
    check_refinement(refinement, sketch)


def test_parent_histogram_at_the_dimension_cap():
    """``m`` holds one histogram over three edges, the cap.  Splitting
    its ``y`` child keeps only the larger part's edge in the scope; the
    remapped histogram is derived, not scanned."""
    tree = movie_document([(1 + i % 3, i % 2 == 0) for i in range(12)])
    sketch = TwigXSketch.coarsest(tree, XSketchConfig(max_histogram_dims=3))
    graph = sketch.graph
    movies = graph.nodes_with_tag("m")[0].node_id
    t_node, y_node, c_node = (
        graph.nodes_with_tag(tag)[0].node_id for tag in ("t", "y", "c")
    )
    assert [h.scope for h in sketch.histograms_at(movies)] == [
        (EdgeRef(movies, t_node),), (EdgeRef(movies, y_node),)
    ]
    for target in (y_node, c_node):
        sketch = check_refinement(
            EdgeExpand(movies, 0, EdgeRef(movies, target)), sketch
        )
    (histogram,) = sketch.histograms_at(movies)
    assert histogram.dimensions == 3
    # the y children of the first three movies against the rest
    part = {e.node_id for e in graph.node(y_node).extent if e.value < 3}
    refined = sketch.copy()
    with counting_scans() as scans:
        refined.split_node(y_node, part)
    assert movies not in scans["columns"] + scans["edges"]
    (remapped,) = refined.histograms_at(movies)
    small, large = sorted(
        (n for n in refined.graph.iter_nodes() if n.tag == "y"),
        key=lambda n: n.count,
    )
    # the rows read are the movies with a y child in S, not every movie
    parents = {element.parent.node_id for element in small.extent}
    assert scans["rows"] == [len(parents)] and len(parents) < 12
    assert remapped.scope == (
        EdgeRef(movies, t_node),
        EdgeRef(movies, large.node_id),
        EdgeRef(movies, c_node),
    )
    with scanning():
        scanned = sketch.copy()
        scanned.split_node(y_node, part)
    assert_matches_scan(refined, scanned)
    assert_recounted(refined)


def test_mixed_values_keep_their_types_apart():
    """``1``, ``1.0``, ``True`` and ``"1"`` are four multiset entries, and
    ``-0.0`` is not ``0.0``.  Splitting the strings off a mixed node
    leaves a derived numeric part, whose engine and bucket count match a
    scan."""
    numbers = [v for v in MIXED_VALUES if not isinstance(v, str)]
    tree = build_tree((
        "r", None,
        [("a", None, [("v", value, [])]) for value in numbers * 2]
        + [("b", None, [("v", value, [])]) for value in MIXED_VALUES]
    ))
    sketch = TwigXSketch.coarsest(tree, XSketchConfig(initial_value_buckets=8))
    graph = sketch.graph
    v_node = graph.nodes_with_tag("v")[0].node_id
    summary = sketch.value_summary(v_node)
    assert len(summary.counts) == len(
        {(type(v).__name__, repr(v)) for v in MIXED_VALUES}
    )
    assert summary.histogram.kind == "string"
    for parent in ("a", "b"):
        refinement = BStabilize(graph.nodes_with_tag(parent)[0].node_id, v_node)
        with counting_scans() as scans:
            refined = refinement.apply(sketch)
        assert scans["values"] == [len(MIXED_VALUES)]  # b's part only
        check_refinement(refinement, sketch)
        kinds = {
            n.node_id: refined.value_summary(n.node_id).histogram.kind
            for n in refined.graph.iter_nodes() if n.tag == "v"
        }
        assert sorted(kinds.values()) == ["numeric", "string"]
    assert check_refinement(ValueSplit(v_node, ValuePredicate(">=", 2)), sketch)


def test_refines_rebuild_from_the_retained_counts():
    """Doubling a budget reads the replaced statistic's counts: no scan
    at all."""
    sketch = TwigXSketch.coarsest(
        movie_document([(1 + i % 3, False) for i in range(12)])
    )
    node_id, index = next(
        (n, i)
        for n, histograms in sketch.edge_stats.items()
        for i, h in enumerate(histograms)
        if h.bucket_count() >= h.budget
    )
    valued = next(
        n for n, s in sketch.value_stats.items()
        if s.bucket_count() >= s.budget
    )
    for refinement in (EdgeRefine(node_id, index), ValueRefine(valued)):
        with counting_scans() as scans:
            refined = refinement.apply(sketch)
        assert scans == {
            "columns": [], "edges": [], "rows": [], "values": [],
            "engines": 0,
        }
        check_refinement(refinement, sketch)
    assert refined.value_summary(valued).counts is (
        sketch.value_summary(valued).counts
    )


def test_value_expand_and_child_tag_split_are_exact():
    tree = generate_imdb(400, seed=3)
    sketch = TwigXSketch.coarsest(tree)
    graph = sketch.graph
    movie = graph.nodes_with_tag("movie")[0].node_id
    scope = tuple(
        EdgeRef(movie, e.target) for e in graph.children_of(movie)
    )[:2]
    assert check_refinement(ValueExpand(movie, "year", scope), sketch)
    years = sorted(
        c.value for e in graph.node(movie).extent
        for c in tree.child_index()[e.node_id].get("year", ())
    )
    split = ValueSplit(
        movie, ValuePredicate("<=", years[len(years) // 2]), "year"
    )
    refined = check_refinement(split, sketch)
    assert refined is not None
    assert len(refined.graph.nodes_with_tag("year")) == 2


def test_resumed_build_keeps_the_same_counts():
    """A build resumed from a checkpoint replays its trail and ends with
    the retained counts of an uninterrupted build."""
    tree = generate_imdb(1200, seed=2)
    budget = TwigXSketch.coarsest(tree).size_bytes() + 700
    full = XBuild(tree, budget, seed=5).run().sketch
    interrupted = XBuild(tree, budget, seed=5, checkpoint_every=1)
    with FaultPlan(Fault(SITE_BUILD_STEP, after=2)).active():
        with pytest.raises(FaultInjected):
            interrupted.run()
    resumed = XBuild(
        tree, budget, seed=5, resume_from=interrupted.last_checkpoint
    ).run().sketch
    assert_recounted(resumed)
    assert {
        n: [h.counts for h in hs] for n, hs in resumed.edge_stats.items()
    } == {n: [h.counts for h in hs] for n, hs in full.edge_stats.items()}
    assert {n: s.counts for n, s in resumed.value_stats.items()} == {
        n: s.counts for n, s in full.value_stats.items()
    }


def test_counts_are_neither_persisted_nor_loaded():
    """Retained counts are scaffolding: a serialized sketch does not
    hold them, and a loaded one has none."""
    tree = movie_document([(1 + i % 3, i % 2 == 0) for i in range(12)])
    sketch = TwigXSketch.coarsest(tree)
    payload = sketch_to_dict(sketch)
    for section in ("edge_histograms", "value_histograms"):
        assert payload[section]
        for entry in payload[section]:
            assert "counts" not in entry and "counts" not in entry.get(
                "state", {}
            )
    loaded = sketch_from_dict(payload)
    assert loaded.size_bytes() == sketch.size_bytes()
    assert all(
        h.counts is None for hs in loaded.edge_stats.values() for h in hs
    )
    assert all(s.counts is None for s in loaded.value_stats.values())
    assert [s.bucket_count() for s in loaded.value_stats.values()] == [
        s.bucket_count() for s in sketch.value_stats.values()
    ]


def test_a_node_without_a_value_summary_is_scanned():
    """Without the split node's value summary, nothing says whether the
    larger part is valued: when the smaller part has no values but the
    tag carries some, the larger part is scanned, and the parts get the
    summaries a scan installs."""
    tree = build_tree((
        "r", None,
        [("m", None if i < 2 else i, [("t", None, [])]) for i in range(12)],
    ))
    sketch = TwigXSketch.coarsest(tree)
    movies = sketch.graph.nodes_with_tag("m")[0].node_id
    del sketch.value_stats[movies]
    part = {e.node_id for e in sketch.graph.node(movies).extent[:2]}
    refined = sketch.copy()
    with counting_scans() as scans:
        refined.split_node(movies, part)
    assert scans["values"] == [0, 10]
    with scanning():
        scanned = sketch.copy()
        scanned.split_node(movies, part)
    assert_matches_scan(refined, scanned)
    assert len(refined.value_stats) == 1
    # the parts of a node whose tag carries no value read no values
    t_node = sketch.graph.nodes_with_tag("t")[0].node_id
    assert "t" not in tree.valued_tags()
    refined = sketch.copy()
    with counting_scans() as scans:
        refined.split_node(t_node, {
            e.node_id for e in sketch.graph.node(t_node).extent[:3]
        })
    assert scans["values"] == [0]


def test_concurrent_first_reads_build_equal_engines():
    """Serve threads share sketches: threads that read an unbuilt value
    engine at once all get an engine equal to an eager one."""
    tree = movie_document([(1 + i % 3, False) for i in range(12)])
    sketch = TwigXSketch.coarsest(tree)
    for summary in sketch.value_stats.values():
        values = [
            e.value for e in sketch.graph.node(summary.node_id).extent
            if e.value is not None
        ]
        eager = build_value_histogram(values, summary.budget).to_state()
        start = threading.Barrier(4)
        states = []

        def read():
            start.wait()
            states.append(summary.histogram.to_state())

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert states == [eager] * 4
        assert summary.histogram.to_state() == eager
