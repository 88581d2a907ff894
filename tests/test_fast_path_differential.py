"""Differential property tests: each fast path against its slow reference.

* ``GraphSynopsis.split_node`` tallies only the smaller part's document
  edges, derives the larger part's counts and witnesses from the old
  node's, and re-inserts the neighbours' edges in the order a rescan would
  meet them.  The oracles are that rescan — every extent of the split
  node's neighbourhood, walked in ``affected`` set order — with the one
  fix the fast path makes on purpose: no edge of the old node survives
  (the rescan left a recursive node's ``old -> old`` self-loop behind);
  and a full recount for counts and witnesses.
* ``count_bindings`` answers ``//tag`` steps from the tag extents and
  child steps from the child index; the oracle is the walking evaluator,
  ``eval_path`` from the virtual root.
* ``TwigEstimator.derive`` re-estimates only the embeddings a refinement
  touched; the oracle is a fresh estimator over the refined sketch.
* ``exact_edge_distribution`` counts a forward-only scope from each
  element's children in the child index; the oracles are the count from
  the targets' extents it replaced and its general path, which visits
  every element of the node and its ancestors.  ``make_extended_summary``
  reads the same counts and its child values from the child index; the
  oracle is the tally of every child of every element it replaced.
* ``DocumentTree.child_index`` groups children by tag, and the value
  proposals read one ``ValueTally`` per node; the oracles filter
  ``element.children`` and rescan the extent per source and predicate.

CI re-runs this module with ``HYPOTHESIS_PROFILE=fuzz``; the tests that
set no ``max_examples`` of their own then draw eight times as many.
"""

import random
from collections import Counter
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.build import generate_candidates
from repro.build import sampling as sampling_module
from repro.build.refinements import (
    ALL_REFINEMENTS,
    FStabilize,
    ValueExpand,
    ValueRefine,
    ValueSplit,
)
from repro.build.sampling import (
    _DISCRIMINATIVE_FRACTION,
    _SPLIT_VALUE_LIMIT,
    RegionSampler,
    ValueTally,
    _value_expand_proposals,
    _value_split_proposals,
)
from repro.datasets import figure1_document, generate_imdb, generate_xmark
from repro.doc import build_tree, parser
from repro.doc.serializer import serialize
from repro.histogram import joint
from repro.histogram.joint import ValueCountHistogram
from repro.histogram.sparse import SparseDistribution
from repro.errors import BuildError
from repro.estimation import TwigEstimator
from repro.estimation import estimator as estimator_module
from repro.obs.explain import KIND_QUERY, ExplainRecorder
from repro.query.ast import CHILD, DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.evaluator import (
    absolute_path,
    count_bindings,
    eval_path,
    virtual_root,
)
from repro.query.values import ValuePredicate
from repro.synopsis import (
    TwigXSketch,
    XSketchConfig,
    label_split_synopsis,
    validate_graph,
)
from repro.synopsis import graph as graph_module
from repro.synopsis.distributions import (
    EdgeRef,
    _general_counts,
    child_counts,
    exact_edge_distribution,
)
from repro.synopsis.graph import GraphSynopsis
from repro.workload import WorkloadGenerator, WorkloadSpec

TAGS = ("a", "b", "c")


INT_VALUES = st.none() | st.integers(0, 3)

#: numbers, strings that spell numbers, and other strings
MIXED_VALUES = INT_VALUES | st.sampled_from(["0", "1", "x", "y"])


@st.composite
def recursive_trees(draw, max_nodes=40, values=INT_VALUES):
    """Small documents over three tags, so tags nest inside themselves.

    Each node hangs under its predecessor or under any earlier node, which
    mixes deep chains (nested same-tag elements) with wide fan-outs.
    """
    size = draw(st.integers(2, max_nodes))
    parents = [
        draw(st.just(index - 1) | st.integers(0, index - 1))
        for index in range(1, size)
    ]
    tags = [draw(st.sampled_from(TAGS)) for _ in range(size)]
    values = [draw(values) for _ in range(size)]
    children: list[list[int]] = [[] for _ in range(size)]
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)

    def spec(index):
        return (tags[index], values[index], [spec(c) for c in children[index]])

    return build_tree(spec(0))


# ----------------------------------------------------------------------
# (a) split recount vs the neighbourhood rescan
# ----------------------------------------------------------------------
def rescan_edges(before, graph, old_id, affected):
    """The edges after a split, as the neighbourhood rescan builds them.

    ``before`` maps the pre-split edge keys to their counts; ``graph``
    already carries the post-split nodes and assignment.  Returns
    ``[(key, counts)]`` in ``edges`` order.
    """
    edges = [
        (key, counts)
        for key, counts in before.items()
        if key[0] not in affected
        and key[1] not in affected
        and old_id not in key
    ]
    counts: dict = {}
    parents: dict = {}
    seen_pairs: set = set()

    def record(parent, child):
        key = (graph.node_of(parent), graph.node_of(child))
        if key[0] in affected or key[1] in affected:
            counts[key] = counts.get(key, 0) + 1
            parents.setdefault(key, set()).add(parent.node_id)

    for node_id in affected:
        for element in graph.node(node_id).extent:
            for child in element.children:
                pair = (element.node_id, child.node_id)
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    record(element, child)
            if element.parent is not None:
                pair = (element.parent.node_id, element.node_id)
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    record(element.parent, element)
    for (source, target), child_count in counts.items():
        edges.append((
            (source, target),
            (
                source,
                target,
                child_count,
                len(parents[(source, target)]),
                graph.node(source).count,
                graph.node(target).count,
            ),
        ))
    return edges


def edge_rows(graph):
    """Each edge's key and counts, without its witness."""
    return [(key, astuple(edge)[:6]) for key, edge in graph.edges.items()]


def witnesses(graph):
    """Each edge's witness, by key."""
    return {key: edge.witness for key, edge in graph.edges.items()}


def split_and_check(graph, node_id, part, split=GraphSynopsis.split_node):
    """Split ``node_id`` by ``part`` and check the result: counts and
    ``edges`` order against the rescan, counts and witnesses against a
    full recount.  Returns the two new node ids."""
    old_extent = list(graph.node(node_id).extent)
    before = dict(edge_rows(graph))
    first, second = split(graph, node_id, part)
    affected = {first, second}
    affected.update(
        graph.node_of(e.parent) for e in old_extent if e.parent is not None
    )
    affected.update(
        graph.node_of(c) for e in old_extent for c in e.children
    )
    assert edge_rows(graph) == rescan_edges(before, graph, node_id, affected)
    fresh = graph.copy()
    fresh._recompute_all_edges()
    assert sorted(edge_rows(fresh)) == sorted(edge_rows(graph))
    assert witnesses(fresh) == witnesses(graph)
    assert validate_graph(graph) == []
    return first, second


@given(tree=recursive_trees(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_split_recount_matches_rescan_order_and_full_recount(tree, data):
    graph = label_split_synopsis(tree)
    for _ in range(data.draw(st.integers(1, 6))):
        splittable = [node for node in graph.iter_nodes() if node.count > 1]
        if not splittable:
            break
        node = data.draw(st.sampled_from(splittable))
        ids = [element.node_id for element in node.extent]
        part = set(data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1,
                     unique=True)
        ))
        split_and_check(graph, node.node_id, part)


@given(tree=recursive_trees(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_lopsided_splits_match_the_references(tree, data):
    """One element split off, as the first part or as the second."""
    graph = label_split_synopsis(tree)
    for _ in range(data.draw(st.integers(1, 6))):
        splittable = [node for node in graph.iter_nodes() if node.count > 1]
        if not splittable:
            break
        node = data.draw(st.sampled_from(splittable))
        ids = {element.node_id for element in node.extent}
        single = data.draw(st.sampled_from(sorted(ids)))
        part = {single} if data.draw(st.booleans()) else ids - {single}
        split_and_check(graph, node.node_id, part)


def seeded_tree(rng, size):
    """A random document over four tags, grown like :func:`recursive_trees`."""
    children = [[] for _ in range(size)]
    for child in range(1, size):
        children[rng.choice([child - 1, rng.randrange(child)])].append(child)
    tags = [rng.choice("abcd") for _ in range(size)]

    def spec(index):
        return (tags[index], [spec(c) for c in children[index]])

    return build_tree(spec(0))


def test_split_order_on_seeded_random_trees():
    """Neighbour ids that share hash slots make the ``affected`` set's
    iteration order depend on insertion order; these trees and split
    sequences include such sets, for the parents and for the children."""
    for seed in range(40):
        rng = random.Random(seed)
        graph = label_split_synopsis(seeded_tree(rng, rng.randint(5, 30)))
        for _ in range(8):
            splittable = [n for n in graph.iter_nodes() if n.count > 1]
            if not splittable:
                break
            node = rng.choice(splittable)
            ids = [element.node_id for element in node.extent]
            part = set(rng.sample(ids, rng.randint(1, len(ids) - 1)))
            split_and_check(graph, node.node_id, part)


def test_split_order_when_child_nodes_share_hash_slots():
    """A split sequence, found by search, whose child nodes iterate in
    another order when not inserted in first-meet order."""
    tree = build_tree((
        "c",
        [
            ("c", [("a", ["d"])]),
            ("d", [("a", [("c", [("d", ["a", "b"])]), "d", ("d", ["d"])])]),
        ],
    ))
    graph = label_split_synopsis(tree)
    for node_id, part in [
        (2, {3, 7, 12}), (4, {7}), (5, {11}), (0, {0, 1}), (10, {1})
    ]:
        split_and_check(graph, node_id, part)


#: ``x`` nests in itself (a recursive node, and a parent node whose
#: elements nest), ``a`` nests in itself only through ``b``
NESTED = (
    "r",
    [
        ("x", [
            ("x", ["a", ("a", ["b"])]),
            ("a", [("b", [("a", ["b", "c"])]), ("b", [("a", ["c"])]), "c"]),
            "a",
        ]),
        ("a", ["c", ("b", ["a", "c"])]),
        ("x", ["a", ("x", [("a", ["c"])])]),
    ],
)


def witness_sides(graph, node_id, small):
    """For each edge incident to ``node_id``, whether the witness elements
    the larger part's witness derives from lie in the smaller part."""
    sides = set()
    for (source, target), (parent_id, child_id, first) in (
        witnesses(graph).items()
    ):
        if source == target:
            continue
        if source == node_id:
            sides.add(("out p", parent_id in small))
            parent = graph.tree.node_by_id(first).parent.node_id
            sides.add(("out t", parent in small))
        elif target == node_id:
            sides.add(("in c", child_id in small))
            sides.add(("in t", first in small))
    return sides


def test_single_element_splits_of_every_node_both_ways():
    """Every element of every node split off alone, as the first part and
    as the second; between them, each witness of the old node lies in the
    smaller part and in the larger part."""
    tree = build_tree(NESTED)
    seen = set()
    recursive = fast = 0
    for tag in tree.tags:
        for element in tree.extent(tag):
            for first_small in (True, False):
                graph = label_split_synopsis(tree)
                node = graph.nodes_with_tag(tag)[0]
                if node.count == 1:
                    continue
                ids = {e.node_id for e in node.extent}
                part = {element.node_id}
                if (node.node_id, node.node_id) in graph.edges:
                    recursive += 1
                else:
                    fast += 1
                    seen |= witness_sides(graph, node.node_id, part)
                split_and_check(
                    graph, node.node_id, part if first_small else ids - part
                )
    assert recursive and fast
    assert seen == {
        (kind, inside)
        for kind in ("out p", "out t", "in c", "in t")
        for inside in (True, False)
    }


def record_tally_calls(monkeypatch):
    """The pairs each later :func:`_tally` call is fed, one list a call."""
    calls = []
    tally = graph_module._tally

    def recording(pairs, assignment):
        pairs = list(pairs)
        calls.append(pairs)
        return tally(pairs, assignment)

    monkeypatch.setattr(graph_module, "_tally", recording)
    return calls


def incident_pairs(elements):
    """The (parent, child) document edges with an end in ``elements``."""
    return {(e.parent, e) for e in elements if e.parent is not None} | {
        (e, c) for e in elements for c in e.children
    }


@pytest.mark.parametrize("small_first", [True, False])
def test_split_tallies_only_the_smaller_part(monkeypatch, small_first):
    """Splitting three elements off a large node feeds the tally their
    own pairs, each once, and nothing of the rest of the node."""
    tree = build_tree(("r", [("a", ["b", ("c", ["b"])])] * 300))
    graph = label_split_synopsis(tree)
    node = graph.nodes_with_tag("a")[0]
    small = node.extent[100:103]
    part = {element.node_id for element in small}
    if not small_first:
        part = {element.node_id for element in node.extent} - part
    calls = record_tally_calls(monkeypatch)
    split_and_check(graph, node.node_id, part)
    assert len(calls[0]) == len(incident_pairs(small))
    assert set(calls[0]) == incident_pairs(small)


def test_recursive_split_recounts_both_parts(monkeypatch):
    """A node with an edge to itself has pairs inside itself: both parts
    are tallied, and the result still matches the references."""
    tree = build_tree(("r", [("a", [("a", ["b"]), "b"]), ("a", ["b"])]))
    graph = label_split_synopsis(tree)
    node = graph.nodes_with_tag("a")[0]
    assert (node.node_id, node.node_id) in graph.edges
    calls = record_tally_calls(monkeypatch)
    split_and_check(graph, node.node_id, {node.extent[1].node_id})
    assert set(calls[0]) == incident_pairs(tree.extent("a"))


def test_value_splits_on_a_child_tag_match_the_references(monkeypatch):
    """Child-tag value splits split the node and then its valued children
    by parentage; every one of those splits matches the references."""
    def child_tag_splits(sketch):
        return [
            proposal
            for node in sketch.graph.iter_nodes()
            for proposal in _value_split_proposals(sketch, node.node_id)
            if proposal.child_tag is not None
        ]

    monkeypatch.setattr(GraphSynopsis, "split_node", split_and_check)
    coarsest = TwigXSketch.coarsest(generate_imdb(1500, seed=3))
    proposals = child_tag_splits(coarsest)
    assert len(proposals) >= 3
    for proposal in proposals[:8]:
        refined = proposal.apply(coarsest)
        for again in child_tag_splits(refined)[:1]:
            again.apply(refined)


# ----------------------------------------------------------------------
# (b) indexed count_bindings vs the walking evaluator
# ----------------------------------------------------------------------
predicates = st.sampled_from([None] * 4) | st.builds(
    ValuePredicate,
    st.sampled_from(["=", "<", "<=", ">", ">="]),
    st.integers(0, 3),
)


@st.composite
def steps(draw, branch_depth=1):
    branches = ()
    if branch_depth > 0 and draw(st.integers(0, 3)) == 0:
        branches = (draw(paths(branch_depth - 1)),)
    return Step(
        draw(st.sampled_from(TAGS)),
        draw(st.sampled_from([CHILD, DESCENDANT, DESCENDANT])),
        draw(predicates),
        branches,
    )


@st.composite
def paths(draw, branch_depth=1):
    return Path(tuple(draw(st.lists(steps(branch_depth), min_size=1,
                                    max_size=3))))


@st.composite
def twigs(draw):
    """Up to four twig nodes; their steps' branches nest two deep."""
    counter = iter(range(100))

    def node():
        return TwigNode(f"t{next(counter)}", draw(paths(branch_depth=2)))

    root = node()
    frontier = [root]
    for _ in range(draw(st.integers(0, 3))):
        parent = draw(st.sampled_from(frontier))
        frontier.append(parent.add_child(node()))
    return TwigQuery(root)


def walking_count(query, tree):
    """The binding count with every step evaluated by subtree walks."""

    def count(node, path, context):
        total = 0
        for element in eval_path(path, context):
            product = 1
            for child in node.children:
                product *= count(child, child.path, element)
            total += product
        return total

    return count(query.root, absolute_path(query.root.path), virtual_root(tree))


def single_path_query(*steps):
    return TwigQuery(TwigNode("t0", Path(steps)))


def twig_query(root_step, *leaf_steps):
    """A root node with one single-step leaf node per ``leaf_steps``."""
    root = TwigNode("t0", Path((root_step,)))
    for index, step in enumerate(leaf_steps, start=1):
        root.add_child(TwigNode(f"t{index}", Path((step,))))
    return TwigQuery(root)


@given(tree=recursive_trees(max_nodes=30), query=twigs())
@settings(max_examples=200, deadline=None)
# a `//` step from nested context elements: their subtrees overlap
@example(
    tree=build_tree(("a", [("a", ["b"])])),
    query=single_path_query(Step("a", DESCENDANT), Step("b", DESCENDANT)),
)
# a child step from nested contexts yields elements out of document order
@example(
    tree=build_tree(("r", [("a", [("a", [("b", ["c"])]), ("b", ["c"])])])),
    query=single_path_query(
        Step("a", DESCENDANT), Step("b"), Step("c", DESCENDANT)
    ),
)
# leaf child steps counted from index list lengths, one tag absent
@example(
    tree=build_tree(("r", [("a", ["b", "b", "c"]), ("a", ["b"]), "a"])),
    query=twig_query(Step("a"), Step("b"), Step("c")),
)
@example(
    tree=build_tree(("r", [("a", ["b", "b", "c"]), ("a", ["b"]), "a"])),
    query=twig_query(Step("a"), Step("b"), Step("d")),
)
# the virtual-root context: the root step matches the document root and
# the nested elements with its tag
@example(
    tree=build_tree(("a", [("a", ["b", ("a", ["b"])]), "b"])),
    query=single_path_query(Step("a"), Step("b")),
)
# a value predicate on a tag that repeats under one parent, as a leaf
# node and as a branch
@example(
    tree=build_tree(("r", [("a", [("b", 1, []), ("b", 2, []), ("b", 2, [])]),
                           ("a", [("b", 1, [])])])),
    query=twig_query(Step("a"), Step("b", CHILD, ValuePredicate("=", 2))),
)
@example(
    tree=build_tree(("r", [("a", [("b", 1, []), ("b", 2, []), ("b", 2, [])]),
                           ("a", [("b", 1, [])])])),
    query=single_path_query(Step("a", CHILD, None, (
        Path((Step("b", CHILD, ValuePredicate(">", 1)),)),
    ))),
)
# a nested branch that contains `//`
@example(
    tree=build_tree(("r", [("a", [("b", [("x", ["c"])])]), ("a", ["b"])])),
    query=single_path_query(Step("a", DESCENDANT, None, (
        Path((Step("b", CHILD, None, (Path((Step("c", DESCENDANT),)),)),)),
    ))),
)
def test_indexed_count_matches_walking_evaluator(tree, query):
    assert count_bindings(query, tree) == walking_count(query, tree)


# ----------------------------------------------------------------------
# (c) derived estimator vs a fresh one
# ----------------------------------------------------------------------
NAMED_DOCUMENTS = {
    "imdb": generate_imdb(500, seed=3),
    "xmark": generate_xmark(300, seed=5),
    "paperfig": figure1_document(),
}

#: workload queries with `//` steps, branches and value predicates
WORKLOADS = {
    name: [
        entry.query
        for entry in WorkloadGenerator(
            tree,
            WorkloadSpec(
                min_nodes=2,
                max_nodes=5,
                branch_probability=0.4,
                descendant_probability=0.4,
                value_predicates=True,
                seed=11,
            ),
        ).positive_workload(6).queries
    ]
    for name, tree in NAMED_DOCUMENTS.items()
}

CONFIGS = {
    "default": XSketchConfig(),
    "no-edge-counts": XSketchConfig(store_edge_counts=False),
    "full": XSketchConfig(include_backward=True),
    "exact": XSketchConfig(engine="exact"),
}


def witness_twig(tree, rng):
    """A twig around a random element: ``//anchor`` with child nodes and
    branch predicates (some two steps deep, some ``//``), value tests
    taken from the witnesses."""
    anchor = rng.choice([e for e in tree.iter_nodes() if e.children])

    def step(element, axis=CHILD):
        predicate = None
        if element.value is not None and rng.random() < 0.5:
            predicate = ValuePredicate("=", element.value)
        return Step(element.tag, axis, predicate)

    branches, children = [], []
    picked = rng.sample(anchor.children, min(len(anchor.children), 3))
    for child in picked:
        grandchild = rng.choice(child.children) if child.children else None
        roll = rng.random()
        if roll < 0.25 and grandchild is not None:
            branches.append(Path((step(child), step(grandchild))))
        elif roll < 0.5:
            branches.append(Path((step(child),)))
        elif roll < 0.65 and grandchild is not None:
            children.append(step(grandchild, DESCENDANT))
        else:
            children.append(step(child))
    root = TwigNode(
        "t0", Path((Step(anchor.tag, DESCENDANT, None, tuple(branches)),))
    )
    for index, child_step in enumerate(children, start=1):
        root.add_child(TwigNode(f"t{index}", Path((child_step,))))
    return TwigQuery(root)


def report_row(estimator, query):
    return astuple(estimator.report(query))


def check_derived_round(
    sketch, tree, rng, queries, max_candidates=None, **limits
):
    """Score one round's candidates through a derived estimator and
    compare every report with a fresh estimator's; returns the kinds
    of the refinements that applied.  ``max_candidates`` replaces the
    pool cap for the round; ``limits`` go to the estimators."""
    sampler = RegionSampler(tree, rng, value_probability=0.5)
    base = TwigEstimator(sketch, **limits).keep_records()
    fresh_base = TwigEstimator(sketch, **limits)
    kinds = set()
    cap = max_candidates or sampling_module.DEFAULT_MAX_CANDIDATES
    with mock.patch.object(sampling_module, "DEFAULT_MAX_CANDIDATES", cap):
        candidates = generate_candidates(sketch, rng)
    for candidate in candidates:
        try:
            refined = candidate.apply(sketch)
        except BuildError:
            continue
        kinds.add(type(candidate).__name__)
        scored = queries + sampler.sample_for_regions(
            sketch, candidate.region(), queries=3
        )
        for query in scored:
            assert report_row(base, query) == report_row(fresh_base, query)
        derived = base.derive(refined)
        fresh = TwigEstimator(refined, **limits)
        for query in scored:
            assert report_row(derived, query) == report_row(fresh, query), (
                candidate.describe(), query.text()
            )
    return kinds


def advance(sketch, rng):
    """The sketch after the first applicable candidate of a fresh pool."""
    for candidate in generate_candidates(sketch, rng):
        try:
            return candidate.apply(sketch)
        except BuildError:
            continue
    return sketch


@given(data=st.data())
def test_derived_estimator_matches_fresh_estimator(data):
    source = data.draw(st.sampled_from(["random", *NAMED_DOCUMENTS]))
    config = CONFIGS[data.draw(st.sampled_from(sorted(CONFIGS)))]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    limits = {}
    if source == "random":
        # `//` expansions over a cyclic synopsis multiply past any test
        # budget: no `twigs()`, shorter walks, fewer embeddings (so some
        # reports are truncated)
        tree = data.draw(recursive_trees())
        queries = []
        limits = {"max_depth": 4, "max_embeddings": 64}
    else:
        tree = NAMED_DOCUMENTS[source]
        queries = list(WORKLOADS[source])
    queries += [witness_twig(tree, rng) for _ in range(6)]
    sketch = TwigXSketch.coarsest(tree, config)
    for _ in range(data.draw(st.integers(0, 3))):
        sketch = advance(sketch, rng)
    check_derived_round(sketch, tree, rng, queries, 8, **limits)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_refinement_kind_derives_exactly(config_name):
    """Whole candidate pools over three rounds of the imdb and paper
    documents: every refinement kind is drawn, applied and checked."""
    kinds = set()
    for name in ("imdb", "paperfig"):
        tree = NAMED_DOCUMENTS[name]
        rng = random.Random(7)
        queries = WORKLOADS[name] + [witness_twig(tree, rng) for _ in range(4)]
        sketch = TwigXSketch.coarsest(tree, CONFIGS[config_name])
        for _ in range(3):
            kinds |= check_derived_round(sketch, tree, rng, queries, 10_000)
            sketch = advance(sketch, rng)
    assert kinds == {cls.__name__ for cls in ALL_REFINEMENTS}


def test_statistics_only_refinement_reuses_the_embeddings(monkeypatch):
    """With the base's graph the derived estimator enumerates nothing and
    still answers as a fresh one."""
    tree = NAMED_DOCUMENTS["paperfig"]
    sketch = TwigXSketch.coarsest(tree)
    queries = WORKLOADS["paperfig"]
    base = TwigEstimator(sketch).keep_records()
    for query in queries:
        base.report(query)
    node_id = next(iter(sketch.value_stats))
    refined = ValueRefine(node_id).apply(sketch)
    assert refined.graph is sketch.graph
    assert refined.changes_since(sketch).nodes == {node_id}
    enumerated = []
    original = estimator_module.enumerate_embeddings
    monkeypatch.setattr(
        estimator_module,
        "enumerate_embeddings",
        lambda *args: enumerated.append(args) or original(*args),
    )
    derived = base.derive(refined)
    for query in queries:
        assert report_row(derived, query) == report_row(
            TwigEstimator(refined), query
        )
    assert len(enumerated) == len(queries)  # the fresh estimators only


def test_an_explained_estimator_always_takes_the_full_path():
    sketch = TwigXSketch.coarsest(NAMED_DOCUMENTS["paperfig"])
    query = WORKLOADS["paperfig"][0]
    recorder = ExplainRecorder()
    base = TwigEstimator(sketch, explain=recorder).keep_records()
    derived = base.derive(advance(sketch, random.Random(1)))
    for estimator in (base, base, derived, derived):
        estimator.report(query)
    assert len(recorder.by_kind(KIND_QUERY)) == 4


def test_unstored_edge_counts_follow_a_split_of_another_parent():
    """Without stored counts an edge's child count is apportioned over
    every incoming edge of its target: splitting one parent of ``b``
    changes the ``b -> b`` estimate though neither end changed."""
    tree = build_tree(("a", [("a", [("b", ["b"])])]))
    sketch = TwigXSketch.coarsest(tree, CONFIGS["no-edge-counts"])
    a = sketch.graph.nodes_with_tag("a")[0].node_id
    query = TwigQuery(TwigNode("t0", Path((
        Step("b", DESCENDANT, None, (Path((Step("b"),)),)),
    ))))
    base = TwigEstimator(sketch).keep_records()
    before = report_row(base, query)
    refined = FStabilize(a, a).apply(sketch)
    fresh = report_row(TwigEstimator(refined), query)
    assert fresh != before
    assert report_row(base.derive(refined), query) == fresh


# ----------------------------------------------------------------------
# (d) forward edge distribution vs the target-side count and the general
#     path; extended-summary observations vs a tally of every child
# ----------------------------------------------------------------------
def target_side_distribution(synopsis, node_id, targets):
    """The forward-only distribution counted from the targets' side.

    One pass over each target's extent counts, per element of
    ``node_id``, its children in that target.  Elements without any such
    child share the all-zero vector, so they are counted, not visited.
    """
    assignment = synopsis.assignment
    per_target = {}
    for target in targets:
        if target in per_target:
            continue
        counts = {}
        for child in synopsis.node(target).extent:
            parent = child.parent
            if parent is not None and assignment[parent.node_id] == node_id:
                counts[parent.node_id] = counts.get(parent.node_id, 0) + 1
        per_target[target] = counts
    columns = [per_target[target] for target in targets]
    parents = set().union(*columns)
    vectors = Counter(
        tuple(column.get(parent, 0) for column in columns)
        for parent in parents
    )
    untouched = synopsis.node(node_id).count - len(parents)
    if untouched:
        vectors[(0,) * len(targets)] += untouched
    return SparseDistribution(vectors)


def assert_forward_matches_references(graph, node_id, targets):
    scope = [EdgeRef(node_id, target) for target in targets]
    points = exact_edge_distribution(graph, node_id, scope).points()
    assert points == target_side_distribution(graph, node_id, targets).points()
    assert points == SparseDistribution(
        _general_counts(graph, node_id, scope)
    ).points()
    return points


def draw_forward_scope(tree, data):
    """A label-split synopsis after up to three random splits, one of its
    nodes with children, and up to three of that node's child nodes."""
    graph = label_split_synopsis(tree)
    for _ in range(data.draw(st.integers(0, 3))):
        splittable = [node for node in graph.iter_nodes() if node.count > 1]
        if not splittable:
            break
        node = data.draw(st.sampled_from(splittable))
        ids = [element.node_id for element in node.extent]
        graph.split_node(node.node_id, set(ids[: data.draw(
            st.integers(1, len(ids) - 1)
        )]))
    sources = sorted({source for source, _ in graph.edges})
    if not sources:
        return graph, None, []
    node_id = data.draw(st.sampled_from(sources))
    targets = [edge.target for edge in graph.children_of(node_id)]
    return graph, node_id, data.draw(
        st.lists(st.sampled_from(targets), min_size=1, max_size=3,
                 unique=True)
    )


@given(tree=recursive_trees(), data=st.data())
def test_forward_distribution_matches_general_path(tree, data):
    graph, node_id, targets = draw_forward_scope(tree, data)
    if targets:
        assert_forward_matches_references(graph, node_id, targets)


def recount_children(graph, element_ids, groups):
    """:func:`child_counts` from every child of every element."""
    return [
        [
            sum(
                1 for child in graph.tree.node_by_id(element_id).children
                if graph.node_of(child) in group
            )
            for element_id in element_ids
        ]
        for group in groups
    ]


@given(tree=recursive_trees(), data=st.data())
def test_child_counts_match_the_references(tree, data):
    """Over a node's extent, one target per group, against the count from
    the targets' side; then over any distinct elements, against a recount
    of every child, with groups that are the two parts of a split node
    (together, they may hold their tag's whole extent) and every node."""
    graph, node_id, targets = draw_forward_scope(tree, data)
    if targets:
        ids = [element.node_id for element in graph.node(node_id).extent]
        groups = [(target,) for target in targets]
        columns = child_counts(graph, ids, groups)
        assert SparseDistribution(Counter(zip(*columns))).points() == (
            target_side_distribution(graph, node_id, targets).points()
        )
        assert columns == recount_children(graph, ids, groups)
    splittable = [node for node in graph.iter_nodes() if node.count > 1]
    if not splittable:
        return
    node = data.draw(st.sampled_from(splittable))
    ids = [element.node_id for element in node.extent]
    first, second = graph.split_node(node.node_id, set(data.draw(
        st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1,
                 unique=True)
    )))
    groups = [(first, second), (second, first)] + [
        (other.node_id,) for other in graph.iter_nodes()
    ]
    elements = data.draw(st.lists(
        st.integers(0, tree.element_count - 1), max_size=12, unique=True
    ))
    assert child_counts(graph, elements, groups) == recount_children(
        graph, elements, groups
    )


def test_forward_distribution_counts_childless_elements_once():
    """Elements with no child in the scope share the zero vector, and
    children outside the scope count for nothing."""
    tree = build_tree(("r", [("a", ["b", "b", "c"]), ("a", ["c"]), "a"]))
    graph = label_split_synopsis(tree)
    a, b = (graph.nodes_with_tag(tag)[0].node_id for tag in "ab")
    assert assert_forward_matches_references(graph, a, [b]) == [
        ((0.0,), 2 / 3), ((2.0,), 1 / 3)
    ]


def test_forward_distribution_over_same_tag_and_split_targets():
    """Targets that share the source's tag, a target holding only part of
    its tag's extent next to one holding all of it, and elements with no
    child in the scope."""
    tree = build_tree((
        "r",
        [
            ("a", [("a", ["b", ("a", ["b"])]), "b", "b"]),
            ("a", [("a", ["c"])]),
            ("a", ["c"]),
        ],
    ))
    graph = label_split_synopsis(tree)
    a = graph.nodes_with_tag("a")[0]
    nested = {e.node_id for e in a.extent if e.parent.tag == "a"}
    inner, outer = graph.split_node(a.node_id, nested)
    b, c = (graph.nodes_with_tag(tag)[0].node_id for tag in "bc")
    for node_id in (inner, outer):
        targets = [edge.target for edge in graph.children_of(node_id)]
        for width in (1, 2, 3):
            for start in range(len(targets)):
                assert_forward_matches_references(
                    graph, node_id, targets[start:start + width]
                )
    assert {inner, b, c} <= {e.target for e in graph.children_of(outer)}
    assert {inner, b, c} <= {e.target for e in graph.children_of(inner)}


def tallied_extended_observations(synopsis, node_id, value_tag, targets):
    """The ``(value, counts)`` observations of an extended summary from a
    tally of every child of every element of ``node_id``.

    The value is the element's own (``value_tag`` None) or the first
    non-None value among its children tagged ``value_tag``; the counts are
    its children in each target.
    """
    observations = []
    for element in synopsis.node(node_id).extent:
        tally = {}
        value = element.value if value_tag is None else None
        for child in element.children:
            child_node = synopsis.node_of(child)
            tally[child_node] = tally.get(child_node, 0) + 1
            if value is None and child.tag == value_tag:
                value = child.value
        observations.append(
            (value, tuple(tally.get(target, 0) for target in targets))
        )
    return observations


def extended_observations(sketch, node_id, value_tag, targets):
    """The observations ``make_extended_summary`` hands its histogram."""
    seen = []

    def record(observations, *budgets):
        seen.append(observations)
        return ValueCountHistogram(observations, *budgets)

    scope = [EdgeRef(node_id, target) for target in targets]
    with mock.patch.object(joint, "ValueCountHistogram", record):
        sketch.make_extended_summary(node_id, value_tag, scope, 4, 4)
    return seen[0]


@given(tree=recursive_trees(values=MIXED_VALUES), data=st.data())
def test_extended_summary_observations_match_the_children_tally(tree, data):
    graph, node_id, targets = draw_forward_scope(tree, data)
    if not targets:
        return
    sketch = TwigXSketch(graph, XSketchConfig())
    for value_tag in (None, *TAGS):
        assert extended_observations(
            sketch, node_id, value_tag, targets
        ) == tallied_extended_observations(graph, node_id, value_tag, targets)


def test_extended_summary_takes_the_first_present_child_value():
    """Children tagged ``value_tag`` without a value are skipped, and an
    element without such a child observes None."""
    tree = build_tree((
        "r", [("a", [("v", None, []), ("b", 1, []), ("v", 2, []),
                     ("v", 3, [])]), ("a", ["b"])],
    ))
    graph = label_split_synopsis(tree)
    a, b = (graph.nodes_with_tag(tag)[0].node_id for tag in "ab")
    sketch = TwigXSketch(graph, XSketchConfig())
    observed = extended_observations(sketch, a, "v", [b])
    assert observed == [(2, (1,)), (None, (1,))]
    assert observed == tallied_extended_observations(graph, a, "v", [b])


# ----------------------------------------------------------------------
# (e) child index and value tallies vs rescans of the children
# ----------------------------------------------------------------------
def assert_child_index_matches_children(tree):
    index = tree.child_index()
    assert len(index) == tree.element_count
    for element in tree.iter_nodes():
        groups = index[element.node_id]
        assert set(groups) == {child.tag for child in element.children}
        for tag in tree.tags:
            assert groups.get(tag, []) == [
                c for c in element.children if c.tag == tag
            ]


def rescan_sources(node):
    sources = []
    if any(e.value is not None for e in node.extent):
        sources.append(None)
    child_tags = []
    for element in node.extent:
        for child in element.children:
            if child.value is not None and child.tag not in child_tags:
                child_tags.append(child.tag)
    return sources + sorted(child_tags)


def rescan_observations(node, child_tag):
    if child_tag is None:
        return [e.value for e in node.extent if e.value is not None]
    values = []
    for element in node.extent:
        for child in element.children:
            if child.tag == child_tag and child.value is not None:
                values.append(child.value)
                break
    return values


def rescan_part_size(node, predicate, child_tag):
    def matches(element):
        if child_tag is None:
            return predicate.matches(element.value)
        return any(
            child.tag == child_tag and predicate.matches(child.value)
            for child in element.children
        )

    return sum(1 for element in node.extent if matches(element))


def rescan_split_proposals(sketch, node_id):
    node = sketch.graph.node(node_id)
    proposals = []
    for child_tag in rescan_sources(node):
        values = rescan_observations(node, child_tag)
        if len(values) < 2:
            continue
        numeric = [v for v in values if isinstance(v, (int, float))]
        if len(numeric) == len(values):
            median = sorted(numeric)[len(numeric) // 2]
            predicate = ValuePredicate("<", median)
            part = rescan_part_size(node, predicate, child_tag)
            if 0 < part < node.count:
                proposals.append(ValueSplit(node_id, predicate, child_tag))
            continue
        frequency = Counter(str(v) for v in values)
        for value, count in frequency.most_common(_SPLIT_VALUE_LIMIT):
            if count < 2:
                continue
            predicate = ValuePredicate("=", value)
            part = rescan_part_size(node, predicate, child_tag)
            if 0 < part < node.count:
                proposals.append(ValueSplit(node_id, predicate, child_tag))
    return proposals


def rescan_expand_proposals(sketch, node_id):
    node = sketch.graph.node(node_id)
    forward = sorted(
        sketch.graph.children_of(node_id),
        key=lambda edge: edge.child_count,
        reverse=True,
    )
    scope = tuple(
        EdgeRef(node_id, edge.target)
        for edge in forward[: min(2, sketch.config.max_histogram_dims)]
    )
    if not scope:
        return []
    existing = {summary.value_tag for summary in sketch.extended_at(node_id)}
    proposals = []
    for value_tag in rescan_sources(node):
        if value_tag in existing:
            continue
        values = rescan_observations(node, value_tag)
        if len(values) < 2:
            continue
        numeric = [v for v in values if isinstance(v, (int, float))]
        if len(numeric) < len(values):
            if len(set(str(v) for v in values)) > len(values) * _DISCRIMINATIVE_FRACTION:
                continue
        proposals.append(ValueExpand(node_id, value_tag, scope))
    return proposals


def probe_predicates(values):
    """The predicates proposals build from these values (``=`` on the
    text of frequent values, ``<`` on the median of numbers), plus ``=``
    and ``>=`` on the frequent values themselves."""
    frequent = [value for value, _ in Counter(values).most_common(4)]
    numeric = sorted(v for v in values if isinstance(v, (int, float)))
    predicates = {ValuePredicate("=", str(value)) for value in frequent}
    predicates.update(ValuePredicate("=", value) for value in frequent)
    predicates.update(ValuePredicate(">=", value) for value in frequent)
    if numeric:
        predicates.add(ValuePredicate("<", numeric[len(numeric) // 2]))
    return sorted(predicates, key=repr)


def assert_tallies_match_rescans(sketch):
    index = sketch.graph.tree.child_index()
    for node in sketch.graph.iter_nodes():
        tally = ValueTally(node, index)
        assert tally.sources == rescan_sources(node)
        for source in tally.sources:
            observed = tally.observations(source)
            assert observed == rescan_observations(node, source)
            for predicate in probe_predicates(observed):
                assert tally.part_size(source, predicate) == (
                    rescan_part_size(node, predicate, source)
                ), (node.node_id, source, predicate)
        assert _value_split_proposals(sketch, node.node_id, tally) == (
            rescan_split_proposals(sketch, node.node_id)
        )
        assert _value_split_proposals(sketch, node.node_id) == (
            rescan_split_proposals(sketch, node.node_id)
        )
        for sources in (tally.expand_sources(), None):
            assert _value_expand_proposals(sketch, node.node_id, sources) == (
                rescan_expand_proposals(sketch, node.node_id)
            )


def value_split_lineage(sketch, rng, rounds):
    """The sketch and its successors: each round applies a random value
    split when one is proposed, else the first applicable candidate."""
    lineage = [sketch]
    for _ in range(rounds):
        splits = [
            proposal
            for node in sketch.graph.iter_nodes()
            for proposal in _value_split_proposals(sketch, node.node_id)
        ]
        if splits:
            sketch = rng.choice(splits).apply(sketch)
        else:
            sketch = advance(sketch, rng)
        lineage.append(sketch)
    return lineage


@given(tree=recursive_trees(values=MIXED_VALUES), data=st.data())
def test_index_and_tallies_match_rescans_on_random_trees(tree, data):
    assert_child_index_matches_children(tree)
    sketch = TwigXSketch.coarsest(tree)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for refined in value_split_lineage(sketch, rng, data.draw(
        st.integers(0, 3)
    )):
        assert_tallies_match_rescans(refined)


@pytest.mark.parametrize("name", ["imdb", "xmark"])
def test_index_and_tallies_match_rescans_on_datasets(name):
    tree = (
        generate_imdb(3000, seed=2) if name == "imdb"
        else generate_xmark(4000, seed=5)
    )
    assert_child_index_matches_children(tree)
    sketch = TwigXSketch.coarsest(tree)
    for refined in value_split_lineage(sketch, random.Random(9), 4):
        assert_tallies_match_rescans(refined)


def test_parsing_leaves_the_indexes_unbuilt():
    tree = parser.parse_string(serialize(generate_imdb(300, seed=4)))
    assert tree._child_index is None
    assert tree._subtree_ends is None
    count_bindings(single_path_query(Step("movie"), Step("actor")), tree)
    assert tree._child_index is not None
    assert_child_index_matches_children(tree)
