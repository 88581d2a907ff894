"""Differential property tests: each fast path against its slow reference.

* ``GraphSynopsis.split_node`` recounts only the edges of the two new
  parts and re-inserts the neighbours' edges in the order a rescan would
  meet them.  The oracle here is that rescan — every extent of the split
  node's neighbourhood, walked in ``affected`` set order — with the one
  fix the fast path makes on purpose: no edge of the old node survives
  (the rescan left a recursive node's ``old -> old`` self-loop behind).
* ``count_bindings`` answers ``//tag`` steps from the tag extents and
  child steps from the child index; the oracle is the walking evaluator,
  ``eval_path`` from the virtual root.
* ``TwigEstimator.derive`` re-estimates only the embeddings a refinement
  touched; the oracle is a fresh estimator over the refined sketch.
* ``exact_edge_distribution`` counts a forward-only scope from the
  targets' extents; the oracle is its general path, which visits every
  element of the node.
* ``DocumentTree.child_index`` groups children by tag, and the value
  proposals read one ``ValueTally`` per node; the oracles filter
  ``element.children`` and rescan the extent per source and predicate.

CI re-runs this module with ``HYPOTHESIS_PROFILE=fuzz``; the tests that
set no ``max_examples`` of their own then draw eight times as many.
"""

import random
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.build import generate_candidates
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
from repro.synopsis import TwigXSketch, XSketchConfig, label_split_synopsis
from repro.synopsis.distributions import (
    EdgeRef,
    _general_distribution,
    exact_edge_distribution,
)
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
    return [(key, astuple(edge)) for key, edge in graph.edges.items()]


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
        old_extent = list(node.extent)
        before = dict(edge_rows(graph))
        first, second = graph.split_node(node.node_id, part)
        affected = {first, second}
        affected.update(
            graph.node_of(e.parent) for e in old_extent if e.parent is not None
        )
        affected.update(
            graph.node_of(c) for e in old_extent for c in e.children
        )
        assert edge_rows(graph) == rescan_edges(
            before, graph, node.node_id, affected
        )
        fresh = graph.copy()
        fresh._recompute_all_edges()
        assert sorted(edge_rows(fresh)) == sorted(edge_rows(graph))
        assert set(graph._witnesses) == set(graph.edges)
        graph.validate()


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
    "full": XSketchConfig.full(),
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
    of the refinements that applied.  ``limits`` go to the estimators."""
    sampler = RegionSampler(tree, rng, value_probability=0.5)
    base = TwigEstimator(sketch, **limits).keep_records()
    fresh_base = TwigEstimator(sketch, **limits)
    kinds = set()
    for candidate in generate_candidates(sketch, rng, max_candidates):
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
# (d) forward edge distribution vs the general path
# ----------------------------------------------------------------------
@given(tree=recursive_trees(), data=st.data())
def test_forward_distribution_matches_general_path(tree, data):
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
        return
    node_id = data.draw(st.sampled_from(sources))
    targets = [edge.target for edge in graph.children_of(node_id)]
    scope = [EdgeRef(node_id, target) for target in data.draw(
        st.lists(st.sampled_from(targets), min_size=1, max_size=3,
                 unique=True)
    )]
    assert exact_edge_distribution(graph, node_id, scope).points() == (
        _general_distribution(graph, node_id, scope).points()
    )


def test_forward_distribution_counts_childless_elements_once():
    """Elements with no child in the scope share the zero vector, and
    children outside the scope count for nothing."""
    tree = build_tree(("r", [("a", ["b", "b", "c"]), ("a", ["c"]), "a"]))
    graph = label_split_synopsis(tree)
    a, b = (graph.nodes_with_tag(tag)[0].node_id for tag in "ab")
    scope = [EdgeRef(a, b)]
    expected = [((0.0,), 2 / 3), ((2.0,), 1 / 3)]
    assert exact_edge_distribution(graph, a, scope).points() == expected
    assert _general_distribution(graph, a, scope).points() == expected


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
