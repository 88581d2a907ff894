"""Zero error on a fully stable synopsis with exact statistics.

The paper's Figure 4 / §6.2 guarantee: when every synopsis edge is
B-stable and each node stores the exact joint distribution of its
outgoing edge counts, the twig estimate is the true selectivity.
:func:`build_reference_sketch` builds such a synopsis (a backward
bisimulation with one exact histogram over all of a node's outgoing
edges), so its estimates must equal :func:`count_bindings`:

* for child-step paths and for one-level twigs (a root step with
  child-step leaves), on documents whose tags nest inside themselves;
* for twigs of more than one level whose branching nodes have only leaf
  children (a path that fans out into leaves at its last node, with
  branch predicates there, each on an edge of its own), on the same
  documents: below a node with one child the subtree factors add up
  over the B-stable edge, and the leaves and branches of a fan read
  nothing but the fan node's exact joint counts;
* for a value predicate on the last node of a path when that node has
  no children and no branches, and every element carries a value: the
  reference value histograms hold one bucket per element, so they are
  exact;
* for paths with ``//`` steps, on documents whose tags never nest.

An exact-engine synopsis that XBUILD itself reaches, on imdb@150 with an
unbounded budget, estimates a P workload (branches and ``//`` included)
with zero error too.  A P+V workload is not exact there (4–15 of 60
queries differ over three document seeds), for the first reason below.

Not asserted, because the estimator assumes an independence there that
exact statistics do not make true:

* a value predicate on a node with children or branches, or on a leaf
  beside sibling counts, multiplies in under structure/value
  independence (about 1% of random twigs with predicates anywhere
  differ);
* a value predicate over elements of which only some carry a value: the
  value histogram's fraction counts valued elements only;
* a branch predicate that repeats another's edge, or tests an edge that
  also expands a child, multiplies in as an independent existence
  probability (``a[a][a]`` estimates 1.5 where the truth is 2).

Not asserted: ``//`` over nested same-tag elements.  There the
estimator sums synopsis walks, and two walks can reach one element (an
``a`` below an ``a`` below an ``a`` is reached from both), while the
truth counts the element once.  On the random recursive documents below,
14–16% of ``//`` paths differ (171 of 1 200 in one sample).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build.oracles import build_reference_sketch
from repro.doc import build_tree
from repro.estimation import TwigEstimator
from repro.build.xbuild import XBuild
from repro.datasets import generate_imdb
from repro.query.ast import CHILD, DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.evaluator import count_bindings
from repro.query.values import ValuePredicate
from repro.synopsis.summary import XSketchConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

TAGS = ("a", "b", "c")


def _tree(draw, max_nodes, tag_at, valued=False):
    """A random document: node ``i`` hangs under its predecessor or any
    earlier node; ``tag_at(depth)`` draws each node's tag, and with
    ``valued`` every node carries an integer value."""
    size = draw(st.integers(2, max_nodes))
    parents = [
        draw(st.just(index - 1) | st.integers(0, index - 1))
        for index in range(1, size)
    ]
    depths = [0]
    for parent in parents:
        depths.append(depths[parent] + 1)
    tags = [draw(tag_at(depth)) for depth in depths]
    children: list[list[int]] = [[] for _ in range(size)]
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)

    values = [
        draw(st.integers(0, 5)) if valued else None for _ in range(size)
    ]
    specs: list = [None] * size
    for index in reversed(range(size)):  # children before their parent
        specs[index] = (
            tags[index], values[index], [specs[c] for c in children[index]]
        )
    return build_tree(specs[0])


@st.composite
def recursive_trees(draw, max_nodes=40, valued=False):
    """Three tags at every depth, so tags nest inside themselves."""
    return _tree(
        draw, max_nodes, lambda depth: st.sampled_from(TAGS), valued
    )


@st.composite
def layered_trees(draw, max_nodes=40):
    """Tags carry their depth (``a2`` sits at depth 2), so no tag nests
    inside itself."""
    return _tree(
        draw,
        max_nodes,
        lambda depth: st.sampled_from([f"{tag}{depth}" for tag in TAGS]),
    )


def tags_of(tree):
    return sorted(tree.tags)


def path_query(steps):
    return TwigQuery(TwigNode("t0", Path(tuple(steps))))


@st.composite
def child_paths(draw, tags):
    return path_query(
        Step(tag, CHILD)
        for tag in draw(st.lists(st.sampled_from(tags), min_size=1,
                                 max_size=4))
    )


@st.composite
def one_level_twigs(draw, tags):
    root = TwigNode("t0", Path((Step(draw(st.sampled_from(tags))),)))
    for index, tag in enumerate(
        draw(st.lists(st.sampled_from(tags), min_size=1, max_size=3)),
        start=1,
    ):
        root.add_child(TwigNode(f"t{index}", Path((Step(tag),))))
    return TwigQuery(root)


def predicates():
    return st.builds(ValuePredicate, st.sampled_from(["=", "<=", ">="]),
                     st.integers(0, 5)) | st.builds(
        lambda low, width: ValuePredicate.between(low, low + width),
        st.integers(0, 5), st.integers(0, 3),
    )


@st.composite
def fanned_paths(draw, tags, valued=False):
    """A path of 1–4 single-step nodes whose last node has 0–3 leaf
    children and branch predicates ``[tag]``.  With ``valued``, the last
    node takes a value predicate when it has neither."""
    chain = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=4))
    leaves = draw(st.lists(st.sampled_from(tags), max_size=3))
    # each branch on an edge of its own: a second test of one edge, or
    # a test of an edge that also expands, multiplies in independently
    free = [tag for tag in tags if tag not in leaves]
    branches = tuple(
        Path((Step(tag),))
        for tag in draw(st.lists(st.sampled_from(free), max_size=2,
                                 unique=True) if free else st.just([]))
    )
    predicate = (
        draw(st.none() | predicates())
        if valued and not leaves and not branches else None
    )
    nodes = [
        TwigNode(f"t{index}", Path((Step(tag),)))
        for index, tag in enumerate(chain[:-1])
    ]
    nodes.append(TwigNode(f"t{len(chain) - 1}", Path((
        Step(chain[-1], CHILD, predicate, branches),
    ))))
    for parent, child in zip(nodes, nodes[1:]):
        parent.add_child(child)
    for index, tag in enumerate(leaves, start=len(chain)):
        nodes[-1].add_child(TwigNode(f"t{index}", Path((Step(tag),))))
    return TwigQuery(nodes[0])


@st.composite
def descendant_paths(draw, tags):
    steps = draw(st.lists(
        st.tuples(st.sampled_from(tags), st.sampled_from([CHILD, DESCENDANT])),
        min_size=1,
        max_size=4,
    ))
    return path_query(Step(tag, axis) for tag, axis in steps)


def assert_exact(tree, queries):
    estimator = TwigEstimator(build_reference_sketch(tree))
    for query in queries:
        assert estimator.estimate(query) == pytest.approx(
            count_bindings(query, tree)
        ), query.text()


@given(data=st.data())
def test_child_paths_and_one_level_twigs_are_exact(data):
    tree = data.draw(recursive_trees())
    tags = tags_of(tree)
    queries = data.draw(st.lists(
        child_paths(tags) | one_level_twigs(tags), min_size=1, max_size=15
    ))
    assert_exact(tree, queries)


@given(data=st.data())
def test_twigs_fanning_out_at_their_last_node_are_exact(data):
    """With ``valued``, paths may end in a value predicate."""
    valued = data.draw(st.booleans())
    tree = data.draw(recursive_trees(valued=valued))
    queries = data.draw(st.lists(
        fanned_paths(tags_of(tree), valued), min_size=1, max_size=15
    ))
    assert_exact(tree, queries)


def test_an_exact_synopsis_xbuild_reaches_is_exact():
    """XBUILD with exact histograms and no budget limit refines imdb@150
    until no candidate lowers its sampled error.  The result is not the
    reference synopsis (some edges stay B-unstable), yet it estimates a
    P workload exactly."""
    tree = generate_imdb(150, seed=3)
    result = XBuild(
        tree, 10**7, XSketchConfig(engine="exact"), seed=5
    ).run()
    assert result.reason == "completed"
    estimator = TwigEstimator(result.sketch)
    workload = WorkloadGenerator(tree, WorkloadSpec(seed=2)).positive_workload(
        60
    )
    for entry in workload.queries:
        assert estimator.estimate(entry.query) == pytest.approx(
            entry.true_count
        ), entry.query.text()


@given(data=st.data())
def test_descendant_paths_are_exact_when_tags_do_not_nest(data):
    tree = data.draw(layered_trees())
    tags = tags_of(tree)
    queries = data.draw(st.lists(descendant_paths(tags), min_size=1,
                                 max_size=15))
    assert_exact(tree, queries)


def test_hand_written_document_is_exact():
    """The hand-written shape: two levels, a repeated leaf tag and an
    absent one."""
    tree = build_tree(
        ("r", [("a", ["b", "b", "c"]), ("a", ["b"]), ("a", ["c", "c"])])
    )
    twig = TwigNode("t0", Path((Step("a"),)))
    twig.add_child(TwigNode("t1", Path((Step("b"),))))
    twig.add_child(TwigNode("t2", Path((Step("c"),))))
    queries = [
        TwigQuery(twig),
        path_query([Step("r"), Step("a"), Step("b")]),
        path_query([Step("r"), Step("c", DESCENDANT)]),
        path_query([Step("a"), Step("d")]),
    ]
    assert [count_bindings(q, tree) for q in queries] == [2, 3, 3, 0]
    assert_exact(tree, queries)
