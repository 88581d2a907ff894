"""Zero error on a fully stable synopsis with exact statistics.

The paper's Figure 4 / §6.2 guarantee: when every synopsis edge is
B-stable and each node stores the exact joint distribution of its
outgoing edge counts, the twig estimate is the true selectivity.
:func:`build_reference_sketch` builds such a synopsis (a backward
bisimulation with one exact histogram over all of a node's outgoing
edges), so its estimates must equal :func:`count_bindings`:

* for child-step paths and for one-level twigs (a root step with
  child-step leaves), on documents whose tags nest inside themselves;
* for paths with ``//`` steps, on documents whose tags never nest.

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
from repro.query.ast import CHILD, DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.evaluator import count_bindings

TAGS = ("a", "b", "c")


def _tree(draw, max_nodes, tag_at):
    """A random document: node ``i`` hangs under its predecessor or any
    earlier node; ``tag_at(depth)`` draws each node's tag."""
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

    def spec(index):
        return (tags[index], None, [spec(c) for c in children[index]])

    return build_tree(spec(0))


@st.composite
def recursive_trees(draw, max_nodes=40):
    """Three tags at every depth, so tags nest inside themselves."""
    return _tree(draw, max_nodes, lambda depth: st.sampled_from(TAGS))


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
