"""Differential property tests: each fast path against its slow reference.

* ``GraphSynopsis.split_node`` recounts only the edges of the two new
  parts and re-inserts the neighbours' edges in the order a rescan would
  meet them.  The oracle here is that rescan — every extent of the split
  node's neighbourhood, walked in ``affected`` set order — with the one
  fix the fast path makes on purpose: no edge of the old node survives
  (the rescan left a recursive node's ``old -> old`` self-loop behind).
* ``count_bindings`` answers ``//tag`` steps from the tag extents; the
  oracle is the walking evaluator, ``eval_path`` from the virtual root.
"""

from dataclasses import astuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.doc import build_tree
from repro.query.ast import CHILD, DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.evaluator import (
    absolute_path,
    count_bindings,
    eval_path,
    virtual_root,
)
from repro.query.values import ValuePredicate
from repro.synopsis import label_split_synopsis

TAGS = ("a", "b", "c")


@st.composite
def recursive_trees(draw, max_nodes=40):
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
    values = [draw(st.none() | st.integers(0, 3)) for _ in range(size)]
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
    counter = iter(range(100))

    def node():
        return TwigNode(f"t{next(counter)}", draw(paths()))

    root = node()
    frontier = [root]
    for _ in range(draw(st.integers(0, 2))):
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
def test_indexed_count_matches_walking_evaluator(tree, query):
    assert count_bindings(query, tree) == walking_count(query, tree)
