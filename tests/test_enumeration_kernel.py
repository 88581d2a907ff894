"""Embedding enumeration against its slow reference.

``enumerate_embeddings`` matches a one-child-step twig node (and a
one-child-step branch predicate) straight from the graph's children-by-
tag index, extends a freshly built chain in place unless its children
combine in more than one way, and deduplicates roots only where a ``//``
walk can build one root twice.  The reference is the enumeration those
replaced, kept here verbatim in substance: every query must give equal
embeddings (``==`` and root signatures) in the same order, and the same
``budget.truncated``.

The module also pins the work bounds and the one duplicate the
deduplication exists for.

CI re-runs this module with ``HYPOTHESIS_PROFILE=fuzz``.
"""

import random
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import figure1_document
from repro.doc import build_tree, parse_string
from repro.errors import EstimationError
from repro.estimation import (
    DEFAULT_MAX_EMBEDDINGS,
    Embedding,
    EmbeddingBudget,
    EmbeddingNode,
    enumerate_embeddings,
    validate_embedding,
)
from repro.estimation import embeddings as embeddings_module
from repro.query import parse_for_clause, parse_path, twig
from repro.query.ast import CHILD, DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.synopsis import (
    TwigXSketch,
    label_split_synopsis,
    sketch_from_dict,
    sketch_to_dict,
)
from tests.test_estimation_kernel import workload, xbuild_steps
from tests.test_fast_path_differential import (
    CONFIGS,
    NAMED_DOCUMENTS,
    TAGS,
    predicates,
    recursive_trees,
    witness_twig,
)


# ----------------------------------------------------------------------
# the reference: the enumeration before direct child steps
# ----------------------------------------------------------------------
def reference_chain_expansions(synopsis, context, path, max_depth):
    """Synopsis chains matching ``path`` from ``context``, through the
    three generator layers."""

    def continuations(current, step):
        if current is None:
            for node in synopsis.nodes_with_tag(step.tag):
                yield [(node.node_id, step)]
            return
        if step.axis != DESCENDANT:
            for target in synopsis.child_ids_with_tag(current, step.tag):
                yield [(target, step)]
            return
        explored = 0
        yielded = 0
        queue = [[edge.target] for edge in synopsis.children_of(current)]
        position = 0
        while position < len(queue):
            chain = queue[position]
            position += 1
            tail = chain[-1]
            if synopsis.node(tail).tag == step.tag:
                yielded += 1
                if yielded > embeddings_module.MAX_DESCENDANT_CHAINS:
                    return
                yield [
                    (node_id, Step(synopsis.node(node_id).tag))
                    for node_id in chain[:-1]
                ] + [(tail, step)]
            if len(chain) < max_depth:
                for edge in synopsis.children_of(tail):
                    explored += 1
                    if explored > embeddings_module.MAX_DESCENDANT_EXPLORATION:
                        return
                    queue.append(chain + [edge.target])

    def recurse(current, steps):
        head, rest = steps[0], steps[1:]
        for prefix in continuations(current, head):
            if not rest:
                yield prefix
                continue
            for suffix in recurse(prefix[-1][0], rest):
                yield prefix + suffix

    yield from recurse(context, path.steps)


def reference_embed_branch(synopsis, context, branch, max_depth):
    alternatives = []
    chains = reference_chain_expansions(synopsis, context, branch, max_depth)
    for chain in chains:
        head = tail = None
        valid = True
        for node_id, step in chain:
            embedded = EmbeddingNode(node_id, step.value_pred)
            for nested in step.branches:
                nested_alternatives = reference_embed_branch(
                    synopsis, node_id, nested, max_depth
                )
                if not nested_alternatives:
                    valid = False
                    break
                embedded.branches.append(nested_alternatives)
            if not valid:
                break
            if head is None:
                head = embedded
            else:
                tail.children.append(embedded)
            tail = embedded
        if valid and head is not None:
            alternatives.append(head)
    return alternatives


def reference_product(sets) -> Iterator[list]:
    if not sets:
        yield []
        return
    head, rest = sets[0], sets[1:]
    for choice in head:
        for remainder in reference_product(rest):
            yield [choice] + remainder


def reference_clone_chain(node):
    clone = EmbeddingNode(node.node_id, node.value_pred, list(node.branches))
    if node.children:
        clone.children = [reference_clone_chain(node.children[0])]
    return clone


def reference_roots(query, synopsis, max_depth=12, budget=None):
    """Every root the reference builds, duplicates included."""
    budget = budget or EmbeddingBudget()

    def embed_twig(node, context):
        results = []
        for chain in reference_chain_expansions(
            synopsis, context, node.path, max_depth
        ):
            if budget.full(len(results)):
                return results
            head = tail = None
            valid = True
            for node_id, step in chain:
                embedded = EmbeddingNode(node_id, step.value_pred)
                for branch in step.branches:
                    alternatives = reference_embed_branch(
                        synopsis, node_id, branch, max_depth
                    )
                    if not alternatives:
                        valid = False
                        break
                    embedded.branches.append(alternatives)
                if not valid:
                    break
                if head is None:
                    head = embedded
                else:
                    tail.children.append(embedded)
                tail = embedded
            if not valid or head is None:
                continue
            child_sets = []
            ok = True
            for child in node.children:
                embedded_children = embed_twig(child, tail.node_id)
                if not embedded_children:
                    ok = False
                    break
                child_sets.append(embedded_children)
            if not ok:
                continue
            for combination in reference_product(child_sets):
                if budget.full(len(results)):
                    return results
                clone = reference_clone_chain(head)
                clone_tail = clone
                while clone_tail.children:
                    clone_tail = clone_tail.children[0]
                clone_tail.children.extend(combination)
                results.append(clone)
        return results

    return embed_twig(query.root, None)


def reference_enumerate(query, synopsis, max_depth=12, budget=None):
    unique = {}
    for root in reference_roots(query, synopsis, max_depth, budget):
        unique.setdefault(root.signature(), Embedding(root))
    return list(unique.values())


def assert_same(query, graph, max_depth=12, limit=DEFAULT_MAX_EMBEDDINGS):
    """The enumeration equals the reference's, truncation included."""
    expected_budget = EmbeddingBudget(limit)
    actual_budget = EmbeddingBudget(limit)
    expected = reference_enumerate(query, graph, max_depth, expected_budget)
    actual = enumerate_embeddings(query, graph, max_depth, actual_budget)
    assert actual == expected, query.text()
    assert [e.root.signature() for e in actual] == [
        e.root.signature() for e in expected
    ], query.text()
    assert actual_budget.truncated == expected_budget.truncated, query.text()
    for embedding in actual:
        validate_embedding(embedding, graph)
    return actual


# ----------------------------------------------------------------------
# the differential property
# ----------------------------------------------------------------------
def split_randomly(graph, rng, splits):
    """``graph`` with up to ``splits`` random node splits, so one tag
    lives in several synopsis nodes (several child targets per step)."""
    graph = graph.copy()
    for _ in range(splits):
        candidates = [n for n in graph.iter_nodes() if len(n.extent) >= 2]
        if not candidates:
            break
        node = rng.choice(candidates)
        extent = list(node.extent)
        part = rng.sample(extent, rng.randint(1, len(extent) - 1))
        graph.split_node(node.node_id, {e.node_id for e in part})
    return graph


budgets = st.just(DEFAULT_MAX_EMBEDDINGS) | st.integers(1, 8)


@st.composite
def small_paths(draw, branch_depth, max_steps=2):
    """One or two steps, each a child or `//` step with an optional value
    predicate and, above ``branch_depth`` 0, an optional branch (a
    nested branch takes one step)."""
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        branches = ()
        if branch_depth > 0 and draw(st.integers(0, 2)) == 0:
            branches = (
                draw(small_paths(branch_depth - 1, max_steps=branch_depth)),
            )
        # mostly bare steps: a predicate on a matched step tells apart
        # the walks that would otherwise build one root twice
        predicate = draw(predicates) if draw(st.integers(0, 3)) == 0 else None
        steps.append(Step(
            draw(st.sampled_from(TAGS)),
            draw(st.sampled_from([CHILD, DESCENDANT])),
            predicate,
            branches,
        ))
    return Path(tuple(steps))


@st.composite
def small_twigs(draw):
    """Up to four twig nodes; branches nest two deep.  Kept small because
    every `//` step multiplies the walks of the steps after it, and
    branch alternatives are not budgeted."""
    counter = iter(range(100))

    def node():
        return TwigNode(f"t{next(counter)}", draw(small_paths(2)))

    root = node()
    frontier = [root]
    for _ in range(draw(st.integers(0, 3))):
        parent = draw(st.sampled_from(frontier))
        frontier.append(parent.add_child(node()))
    return TwigQuery(root)


@given(tree=recursive_trees(max_nodes=20), data=st.data())
def test_random_recursive_documents_match_the_reference(tree, data):
    """Recursive tags, `//` in root, child and branch paths, nested
    branches, multi-step paths, and budgets small enough to truncate."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    graph = split_randomly(
        label_split_synopsis(tree), rng, data.draw(st.integers(0, 3))
    )
    max_depth = data.draw(st.sampled_from([1, 2]))
    for _ in range(3):
        assert_same(
            data.draw(small_twigs()), graph, max_depth, data.draw(budgets)
        )


@given(data=st.data())
def test_xbuild_step_sketches_match_the_reference(data):
    source = data.draw(st.sampled_from(["imdb", "paperfig"]))
    config_name = data.draw(st.sampled_from(["default", "full"]))
    steps = xbuild_steps(source, config_name)
    sketch = steps[data.draw(st.integers(0, len(steps) - 1))]
    graph = sketch.graph
    if data.draw(st.booleans()):
        graph = sketch_from_dict(sketch_to_dict(sketch)).graph
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    queries = list(workload(source)) + [
        witness_twig(NAMED_DOCUMENTS[source], rng) for _ in range(3)
    ]
    for query in queries:
        assert_same(query, graph, limit=data.draw(budgets))


def test_every_named_document_and_config_matches_the_reference():
    rng = random.Random(7)
    for name, tree in NAMED_DOCUMENTS.items():
        for config in CONFIGS.values():
            graph = TwigXSketch.coarsest(tree, config).graph
            for _ in range(6):
                assert_same(witness_twig(tree, rng), graph)


# ----------------------------------------------------------------------
# the duplicate the deduplication exists for
# ----------------------------------------------------------------------
def test_two_descendant_walks_build_one_root_once():
    """On <a><b><b><c/></b></b></a>, ``a//b//c`` reaches a,b,b,c twice:
    with the first b matched and the second b an intermediate of
    ``//c``, and the other way round over the label-split self-loop."""
    graph = label_split_synopsis(parse_string("<a><b><b><c/></b></b></a>"))
    query = twig(parse_path("a//b//c"))
    raw = [root.signature() for root in reference_roots(query, graph)]
    a, b, c = (graph.nodes_with_tag(tag)[0].node_id for tag in "abc")
    c_leaf = (c, None, (), ())
    a_b_b_c = (a, None, (), ((b, None, (), ((b, None, (), (c_leaf,)),)),))
    assert raw.count(a_b_b_c) == 2
    actual = assert_same(query, graph)
    assert [e.root.signature() for e in actual].count(a_b_b_c) == 1
    assert len(actual) == len(set(raw)) < len(raw)


# ----------------------------------------------------------------------
# work bounds
# ----------------------------------------------------------------------
def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from now on."""
    calls = Counter()
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def split_paper_graph():
    """The paper figure's synopsis after twelve random splits, so child
    steps have several targets and twig nodes several embeddings."""
    return split_randomly(
        label_split_synopsis(figure1_document()), random.Random(3), 12
    )


def test_child_steps_compute_no_signature_and_walk_no_chain(monkeypatch):
    graph = split_paper_graph()
    query = parse_for_clause(
        "for a in //author, p in a/paper[title], k in p/keyword, "
        "y in p/year"
    )
    expected = reference_enumerate(query, graph)
    assert len(expected) > 1
    signatures = counting(monkeypatch, EmbeddingNode, "signature")
    walks = counting(monkeypatch, embeddings_module, "_chain_expansions")
    assert enumerate_embeddings(query, graph) == expected
    assert signatures["signature"] == 0
    assert walks["_chain_expansions"] == 0


def test_a_leaf_only_twig_makes_no_clone(monkeypatch):
    graph = split_paper_graph()
    clones = counting(monkeypatch, embeddings_module, "_clone_chain")
    for text in ("//paper", "bib/author/paper", "bib//title",
                 "//author[paper/title]"):
        query = twig(parse_path(text))
        assert len(assert_same(query, graph)) >= 1, text
    assert clones["_clone_chain"] == 0


def test_only_true_products_clone(monkeypatch):
    """Two children with two embeddings each: four roots, four clones;
    children with one embedding each extend the chain in place."""
    tree = build_tree(("r", [("m", ["a", "b"])] * 4))
    graph = label_split_synopsis(tree).copy()
    for tag in "ab":
        node = graph.nodes_with_tag(tag)[0]
        graph.split_node(node.node_id, {e.node_id for e in node.extent[2:]})
    clones = counting(monkeypatch, embeddings_module, "_clone_chain")
    product = twig(parse_path("m"), parse_path("a"), parse_path("b"))
    assert len(assert_same(product, graph)) == 4
    assert clones["_clone_chain"] == 4
    clones.clear()
    for single in (
        twig(parse_path("r"), parse_path("m")),
        twig(parse_path("r"), parse_path("m"), parse_path("m")),
    ):
        (embedding,) = assert_same(single, graph)
        assert len(embedding.root.children) == len(single.root.children)
    assert clones["_clone_chain"] == 0


# ----------------------------------------------------------------------
# validate_embedding walks branch chains
# ----------------------------------------------------------------------
def test_validate_embedding_rejects_a_branch_on_a_missing_edge():
    graph = label_split_synopsis(
        build_tree(("r", [("m", ["a", ("b", ["c"])])]))
    )
    m, a, b, c = (graph.nodes_with_tag(tag)[0].node_id for tag in "mabc")
    good = EmbeddingNode(
        m, branches=[[EmbeddingNode(b, children=[EmbeddingNode(c)])]]
    )
    validate_embedding(Embedding(good), graph)
    for bad in (
        # the branch head hangs on a missing edge m -> c
        EmbeddingNode(m, branches=[[EmbeddingNode(a), EmbeddingNode(c)]]),
        # the branch chain continues over a missing edge b -> a
        EmbeddingNode(
            m, branches=[[EmbeddingNode(b, children=[EmbeddingNode(a)])]]
        ),
        # a nested branch inside the chain hangs on a missing edge b -> m
        EmbeddingNode(
            m, branches=[[EmbeddingNode(b, branches=[[EmbeddingNode(m)]])]]
        ),
    ):
        with pytest.raises(EstimationError, match="missing edge"):
            validate_embedding(Embedding(bad), graph)
