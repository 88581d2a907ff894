"""The estimation kernel against its slow reference.

TREEPARSE and the expansion skip the work an estimate does not read:
leaves share one empty plan, a histogram that expands no child and
absorbs no branch builds no use, extended summaries are matched only at
nodes that store them, each plan carries the backward refs its subtree
conditions on, marginals are computed once per histogram and kept
dimensions, and the context is extended only where a node below
conditions on it.  The reference is the TREEPARSE and expansion those
replaced, kept here verbatim in substance: every plan must match it field
by field and every estimate must equal its value with ``==``.

The module also pins the contracts the kernel leans on: ``EdgeRef``
hashes like its ``(source, target)`` pair, loaded sketches answer as the
in-memory ones through the same lazily built graph indexes, and the work
bounds above hold.

CI re-runs this module with ``HYPOTHESIS_PROFILE=fuzz``.
"""

import functools
import pickle
import random
from collections import Counter
from dataclasses import astuple, dataclass, field
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build import generate_candidates
from repro.build.refinements import EdgeExpand, ValueExpand
from repro.build.xbuild import XBuild
from repro.datasets import figure1_document, generate_imdb
from repro.doc import build_tree
from repro.errors import BuildError
from repro.estimation import (
    EmbeddingBudget,
    TwigEstimator,
    enumerate_embeddings,
    tree_parse,
)
from repro.estimation import treeparse as treeparse_module
from repro.histogram import ops
from repro.query.ast import DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.values import ValuePredicate
from repro.resilience.checkpoint import (
    refinement_from_dict,
    refinement_to_dict,
)
from repro.synopsis import (
    EdgeRef,
    FrozenGraph,
    TwigXSketch,
    XSketchConfig,
    sketch_from_dict,
    sketch_to_dict,
    validate_sketch,
)
from repro.synopsis import graph as graph_module
from repro.workload import WorkloadGenerator, WorkloadSpec
from tests.test_fast_path_differential import (
    CONFIGS,
    NAMED_DOCUMENTS,
    recursive_trees,
    witness_twig,
)


# ----------------------------------------------------------------------
# the reference: TREEPARSE and the expansion before the lean kernel
# ----------------------------------------------------------------------
@dataclass
class RefUse:
    histogram: object
    expansion: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    branch_conditions: dict = field(default_factory=dict)

    def kept_dimensions(self) -> list[int]:
        return sorted(
            set(self.expansion) | set(self.conditions) | set(self.branch_conditions)
        )


@dataclass
class RefExtendedUse:
    summary: object
    predicate: object
    expansion: dict = field(default_factory=dict)
    absorbed_branch: Optional[int] = None
    consumed_value_pred: bool = False


@dataclass
class RefPlan:
    node: object
    uses: list = field(default_factory=list)
    extended_uses: list = field(default_factory=list)
    uncovered: list = field(default_factory=list)
    covered_refs: set = field(default_factory=set)
    absorbed_branches: set = field(default_factory=set)
    value_pred_absorbed: bool = False


def reference_tree_parse(embedding, sketch, branch_conditioning=True):
    """One plan per embedding node, leaves included."""
    plans = {}
    covered = set()

    def visit(node):
        plan = RefPlan(node)
        plans[id(node)] = plan
        if node.children or node.branches:
            histograms = sketch.histograms_at(node.node_id)
            child_edges = {}
            for child in node.children:
                child_edges.setdefault(
                    EdgeRef(node.node_id, child.node_id), []
                ).append(child)
            branch_edges = {}
            if branch_conditioning:
                for index, alternatives in enumerate(node.branches):
                    if len(alternatives) == 1:
                        head = alternatives[0]
                        branch_edges.setdefault(
                            EdgeRef(node.node_id, head.node_id), (index, head)
                        )
            assigned = set()
            absorbed = set()
            reference_extended_uses(sketch, node, plan, child_edges, assigned)
            for histogram in histograms:
                use = RefUse(histogram)
                for dim, ref in enumerate(histogram.scope):
                    if (
                        ref.is_forward_at(node.node_id)
                        and ref in child_edges
                        and ref not in assigned
                    ):
                        use.expansion[dim] = child_edges[ref]
                        assigned.add(ref)
                    elif (
                        ref.is_forward_at(node.node_id)
                        and ref in branch_edges
                        and ref not in absorbed
                        and branch_edges[ref][0] not in plan.absorbed_branches
                    ):
                        branch_index, head = branch_edges[ref]
                        use.branch_conditions[dim] = head
                        plan.absorbed_branches.add(branch_index)
                        absorbed.add(ref)
                    elif not ref.is_forward_at(node.node_id) and ref in covered:
                        use.conditions[dim] = ref
                if use.expansion or use.branch_conditions:
                    plan.uses.append(use)
            for ref, children in child_edges.items():
                if ref not in assigned:
                    plan.uncovered.extend(children)
            plan.covered_refs = set(assigned)
            covered.update(assigned)
        for child in node.children:
            visit(child)

    visit(embedding.root)
    return plans


def reference_extended_uses(sketch, node, plan, child_edges, assigned):
    for summary in sketch.extended_at(node.node_id):
        predicate = None
        absorbed_branch = None
        consumed_value_pred = False
        if (
            summary.value_tag is None
            and node.value_pred is not None
            and not plan.value_pred_absorbed
        ):
            predicate = node.value_pred
            consumed_value_pred = True
        elif summary.value_tag is not None:
            for index, alternatives in enumerate(node.branches):
                if index in plan.absorbed_branches or len(alternatives) != 1:
                    continue
                chain = alternatives[0]
                if (
                    sketch.graph.node(chain.node_id).tag == summary.value_tag
                    and chain.value_pred is not None
                    and not chain.children
                    and not chain.branches
                ):
                    predicate = chain.value_pred
                    absorbed_branch = index
                    break
        if predicate is None:
            continue
        use = RefExtendedUse(
            summary, predicate,
            absorbed_branch=absorbed_branch,
            consumed_value_pred=consumed_value_pred,
        )
        for dim, ref in enumerate(summary.scope):
            if ref in child_edges and ref not in assigned:
                use.expansion[dim] = child_edges[ref]
                assigned.add(ref)
        plan.extended_uses.append(use)
        if absorbed_branch is not None:
            plan.absorbed_branches.add(absorbed_branch)
        if consumed_value_pred:
            plan.value_pred_absorbed = True


def reference_needed(root, plans):
    needed = {}

    def visit(node):
        refs = set()
        for use in plans[id(node)].uses:
            refs.update(use.conditions.values())
        for child in node.children:
            refs |= visit(child)
        needed[id(node)] = frozenset(refs)
        return needed[id(node)]

    visit(root)
    return needed


class ReferenceEstimator(TwigEstimator):
    """The expansion over reference plans: every marginal recomputed,
    the context always filtered and always extended.  Predicates,
    branches and extended factors are the estimator's own."""

    def _embedding_value(self, embedding):
        plans = reference_tree_parse(
            embedding, self.sketch, self.branch_conditioning
        )
        self._needed = reference_needed(embedding.root, plans)
        base = float(self.sketch.graph.node(embedding.root.node_id).count)
        return base * self._expand(embedding.root, plans, (), {})

    def _expand(self, node, plans, context, memo):
        relevant = tuple(
            item for item in context if item[0] in self._needed[id(node)]
        )
        key = (id(node), relevant)
        if key in memo:
            return memo[key]
        plan = plans[id(node)]
        result = self._local_factor(
            node,
            plan.absorbed_branches,
            skip_value_pred=plan.value_pred_absorbed,
        )
        if result > 0:
            for use in plan.extended_uses:
                result *= self._extended_factor(node, use, plans, context, memo)
                if result == 0:
                    break
        if result > 0 and (node.children or plan.uses):
            for child in plan.uncovered:
                result *= self._average_child_count(node.node_id, child.node_id)
                if result == 0:
                    break
                result *= self._expand(child, plans, context, memo)
            for use in plan.uses:
                if result == 0:
                    break
                result *= self._reference_histogram_factor(
                    use, plans, context, memo
                )
        memo[key] = result
        return result

    def _reference_histogram_factor(self, use, plans, context, memo):
        context_map = dict(context)
        kept = use.kept_dimensions()
        points = use.histogram.points()
        if len(kept) < use.histogram.dimensions:
            points = ops.marginalize(points, kept)
        remap = {dim: position for position, dim in enumerate(kept)}
        assignment = {
            remap[dim]: context_map[ref]
            for dim, ref in use.conditions.items()
            if ref in context_map
        }
        if assignment:
            surviving = [p for p in remap.values() if p not in assignment]
            points = ops.condition(points, assignment)
            remap = {
                dim: surviving.index(position)
                for dim, position in remap.items()
                if position not in assignment
            }
        branch_satisfaction = {
            dim: self._per_child_satisfaction(chain)
            for dim, chain in use.branch_conditions.items()
        }
        total = 0.0
        for vector, mass in points:
            term = mass
            extended = None
            for dim, chain_rate in branch_satisfaction.items():
                count = vector[remap[dim]]
                if count <= 0 or chain_rate <= 0:
                    term = 0.0
                    break
                term *= 1.0 - (1.0 - chain_rate) ** count
            if term == 0:
                continue
            for dim, children in use.expansion.items():
                count = vector[remap[dim]]
                if count <= 0:
                    term = 0.0
                    break
                if extended is None:
                    extended = context + tuple(
                        (use.histogram.scope[d], vector[remap[d]])
                        for d in use.expansion
                    )
                for child in children:
                    term *= count * self._expand(child, plans, extended, memo)
                    if term == 0:
                        break
                if term == 0:
                    break
            total += term
        return total


# ----------------------------------------------------------------------
# plan comparison
# ----------------------------------------------------------------------
def ids(nodes):
    return [id(node) for node in nodes]


def use_row(use):
    return (
        id(use.histogram),
        {dim: ids(children) for dim, children in use.expansion.items()},
        dict(use.conditions),
        {dim: id(head) for dim, head in use.branch_conditions.items()},
        list(use.kept_dimensions()),
    )


def extended_row(use):
    return (
        id(use.summary),
        use.predicate,
        {dim: ids(children) for dim, children in use.expansion.items()},
        use.absorbed_branch,
        use.consumed_value_pred,
    )


def plan_row(plan):
    return (
        [use_row(use) for use in plan.uses],
        [extended_row(use) for use in plan.extended_uses],
        ids(plan.uncovered),
        set(plan.covered_refs),
        set(plan.absorbed_branches),
        plan.value_pred_absorbed,
    )


def compare_plans(embedding, sketch, branch_conditioning, seen: Counter):
    """Assert the plans of ``embedding`` match the reference's; tally
    which plan features occurred in ``seen``."""
    plans = tree_parse(embedding, sketch, branch_conditioning)
    expected = reference_tree_parse(embedding, sketch, branch_conditioning)
    needed = reference_needed(embedding.root, expected)
    assert plans.keys() == expected.keys()
    for node in embedding.nodes():
        plan, reference = plans[id(node)], expected[id(node)]
        assert plan_row(plan) == plan_row(reference)
        assert plan.needed == needed[id(node)]
        if node.children or node.branches:
            assert plan.node is node
        else:
            assert plan is treeparse_module.LEAF_PLAN
        seen["plans"] += 1
        seen["uses"] += len(plan.uses)
        seen["conditions"] += sum(bool(use.conditions) for use in plan.uses)
        seen["branch conditions"] += sum(
            bool(use.branch_conditions) for use in plan.uses
        )
        seen["extended uses"] += len(plan.extended_uses)
        seen["uncovered"] += len(plan.uncovered)
        seen["value pred absorbed"] += plan.value_pred_absorbed
    # the shared leaf plan is never written to
    assert astuple(treeparse_module.LEAF_PLAN) == (
        None, (), (), (), frozenset(), frozenset(), False, frozenset()
    )


def compare_sketch(
    sketch, queries, seen: Counter, branch_modes=(True, False), **limits
):
    """Plans and reports of every query under each branch treatment."""
    for branch_conditioning in branch_modes:
        estimator = TwigEstimator(
            sketch, branch_conditioning=branch_conditioning, **limits
        )
        reference = ReferenceEstimator(
            sketch, branch_conditioning=branch_conditioning, **limits
        )
        for query in queries:
            for embedding in enumerate_embeddings(
                query,
                sketch.graph,
                estimator.max_depth,
                EmbeddingBudget(estimator.max_embeddings),
            ):
                compare_plans(embedding, sketch, branch_conditioning, seen)
            assert astuple(estimator.report(query)) == astuple(
                reference.report(query)
            ), query.text()
            seen["queries"] += 1


# ----------------------------------------------------------------------
# inputs: XBUILD step sketches and refinements that exercise every part
# ----------------------------------------------------------------------
#: the (document, configuration) pairs drawn at their XBUILD steps; the
#: others start from the coarsest sketch
XBUILT = {
    (name, config_name)
    for name in ("imdb", "paperfig")
    for config_name in ("default", "full")
}


@functools.lru_cache(maxsize=None)
def xbuild_steps(name, config_name):
    """The sketch after each XBUILD step (coarsest first)."""
    tree = NAMED_DOCUMENTS[name]
    config = CONFIGS[config_name]
    sketches = [TwigXSketch.coarsest(tree, config)]
    XBuild(
        tree,
        sketches[0].size_bytes() + 1000,
        config,
        seed=5,
        sample_value_probability=0.5,
        on_step=sketches.append,
    ).run()
    return sketches


@functools.lru_cache(maxsize=None)
def workload(name):
    """P+V queries with branches and `//` steps, up to six nodes: deep
    enough for backward conditions to fire."""
    return [
        entry.query
        for entry in WorkloadGenerator(
            NAMED_DOCUMENTS[name],
            WorkloadSpec(
                min_nodes=2,
                max_nodes=6,
                branch_probability=0.4,
                descendant_probability=0.4,
                value_predicates=True,
                seed=13,
            ),
        ).positive_workload(8).queries
    ]


def enrich(sketch, rng, rounds, kinds=(ValueExpand, EdgeExpand)):
    """Apply ``rounds`` random refinements of ``kinds`` (None: any kind).

    Value-expand and edge-expand refinements (backward ones too under the
    full model) make extended summaries and backward conditions meet the
    queries."""
    for _ in range(rounds):
        pool = [
            candidate
            for candidate in generate_candidates(sketch, rng)
            if kinds is None or isinstance(candidate, kinds)
        ]
        rng.shuffle(pool)
        for candidate in pool:
            try:
                sketch = candidate.apply(sketch)
                break
            except BuildError:
                continue
    return sketch


@given(data=st.data())
def test_plans_and_estimates_match_the_reference(data):
    source = data.draw(st.sampled_from(["random", *NAMED_DOCUMENTS]))
    config_name = data.draw(st.sampled_from(sorted(CONFIGS)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    limits = {}
    if source == "random":
        # recursive tags: `//` walks revisit synopsis nodes
        tree = data.draw(recursive_trees())
        sketch = TwigXSketch.coarsest(tree, CONFIGS[config_name])
        queries = []
        limits = {"max_depth": 4, "max_embeddings": 64}
    elif (source, config_name) in XBUILT:
        tree = NAMED_DOCUMENTS[source]
        steps = xbuild_steps(source, config_name)
        sketch = steps[data.draw(st.integers(0, len(steps) - 1))]
        queries = list(workload(source))
    else:
        tree = NAMED_DOCUMENTS[source]
        sketch = enrich(
            TwigXSketch.coarsest(tree, CONFIGS[config_name]),
            rng,
            data.draw(st.integers(0, 3)),
            kinds=None,
        )
        queries = list(workload(source))
    sketch = enrich(sketch, rng, data.draw(st.integers(0, 4)))
    queries = rng.sample(queries, min(len(queries), 4)) + [
        witness_twig(tree, rng) for _ in range(3)
    ]
    branch_conditioning = data.draw(st.booleans())
    compare_sketch(sketch, queries, Counter(), (branch_conditioning,), **limits)


def valued_parent_sketch():
    """Valued ``m`` elements with children, and an extended summary over
    their own values: a value predicate on ``m`` is absorbed."""
    tree = build_tree(("r", [
        ("m", value, ["a"] * count + ["b"] * (value % 2))
        for value, count in [(1, 1), (2, 3), (3, 2), (2, 1), (5, 4)]
    ]))
    sketch = TwigXSketch.coarsest(tree, CONFIGS["full"])
    m, a = (sketch.graph.nodes_with_tag(tag)[0].node_id for tag in "ma")
    sketch = ValueExpand(m, None, (EdgeRef(m, a),)).apply(sketch)
    queries = []
    for predicate in (ValuePredicate("=", 2), ValuePredicate(">", 1)):
        root = TwigNode("t0", Path((
            Step("m", DESCENDANT, predicate, (Path((Step("b"),)),)),
        )))
        root.add_child(TwigNode("t1", Path((Step("a"),))))
        queries.append(TwigQuery(root))
    return sketch, queries


def test_every_plan_feature_is_compared():
    """Over enriched XBUILD steps of imdb and the paper figure under the
    full model, each part of a plan occurs in the comparison."""
    seen = Counter()
    for name in ("imdb", "paperfig"):
        rng = random.Random(3)
        tree = NAMED_DOCUMENTS[name]
        queries = workload(name) + [witness_twig(tree, rng) for _ in range(8)]
        for sketch in xbuild_steps(name, "full")[::6]:
            compare_sketch(enrich(sketch, rng, 4), queries, seen)
    compare_sketch(*valued_parent_sketch(), seen)
    for feature in (
        "uses",
        "conditions",
        "branch conditions",
        "extended uses",
        "uncovered",
        "value pred absorbed",
    ):
        assert seen[feature] > 0, (feature, seen)


def test_backward_conditioning_reads_the_parent_expansion():
    """Keywords per paper grow with papers per author.  Conditioning the
    paper histogram on the author's expanded paper count, exact
    histograms give the true count of (author, paper, keyword, paper)
    bindings, which Forward Independence misses."""
    tree = build_tree(("bib", [
        ("author", [("paper", ["keyword"] * papers)] * papers)
        for papers in (1, 3, 1, 2)
    ]))
    sketch = TwigXSketch.coarsest(tree, CONFIGS["exact"])
    author, paper, keyword = (
        sketch.graph.nodes_with_tag(tag)[0].node_id
        for tag in ("author", "paper", "keyword")
    )
    owned = EdgeRef(author, paper)
    sketch.set_histograms(author, [
        sketch.make_edge_histogram(author, (owned,), 8)
    ])
    sketch.set_histograms(paper, [
        sketch.make_edge_histogram(
            paper, (EdgeRef(paper, keyword), owned), 8
        )
    ])
    root = TwigNode("t0", Path((Step("author"),)))
    root.add_child(TwigNode("t1", Path((Step("paper"),))))
    root.children[0].add_child(TwigNode("t2", Path((Step("keyword"),))))
    root.add_child(TwigNode("t3", Path((Step("paper"),))))
    query = TwigQuery(root)
    seen = Counter()
    compare_sketch(sketch, [query], seen)
    assert seen["conditions"] == 2
    truth = 1 + 3**3 + 1 + 2**3
    assert TwigEstimator(sketch).estimate(query) == pytest.approx(truth)
    sketch.set_histograms(paper, [
        sketch.make_edge_histogram(paper, (EdgeRef(paper, keyword),), 8)
    ])
    assert TwigEstimator(sketch).estimate(query) != pytest.approx(truth)


class ScanningGraph:
    """A graph whose child steps scan every outgoing edge, as enumeration
    did before the children-by-tag index."""

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        return getattr(self._graph, name)

    def child_ids_with_tag(self, node_id, tag):
        return [
            edge.target
            for edge in self._graph.children_of(node_id)
            if self._graph.node(edge.target).tag == tag
        ]

    def nodes_with_tag(self, tag):
        return [n for n in self._graph.iter_nodes() if n.tag == tag]


def signatures(query, graph):
    return [e.root.signature() for e in enumerate_embeddings(query, graph)]


def test_indexed_enumeration_matches_the_edge_scan():
    """Embeddings come out in the order the edge scan yields them, on
    live and loaded sketches of every XBUILD step."""
    sketch, queries = imdb3000()
    loaded = sketch_from_dict(sketch_to_dict(sketch))
    graphs = [sketch.graph, loaded.graph] + [
        step.graph for step in xbuild_steps("imdb", "default")
    ]
    for graph in graphs:
        for query in queries + workload("imdb"):
            assert signatures(query, graph) == signatures(
                query, ScanningGraph(graph)
            )
    # the part holding the later elements gets the smaller id, and the
    # canonical order meets it first
    tree = build_tree(("r", [("m", ["a"])] * 4))
    graph = TwigXSketch.coarsest(tree).graph.copy()
    a = graph.nodes_with_tag("a")[0]
    graph.split_node(a.node_id, {e.node_id for e in a.extent[2:]})
    m = graph.nodes_with_tag("m")[0].node_id
    met_first, met_second = graph.child_ids_with_tag(m, "a")
    assert met_first < met_second
    assert graph.node(met_first).extent == a.extent[2:]
    query = TwigQuery(TwigNode("t0", Path((Step("m"), Step("a")))))
    assert signatures(query, graph) == signatures(query, ScanningGraph(graph))
    assert [sig[3][0][0] for sig in signatures(query, graph)] == [
        met_first, met_second
    ]


def test_recursive_document_with_descendant_steps():
    """A self-nesting tag under `//`: chains repeat one synopsis node, so
    the context holds one ref several times."""
    tree = build_tree(
        ("r", [("a", [("a", [("a", ["b", "b"]), "b"]), "b"])] * 3)
    )
    sketch = TwigXSketch.coarsest(tree, CONFIGS["full"])
    sketch = enrich(sketch, random.Random(1), 4)
    root = TwigNode("t0", Path((Step("a", DESCENDANT),)))
    root.add_child(TwigNode("t1", Path((Step("a"), Step("b")))))
    query = TwigQuery(root)
    seen = Counter()
    compare_sketch(sketch, [query], seen)
    assert seen["queries"] == 2


# ----------------------------------------------------------------------
# work bounds
# ----------------------------------------------------------------------
def counting(monkeypatch, owner, name):
    """Count the constructions of ``owner.name`` from now on."""
    calls = Counter()
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def star_sketch():
    """A root with four F-stable children, one histogram each, and a
    joint histogram over two of them."""
    tree = build_tree(("r", [("m", ["a", "b", "c", "d"])] * 4))
    sketch = TwigXSketch.coarsest(tree)
    m = sketch.graph.nodes_with_tag("m")[0].node_id
    return sketch, m


def test_unread_histograms_and_leaves_build_nothing(monkeypatch):
    sketch, m = star_sketch()
    assert len(sketch.histograms_at(m)) == 4
    root = TwigNode("t0", Path((Step("m", DESCENDANT, None, (
        Path((Step("b"),)),
    )),)))
    root.add_child(TwigNode("t1", Path((Step("a"),))))
    query = TwigQuery(root)
    (embedding,) = enumerate_embeddings(query, sketch.graph)
    uses = counting(monkeypatch, treeparse_module, "HistogramUse")
    plans_built = counting(monkeypatch, treeparse_module, "NodePlan")
    plans = tree_parse(embedding, sketch)
    # the histograms over m->c and m->d cover neither the child nor the
    # branch edge; the leaf a shares the empty plan
    assert uses["HistogramUse"] == 2
    assert plans_built["NodePlan"] == 1
    (leaf,) = embedding.root.children
    assert plans[id(leaf)] is treeparse_module.LEAF_PLAN
    assert TwigEstimator(sketch).estimate(query) == ReferenceEstimator(
        sketch
    ).estimate(query)


def test_marginals_are_computed_once_per_histogram_and_kept_set(monkeypatch):
    """Every embedding of a `//` query expands the same joint histogram;
    an estimator marginalizes it once."""
    tree = build_tree(("r", [("x", [("m", ["a", "b"])]), ("y", [("m", ["a"])])]))
    sketch = TwigXSketch.coarsest(tree)
    m = sketch.graph.nodes_with_tag("m")[0].node_id
    a, b = (sketch.graph.nodes_with_tag(tag)[0].node_id for tag in "ab")
    sketch.set_histograms(m, [
        sketch.make_edge_histogram(m, (EdgeRef(m, a), EdgeRef(m, b)), 8)
    ])
    root = TwigNode("t0", Path((Step("r"), Step("m", DESCENDANT))))
    root.add_child(TwigNode("t1", Path((Step("a"),))))
    query = TwigQuery(root)
    marginalized = counting(monkeypatch, ops, "marginalize")
    estimator = TwigEstimator(sketch)
    first = estimator.estimate(query)
    assert estimator.estimate(query) == first
    assert marginalized["marginalize"] == 1
    assert first == ReferenceEstimator(sketch).estimate(query)


# ----------------------------------------------------------------------
# EdgeRef contract
# ----------------------------------------------------------------------
class TestEdgeRef:
    def test_hash_and_equality_are_the_pairs(self):
        for source, target in [(0, 0), (1, 2), (2, 1), (-1, 7)]:
            ref = EdgeRef(source, target)
            assert hash(ref) == hash((source, target))
            assert ref == EdgeRef(source, target)
            assert ref == (source, target)
            assert ref.source == source and ref.target == target
        assert EdgeRef(1, 2) != EdgeRef(2, 1)

    def test_ordering_is_source_then_target(self):
        refs = [EdgeRef(2, 1), EdgeRef(1, 3), EdgeRef(1, 2), EdgeRef(0, 9)]
        assert sorted(refs) == [
            EdgeRef(0, 9), EdgeRef(1, 2), EdgeRef(1, 3), EdgeRef(2, 1)
        ]
        assert EdgeRef(1, 2) < EdgeRef(1, 3) <= EdgeRef(1, 3)

    def test_forward_at(self):
        assert EdgeRef(4, 5).is_forward_at(4)
        assert not EdgeRef(4, 5).is_forward_at(5)

    def test_pickles(self):
        ref = EdgeRef(3, 4)
        assert type(pickle.loads(pickle.dumps(ref))) is EdgeRef

    def test_loaded_and_resumed_scopes_hold_edge_refs(self):
        sketch = xbuild_steps("imdb", "full")[-1]
        loaded = sketch_from_dict(sketch_to_dict(sketch))
        for histograms in loaded.edge_stats.values():
            for histogram in histograms:
                assert all(type(ref) is EdgeRef for ref in histogram.scope)
        for summaries in loaded.extended_stats.values():
            for summary in summaries:
                assert all(type(ref) is EdgeRef for ref in summary.scope)
        expand = EdgeExpand(1, 0, EdgeRef(2, 3))
        restored = refinement_from_dict(refinement_to_dict(expand))
        assert restored == expand
        assert type(restored.new_ref) is EdgeRef

    def test_validate_rejects_a_plain_tuple_scope_entry(self):
        """A plain pair equals its EdgeRef but is not one: validation
        still names it, in edge and extended histogram scopes."""
        sketch = enrich(
            TwigXSketch.coarsest(NAMED_DOCUMENTS["imdb"]), random.Random(2), 6
        )
        assert not validate_sketch(sketch)
        histogram = next(h for hs in sketch.edge_stats.values() for h in hs)
        summary = next(s for ss in sketch.extended_stats.values() for s in ss)
        for stored in (histogram, summary):
            ref = stored.scope[0]
            stored.scope = ((ref.source, ref.target),) + stored.scope[1:]
            assert stored.scope[0] == ref
        violations = validate_sketch(sketch)
        assert [v.code for v in violations] == ["histogram-scope"] * 2


# ----------------------------------------------------------------------
# FrozenGraph: the shared indexes, and loaded sketches answer alike
# ----------------------------------------------------------------------
def index_rows(graph):
    rows = {}
    for node in graph.iter_nodes():
        node_id = node.node_id
        rows[node_id] = (
            [(e.source, e.target) for e in graph.children_of(node_id)],
            [(e.source, e.target) for e in graph.parents_of(node_id)],
            {
                tag: graph.child_ids_with_tag(node_id, tag)
                for tag in {n.tag for n in graph.iter_nodes()}
            },
            [n.node_id for n in graph.nodes_with_tag(node.tag)],
        )
    return rows


def scan_rows(graph):
    """:func:`index_rows` by scanning every edge and node per read, both
    sorted here into the canonical order."""
    edges = [graph.edges[key] for key in sorted(graph.edges)]
    nodes = [graph.nodes[node_id] for node_id in sorted(graph.nodes)]
    tags = {n.tag for n in nodes}
    return {
        node.node_id: (
            [(e.source, e.target) for e in edges if e.source == node.node_id],
            [(e.source, e.target) for e in edges if e.target == node.node_id],
            {
                tag: [
                    e.target for e in edges
                    if e.source == node.node_id
                    and graph.node(e.target).tag == tag
                ]
                for tag in tags
            },
            [n.node_id for n in nodes if n.tag == node.tag],
        )
        for node in nodes
    }


@functools.lru_cache(maxsize=None)
def imdb3000():
    tree = generate_imdb(3000, seed=2)
    sketch = XBuild(
        tree,
        TwigXSketch.coarsest(tree).size_bytes() + 2048,
        seed=5,
        sample_value_probability=0.3,
    ).run().sketch
    queries = [
        entry.query
        for entry in WorkloadGenerator(
            tree, WorkloadSpec(value_predicates=True, seed=21)
        ).positive_workload(60).queries
    ]
    return sketch, queries


def test_loaded_sketch_estimates_equal_the_in_memory_ones():
    sketch, queries = imdb3000()
    loaded = sketch_from_dict(sketch_to_dict(sketch))
    assert isinstance(loaded.graph, FrozenGraph)
    for query in queries:
        assert astuple(TwigEstimator(loaded).report(query)) == astuple(
            TwigEstimator(sketch).report(query)
        ), query.text()


def test_frozen_and_live_graphs_share_one_index():
    sketch, _ = imdb3000()
    loaded = sketch_from_dict(sketch_to_dict(sketch)).graph
    assert type(loaded)._adjacency_index is type(sketch.graph)._adjacency_index
    assert index_rows(loaded) == scan_rows(loaded)
    assert index_rows(sketch.graph) == scan_rows(sketch.graph)
    assert index_rows(loaded) == index_rows(sketch.graph)


def test_index_is_built_once_and_patched_on_split(monkeypatch):
    """A copy shares its source's index; a split patches its own and
    leaves the source's as it was."""
    sketch = TwigXSketch.coarsest(generate_imdb(300, seed=4))
    graph = sketch.graph.copy()
    graph._adjacency = None  # build this copy's own
    built = counting(monkeypatch, graph_module, "_Adjacency")
    for _ in range(3):
        index_rows(graph)
    assert built["_Adjacency"] == 1
    shared = graph.copy()
    assert shared._adjacency is graph._adjacency
    movie = graph.nodes_with_tag("movie")[0]
    graph.split_node(
        movie.node_id, {element.node_id for element in movie.extent[:5]}
    )
    assert built["_Adjacency"] == 2
    assert index_rows(graph) == scan_rows(graph)
    assert built["_Adjacency"] == 2
    assert movie not in graph.nodes_with_tag("movie")
    assert movie in shared.nodes_with_tag("movie")
    assert index_rows(shared) == scan_rows(shared)
