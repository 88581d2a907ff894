"""Cross-module integration and property tests.

These tie the pipeline together: random documents → synopses → estimates
checked against the exact evaluator, plus fuzzing for robustness and an
end-to-end XBUILD accuracy check on a correlated document.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CorrelatedSuffixTree, CSTEstimator
from repro.build import xbuild
from repro.doc import DocumentNode, DocumentTree
from repro.estimation import TwigEstimator
from repro.query import Path, count_bindings, parse_for_clause, twig
from repro.synopsis import (
    EdgeRef,
    TwigXSketch,
    XSketchConfig,
    raise_on_violations,
    validate_sketch,
)


@st.composite
def two_level_documents(draw):
    """Documents: root r with `a` children, each with x/y children."""
    profiles = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    root = DocumentNode("r")
    for x_count, y_count in profiles:
        a = root.new_child("a")
        for _ in range(x_count):
            a.new_child("x")
        for _ in range(y_count):
            a.new_child("y")
    return DocumentTree(root)


class TestExactSketchMatchesEvaluator:
    """With exact joint distributions, the estimation framework is exact
    (the paper's zero-error claim), for any document of the twig's shape."""

    QUERY = parse_for_clause("for t0 in a, t1 in t0/x, t2 in t0/y")

    @settings(max_examples=50, deadline=None)
    @given(two_level_documents())
    def test_joint_histogram_is_exact(self, tree):
        truth = count_bindings(self.QUERY, tree)
        sketch = TwigXSketch.coarsest(tree, XSketchConfig(engine="exact"))
        a_nodes = sketch.graph.nodes_with_tag("a")
        assert len(a_nodes) == 1
        a = a_nodes[0].node_id
        refs = tuple(
            EdgeRef(a, node.node_id)
            for tag in ("x", "y")
            for node in sketch.graph.nodes_with_tag(tag)
        )
        if len(refs) == 2:  # both tags present somewhere in the document
            sketch.set_histograms(a, [sketch.make_edge_histogram(a, refs, 64)])
        estimate = TwigEstimator(sketch).estimate(self.QUERY)
        assert estimate == pytest.approx(truth, abs=1e-6)


def random_document(rng: random.Random, elements: int = 120) -> DocumentTree:
    """A random tree over a small tag alphabet with random values."""
    tags = ["a", "b", "c", "d"]
    root = DocumentNode("r")
    nodes = [root]
    for _ in range(elements):
        parent = rng.choice(nodes)
        child = parent.new_child(rng.choice(tags))
        if rng.random() < 0.3:
            child.value = rng.randint(0, 10)
        nodes.append(child)
    return DocumentTree(root)


def random_query(rng: random.Random):
    """A random 2–4 node twig over the same alphabet."""
    from repro.query import Step, TwigNode, TwigQuery

    tags = ["a", "b", "c", "d", "r", "zzz"]
    counter = [0]

    def node():
        axis = "descendant" if rng.random() < 0.3 else "child"
        pred = None
        if rng.random() < 0.2:
            from repro.query import ValuePredicate

            pred = ValuePredicate(">", rng.randint(0, 10))
        step = Step(rng.choice(tags), axis, pred)
        result = TwigNode(f"t{counter[0]}", Path((step,)))
        counter[0] += 1
        return result

    root = node()
    current = root
    for _ in range(rng.randint(1, 3)):
        child = node()
        current.add_child(child)
        if rng.random() < 0.5:
            current = child
    return TwigQuery(root)


class TestFuzzing:
    def test_random_queries_never_crash(self):
        """Estimates on arbitrary twigs are finite and non-negative, and
        zero whenever exact evaluation is zero-bounded from above.

        Random documents produce dense cyclic synopses — the adversarial
        case for ``//`` expansion — so the estimator runs with tight
        depth/embedding caps, as an optimizer integration would.
        """
        rng = random.Random(1234)
        for trial in range(15):
            tree = random_document(rng)
            sketch = TwigXSketch.coarsest(tree)
            estimator = TwigEstimator(sketch, max_depth=6, max_embeddings=256)
            for _ in range(5):
                query = random_query(rng)
                estimate = estimator.estimate(query)
                assert estimate >= 0.0
                assert estimate == estimate  # not NaN
                truth = count_bindings(query, tree)
                if estimate == 0.0:
                    # structural zero-estimates must be sound: only
                    # value predicates may hide real matches
                    if truth > 0:
                        assert query.has_value_predicates()

    def test_random_documents_validate(self):
        rng = random.Random(99)
        for _ in range(10):
            tree = random_document(rng)
            tree.validate()
            sketch = TwigXSketch.coarsest(tree)
            raise_on_violations(validate_sketch(sketch))


class TestEndToEnd:
    def test_xbuild_fixes_figure4_style_correlation(self):
        """A document with anti-correlated b/c counts: the coarsest
        synopsis misestimates the pairing twig; a small XBUILD budget must
        cut that error substantially."""
        rng = random.Random(5)
        root = DocumentNode("r")
        for _ in range(150):
            a = root.new_child("a")
            if rng.random() < 0.5:
                counts = (rng.randint(8, 12), rng.randint(0, 1))
            else:
                counts = (rng.randint(0, 1), rng.randint(8, 12))
            for _ in range(counts[0]):
                a.new_child("b")
            for _ in range(counts[1]):
                a.new_child("c")
        tree = DocumentTree(root)
        query = parse_for_clause("for t0 in a, t1 in t0/b, t2 in t0/c")
        truth = count_bindings(query, tree)

        coarsest = TwigXSketch.coarsest(tree)
        coarse_error = abs(TwigEstimator(coarsest).estimate(query) - truth)
        built = xbuild(tree, coarsest.size_bytes() + 600, seed=3)
        built_error = abs(TwigEstimator(built).estimate(query) - truth)
        assert built_error < coarse_error * 0.5

    def test_cst_exact_on_unpruned_paths(self):
        """An unpruned CST reproduces exact chain-query counts."""
        rng = random.Random(7)
        tree = random_document(rng, elements=200)
        summary = CorrelatedSuffixTree.build(tree, budget_bytes=10**6)
        estimator = CSTEstimator(summary)
        for tags in [("a",), ("a", "b"), ("b", "c", "d")]:
            query = twig(Path.of(*tags))
            assert estimator.estimate(query) == pytest.approx(
                count_bindings(query, tree)
            )
