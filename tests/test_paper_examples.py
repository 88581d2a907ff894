"""The paper's worked examples, end to end (DESIGN.md T1–T4).

This module is the index of exact paper-artefact checks; deeper variants
of several of these live next to the modules they exercise
(test_query_evaluator.py, test_synopsis_tsn.py, test_estimation_estimator.py).
"""

import pytest

from repro.datasets import figure1_document, figure4_documents
from repro.estimation import TwigEstimator
from repro.query import count_bindings, parse_for_clause
from repro.synopsis import (
    EdgeRef,
    TwigXSketch,
    XSketchConfig,
    exact_edge_distribution,
    label_split_synopsis,
)


def nid(graph, tag):
    return graph.nodes_with_tag(tag)[0].node_id


class TestT1_Example21:
    """T1 — Example 2.1: the five-variable twig over Figure 1 generates
    exactly three binding tuples."""

    QUERY = """
        for t0 in author,
            t1 in t0/name,
            t2 in t0/paper[year > 2000],
            t3 in t2/title,
            t4 in t2/keyword
    """

    def test_three_binding_tuples(self):
        tree = figure1_document()
        assert count_bindings(parse_for_clause(self.QUERY), tree) == 3


class TestT2_Figure4:
    """T2 — Figure 4: two documents with the same zero-error single-path
    XSKETCH but twig selectivities 2000 vs 10100."""

    QUERY = "for t0 in a, t1 in t0/b, t2 in t0/c"

    def test_selectivity_gap(self):
        doc_a, doc_b = figure4_documents()
        query = parse_for_clause(self.QUERY)
        assert count_bindings(query, doc_a) == 2000
        assert count_bindings(query, doc_b) == 10100

    def test_same_synopsis_shape(self):
        doc_a, doc_b = figure4_documents()
        for doc in (doc_a, doc_b):
            synopsis = label_split_synopsis(doc)
            assert all(
                edge.backward_stable and edge.forward_stable
                for edge in synopsis.edges.values()
            )
        assert (
            label_split_synopsis(doc_a).node_count
            == label_split_synopsis(doc_b).node_count
        )


class TestT3_Example31:
    """T3 — Example 3.1: the edge distribution f_P(C_K, C_Y, C_P, C_N)
    over Figure 1 (p4/p5 roles swapped; see repro.datasets.paperfig)."""

    def test_distribution_fractions(self):
        tree = figure1_document()
        synopsis = label_split_synopsis(tree)
        paper = nid(synopsis, "paper")
        author = nid(synopsis, "author")
        scope = [
            EdgeRef(paper, nid(synopsis, "keyword")),
            EdgeRef(paper, nid(synopsis, "year")),
            EdgeRef(author, paper),
            EdgeRef(author, nid(synopsis, "name")),
        ]
        dist = exact_edge_distribution(synopsis, paper, scope)
        assert dist.fraction((2, 1, 2, 1)) == pytest.approx(0.25)
        assert dist.fraction((1, 1, 2, 1)) == pytest.approx(0.25)
        assert dist.fraction((1, 1, 1, 1)) == pytest.approx(0.50)


class TestT4_WorkedExample:
    """T4 — Section 4's estimation walkthrough: with H_A(p, n) and
    H_P(k, y, p) the twig A{B, N, P{K, Y}} is estimated at 10/3."""

    def test_ten_thirds(self):
        tree = figure1_document()
        sketch = TwigXSketch.coarsest(tree, XSketchConfig(engine="exact"))
        author = nid(sketch.graph, "author")
        paper = nid(sketch.graph, "paper")
        sketch.set_histograms(author, [
            sketch.make_edge_histogram(
                author,
                (EdgeRef(author, paper), EdgeRef(author, nid(sketch.graph, "name"))),
                buckets=8,
            )
        ])
        sketch.set_histograms(paper, [
            sketch.make_edge_histogram(
                paper,
                (
                    EdgeRef(paper, nid(sketch.graph, "keyword")),
                    EdgeRef(paper, nid(sketch.graph, "year")),
                    EdgeRef(author, paper),
                ),
                buckets=8,
            )
        ])
        query = parse_for_clause(
            """
            for t0 in author, t1 in t0/book, t2 in t0/name,
                t3 in t0/paper, t4 in t3/keyword, t5 in t3/year
            """
        )
        estimate = TwigEstimator(sketch).estimate(query)
        assert estimate == pytest.approx(10.0 / 3.0)
        assert count_bindings(query, tree) == 6  # truth differs: B is
        # combined under Forward Uniformity + independence, as in the paper
