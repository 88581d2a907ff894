"""Tests for the twig estimator, including the paper's worked example.

The central fixture rebuilds Section 4's setting: the Figure 1 document,
histograms H_A(p, n) and H_P(k, y, p) (p backward at P), and the twig
T = A{B, N, P{K, Y}}; the paper computes s(T) = 10/3.
"""

import pytest

from repro.build import XBuild
from repro.datasets.paperfig import figure1_document, figure4_documents
from repro.estimation import TwigEstimator, enumerate_embeddings, tree_parse
from repro.query import count_bindings, parse_for_clause, parse_path, twig
from repro.synopsis import EdgeRef, TwigXSketch, XSketchConfig
from repro.workload import WorkloadGenerator, WorkloadSpec


def nid(sketch, tag):
    return sketch.graph.nodes_with_tag(tag)[0].node_id


@pytest.fixture()
def fig1():
    return figure1_document()


def worked_example_sketch(fig1) -> TwigXSketch:
    """Fig. 6(b): H_A(p, n) joint at A; H_P(k, y, p) at P with p backward."""
    sketch = TwigXSketch.coarsest(fig1, XSketchConfig(engine="exact"))
    author = nid(sketch, "author")
    paper = nid(sketch, "paper")
    sketch.edge_stats[author] = [
        sketch.make_edge_histogram(
            author,
            (EdgeRef(author, paper), EdgeRef(author, nid(sketch, "name"))),
            buckets=8,
        )
    ]
    sketch.edge_stats[paper] = [
        sketch.make_edge_histogram(
            paper,
            (
                EdgeRef(paper, nid(sketch, "keyword")),
                EdgeRef(paper, nid(sketch, "year")),
                EdgeRef(author, paper),  # backward count
            ),
            buckets=8,
        )
    ]
    return sketch


def worked_example_query():
    return parse_for_clause(
        """
        for t0 in author,
            t1 in t0/book,
            t2 in t0/name,
            t3 in t0/paper,
            t4 in t3/keyword,
            t5 in t3/year
        """
    )


class TestWorkedExample:
    def test_estimate_is_ten_thirds(self, fig1):
        sketch = worked_example_sketch(fig1)
        estimator = TwigEstimator(sketch)
        estimate = estimator.estimate(worked_example_query())
        assert estimate == pytest.approx(10.0 / 3.0)

    def test_true_selectivity_is_six(self, fig1):
        # the estimate differs from the truth because B is combined under
        # the Forward Uniformity + independence assumptions
        assert count_bindings(worked_example_query(), fig1) == 6

    def test_treeparse_sets(self, fig1):
        sketch = worked_example_sketch(fig1)
        query = worked_example_query()
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch)
        root_plan = plans[id(embedding.root)]
        # E_A covers (A->P) and (A->N); U_A = {B}; D_A = {}
        assert len(root_plan.uses) == 1
        assert len(root_plan.uses[0].expansion) == 2
        assert not root_plan.uses[0].conditions
        assert [n.node_id for n in root_plan.uncovered] == [
            nid(sketch, "book")
        ]
        paper_node = next(
            child
            for child in embedding.root.children
            if child.node_id == nid(sketch, "paper")
        )
        paper_plan = plans[id(paper_node)]
        # E_P covers K and Y; D_P conditions on the covered (A->P) edge
        assert len(paper_plan.uses) == 1
        assert len(paper_plan.uses[0].expansion) == 2
        assert list(paper_plan.uses[0].conditions.values()) == [
            EdgeRef(nid(sketch, "author"), nid(sketch, "paper"))
        ]


class TestExactSketchIsExact:
    """With exact joint distributions over all needed edges, estimation
    reproduces the true selectivity (the paper's zero-error claim)."""

    def test_figure4_pairing_query(self):
        for document in figure4_documents():
            sketch = TwigXSketch.coarsest(document, XSketchConfig(engine="exact"))
            a = nid(sketch, "a")
            sketch.edge_stats[a] = [
                sketch.make_edge_histogram(
                    a,
                    (EdgeRef(a, nid(sketch, "b")), EdgeRef(a, nid(sketch, "c"))),
                    buckets=16,
                )
            ]
            query = parse_for_clause("for t0 in a, t1 in t0/b, t2 in t0/c")
            estimate = TwigEstimator(sketch).estimate(query)
            assert estimate == pytest.approx(count_bindings(query, document))

    def test_figure4_coarsest_cannot_distinguish(self):
        """Independent 1-D histograms give the same (wrong) answer for both
        documents — the motivating observation of Section 3.2."""
        query = parse_for_clause("for t0 in a, t1 in t0/b, t2 in t0/c")
        estimates = []
        for document in figure4_documents():
            sketch = TwigXSketch.coarsest(document, XSketchConfig(engine="exact"))
            estimates.append(TwigEstimator(sketch).estimate(query))
        assert estimates[0] == pytest.approx(estimates[1])
        # the independence estimate: 2 elements x 55 x 55
        assert estimates[0] == pytest.approx(2 * 55 * 55)

    def test_example31_query(self, fig1):
        sketch = TwigXSketch.coarsest(fig1, XSketchConfig(engine="exact"))
        author = nid(sketch, "author")
        paper = nid(sketch, "paper")
        sketch.edge_stats[paper] = [
            sketch.make_edge_histogram(
                paper,
                (
                    EdgeRef(paper, nid(sketch, "keyword")),
                    EdgeRef(author, paper),
                    EdgeRef(author, nid(sketch, "name")),
                ),
                buckets=8,
            )
        ]
        query = parse_for_clause(
            "for t0 in author, t1 in t0/name, t2 in t0/paper/keyword"
        )
        # estimation through H_A(name) x chain correlation; with the joint
        # at P unused for this shape, check against the exact count 5
        estimate = TwigEstimator(sketch).estimate(query)
        truth = count_bindings(query, fig1)
        assert truth == 5
        assert estimate == pytest.approx(truth, rel=0.35)


class TestPredicates:
    def test_value_predicate_scales_estimate(self, fig1):
        sketch = TwigXSketch.coarsest(
            fig1, XSketchConfig(engine="exact", initial_value_buckets=8)
        )
        estimator = TwigEstimator(sketch)
        plain = estimator.estimate(twig(parse_path("year")))
        filtered = estimator.estimate(twig(parse_path("year{>2000}")))
        assert plain == pytest.approx(4.0)
        assert filtered == pytest.approx(2.0)

    def test_branch_on_fstable_edge_is_free(self, fig1):
        sketch = TwigXSketch.coarsest(fig1, XSketchConfig(engine="exact"))
        estimator = TwigEstimator(sketch)
        plain = estimator.estimate(twig(parse_path("paper")))
        branched = estimator.estimate(twig(parse_path("paper[title]")))
        assert branched == pytest.approx(plain)  # P->T is F-stable

    def test_branch_on_unstable_edge_scales(self, fig1):
        sketch = TwigXSketch.coarsest(fig1, XSketchConfig(engine="exact"))
        estimator = TwigEstimator(sketch)
        estimate = estimator.estimate(twig(parse_path("author[book]")))
        # one of three authors owns books; uniformity gives min(1, 2/3)
        assert 0.5 <= estimate / 3.0 <= 1.0

    def test_value_predicate_on_valueless_node_is_zero(self, fig1):
        sketch = TwigXSketch.coarsest(fig1, XSketchConfig(engine="exact"))
        estimator = TwigEstimator(sketch)
        assert estimator.estimate(twig(parse_path("paper{=7}"))) == 0.0

    def test_branch_with_value_predicate(self, fig1):
        sketch = TwigXSketch.coarsest(
            fig1, XSketchConfig(engine="exact", initial_value_buckets=8)
        )
        estimator = TwigEstimator(sketch)
        estimate = estimator.estimate(twig(parse_path("paper[year{>2000}]")))
        truth = count_bindings(twig(parse_path("paper[year{>2000}]")), fig1)
        assert truth == 2
        assert estimate == pytest.approx(truth, rel=0.3)


class TestReport:
    def test_report_fields(self, fig1):
        sketch = TwigXSketch.coarsest(fig1)
        estimator = TwigEstimator(sketch)
        report = estimator.report(
            parse_for_clause("for b in bib, t in b//title")
        )
        assert report.embeddings == 2
        assert not report.truncated
        assert report.selectivity > 0

    def test_unmatchable_query_is_zero(self, fig1):
        sketch = TwigXSketch.coarsest(fig1)
        estimator = TwigEstimator(sketch)
        report = estimator.report(twig(parse_path("movie")))
        assert report.selectivity == 0.0
        assert report.embeddings == 0


class TestBatchEstimation:
    """``report_many`` is a plain loop over ``report``."""

    @pytest.fixture(scope="class")
    def built(self):
        document = figure1_document()
        sketch = XBuild(document, budget_bytes=3072, seed=17).run().sketch
        spec = WorkloadSpec(seed=11, value_predicates=True)
        load = WorkloadGenerator(document, spec).positive_workload(30)
        return sketch, [entry.query for entry in load.queries]

    def test_report_many_matches_report(self, built):
        sketch, queries = built
        estimator = TwigEstimator(sketch)
        singles = [estimator.report(q) for q in queries]
        assert TwigEstimator(sketch).report_many(queries) == singles
