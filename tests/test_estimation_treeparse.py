"""Direct unit tests for the TREEPARSE algorithm (repro.estimation.treeparse)."""

import pytest

from repro.datasets import figure1_document
from repro.estimation import enumerate_embeddings, tree_parse
from repro.query import parse_for_clause, parse_path, twig
from repro.synopsis import EdgeRef, TwigXSketch, XSketchConfig


@pytest.fixture()
def sketch():
    return TwigXSketch.coarsest(figure1_document(), XSketchConfig(engine="exact"))


def nid(sketch, tag):
    return sketch.graph.nodes_with_tag(tag)[0].node_id


def plan_for(sketch, query_text):
    query = parse_for_clause(query_text)
    (embedding,) = enumerate_embeddings(query, sketch.graph)
    return embedding, tree_parse(embedding, sketch)


class TestSets:
    def test_leaf_plans_empty(self, sketch):
        embedding, plans = plan_for(sketch, "for a in author, n in a/name")
        leaf = embedding.root.children[0]
        plan = plans[id(leaf)]
        assert not plan.uses
        assert not plan.uncovered
        assert not plan.covered_refs

    def test_covered_child_in_expansion(self, sketch):
        embedding, plans = plan_for(sketch, "for a in author, n in a/name")
        plan = plans[id(embedding.root)]
        assert len(plan.uses) == 1
        (use,) = plan.uses
        (dim,) = use.expansion
        assert use.histogram.scope[dim] == EdgeRef(
            nid(sketch, "author"), nid(sketch, "name")
        )
        assert plan.covered_refs == {use.histogram.scope[dim]}

    def test_uncovered_child_in_u_set(self, sketch):
        # A→B (book) is not F-stable, so the coarsest synopsis stores no
        # histogram for it: the book child must land in U.
        embedding, plans = plan_for(sketch, "for a in author, b in a/book")
        plan = plans[id(embedding.root)]
        assert [c.node_id for c in plan.uncovered] == [nid(sketch, "book")]

    def test_backward_condition_set(self, sketch):
        author = nid(sketch, "author")
        paper = nid(sketch, "paper")
        sketch.set_histograms(paper, [
            sketch.make_edge_histogram(
                paper,
                (EdgeRef(paper, nid(sketch, "keyword")), EdgeRef(author, paper)),
                buckets=8,
            )
        ])
        embedding, plans = plan_for(
            sketch, "for a in author, p in a/paper, k in p/keyword"
        )
        paper_node = embedding.root.children[0]
        plan = plans[id(paper_node)]
        (use,) = plan.uses
        assert list(use.conditions.values()) == [EdgeRef(author, paper)]

    def test_backward_without_cover_is_marginalized(self, sketch):
        # same histogram, but the query never counts A→P upstream: the
        # backward dim must NOT appear in D (it gets marginalized away)
        author = nid(sketch, "author")
        paper = nid(sketch, "paper")
        sketch.set_histograms(paper, [
            sketch.make_edge_histogram(
                paper,
                (EdgeRef(paper, nid(sketch, "keyword")), EdgeRef(author, paper)),
                buckets=8,
            )
        ])
        query = twig(parse_path("paper"), parse_path("keyword"))
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch)
        (use,) = plans[id(embedding.root)].uses
        assert not use.conditions
        assert use.kept_dimensions() == [0]


class TestBranchConditioning:
    def test_single_alternative_branch_absorbed(self, sketch):
        paper = nid(sketch, "paper")
        year = nid(sketch, "year")
        sketch.set_histograms(paper, [
            sketch.make_edge_histogram(
                paper,
                (EdgeRef(paper, nid(sketch, "keyword")), EdgeRef(paper, year)),
                buckets=8,
            )
        ])
        query = twig(parse_path("paper[year]"), parse_path("keyword"))
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch)
        plan = plans[id(embedding.root)]
        assert plan.absorbed_branches == {0}
        (use,) = plan.uses
        assert len(use.branch_conditions) == 1

    def test_conditioning_disabled(self, sketch):
        paper = nid(sketch, "paper")
        sketch.set_histograms(paper, [
            sketch.make_edge_histogram(
                paper,
                (
                    EdgeRef(paper, nid(sketch, "keyword")),
                    EdgeRef(paper, nid(sketch, "year")),
                ),
                buckets=8,
            )
        ])
        query = twig(parse_path("paper[year]"), parse_path("keyword"))
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch, branch_conditioning=False)
        plan = plans[id(embedding.root)]
        assert not plan.absorbed_branches
        (use,) = plan.uses
        assert not use.branch_conditions

    def test_duplicate_child_and_branch_not_double_assigned(self, sketch):
        # the same edge used by a child variable keeps priority; the
        # branch falls back to independent handling
        query = twig(parse_path("paper[title]"), parse_path("title"))
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch)
        plan = plans[id(embedding.root)]
        for use in plan.uses:
            overlap = set(use.expansion) & set(use.branch_conditions)
            assert not overlap


class TestBranchConditioningEffect:
    def test_narrator_twig_estimated_exactly(self):
        """A joint (actor, keyword, narrator) histogram plus branch
        conditioning answers the correlated movie[narrator] twig exactly,
        where branch independence overestimates by more than an order of
        magnitude (EXPERIMENTS.md E11)."""
        from repro.datasets import generate_imdb
        from repro.estimation import TwigEstimator
        from repro.query import count_bindings, parse_for_clause

        tree = generate_imdb(6000, seed=2)
        sketch = TwigXSketch.coarsest(tree, XSketchConfig(engine="exact"))
        movie = nid(sketch, "movie")
        scope = tuple(
            EdgeRef(movie, nid(sketch, tag))
            for tag in ("actor", "keyword", "narrator")
        )
        sketch.set_histograms(movie, [
            sketch.make_edge_histogram(movie, scope, buckets=64)
        ])
        query = parse_for_clause(
            "for m in movie[narrator], a in m/actor, k in m/keyword"
        )
        truth = count_bindings(query, tree)
        conditioned = TwigEstimator(sketch, branch_conditioning=True)
        independent = TwigEstimator(sketch, branch_conditioning=False)
        assert conditioned.estimate(query) == pytest.approx(truth, rel=0.01)
        assert independent.estimate(query) > truth * 10
