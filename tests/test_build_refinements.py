"""Tests for the refinement operations (repro.build.refinements)."""

import pytest

from repro.build import (
    BStabilize,
    EdgeExpand,
    EdgeRefine,
    FStabilize,
    ValueRefine,
)
from repro.datasets import figure1_document, generate_imdb
from repro.errors import BuildError
from repro.synopsis import (
    EdgeRef,
    TwigXSketch,
    XSketchConfig,
    raise_on_violations,
    validate_sketch,
)


@pytest.fixture()
def sketch():
    return TwigXSketch.coarsest(figure1_document())


def nid(sketch, tag):
    return sketch.graph.nodes_with_tag(tag)[0].node_id


class TestBStabilize:
    def test_creates_backward_stable_edge(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = nid(sketch, "movie")
        # movies appear under imdb and under episode: pick the imdb edge
        edge = next(
            e for e in sketch.graph.parents_of(movie) if not e.backward_stable
        )
        refined = BStabilize(edge.source, edge.target).apply(sketch)
        raise_on_violations(validate_sketch(refined))
        movies = refined.graph.nodes_with_tag("movie")
        assert len(movies) == 2
        stabilized = refined.graph.edge(
            edge.source,
            next(
                m.node_id
                for m in movies
                if refined.graph.edge(edge.source, m.node_id) is not None
                and refined.graph.edge(edge.source, m.node_id).backward_stable
            ),
        )
        assert stabilized.backward_stable

    def test_rejects_stable_edge(self, sketch):
        author = nid(sketch, "author")
        paper = nid(sketch, "paper")
        with pytest.raises(BuildError):
            BStabilize(author, paper).apply(sketch)  # already B-stable

    def test_does_not_mutate_input(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = nid(sketch, "movie")
        edge = next(
            e for e in sketch.graph.parents_of(movie) if not e.backward_stable
        )
        before = sketch.graph.node_count
        BStabilize(edge.source, edge.target).apply(sketch)
        assert sketch.graph.node_count == before
        raise_on_violations(validate_sketch(sketch))


class TestFStabilize:
    def test_splits_source_by_child_presence(self, sketch):
        author = nid(sketch, "author")
        book = nid(sketch, "book")
        refined = FStabilize(author, book).apply(sketch)
        raise_on_violations(validate_sketch(refined))
        authors = refined.graph.nodes_with_tag("author")
        assert len(authors) == 2
        sizes = sorted(node.count for node in authors)
        assert sizes == [1, 2]  # one author owns books, two do not
        with_books = next(
            n
            for n in authors
            if refined.graph.edge(n.node_id, book) is not None
        )
        assert refined.graph.edge(with_books.node_id, book).forward_stable

    def test_rejects_stable_edge(self, sketch):
        author = nid(sketch, "author")
        paper = nid(sketch, "paper")
        with pytest.raises(BuildError):
            FStabilize(author, paper).apply(sketch)

    def test_region(self, sketch):
        op = FStabilize(1, 2)
        assert op.region() == {1, 2}


class TestEdgeRefine:
    def test_doubles_budget(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        # find any node with a compressed (refinable) histogram
        node_id, index = next(
            (node_id, i)
            for node_id, histograms in sketch.edge_stats.items()
            for i, h in enumerate(histograms)
            if h.bucket_count() >= h.budget
        )
        old_budget = sketch.histograms_at(node_id)[index].budget
        refined = EdgeRefine(node_id, index).apply(sketch)
        assert refined.histograms_at(node_id)[index].budget == old_budget * 2
        assert refined.size_bytes() > sketch.size_bytes()

    def test_rejects_exact_histogram(self, sketch):
        author = nid(sketch, "author")
        # author's paper-count histogram has 2 distinct points; budget 2
        # already stores it exactly after one refine
        refined = sketch
        with pytest.raises(BuildError):
            for _ in range(5):
                refined = EdgeRefine(author, 0).apply(refined)

    def test_rejects_missing_histogram(self, sketch):
        with pytest.raises(BuildError):
            EdgeRefine(nid(sketch, "keyword"), 3).apply(sketch)


class TestEdgeExpand:
    def test_absorbs_sibling_and_joins_scope(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = nid(sketch, "movie")
        histograms = sketch.histograms_at(movie)
        assert len(histograms) >= 2
        other_ref = histograms[1].scope[0]
        before_count = len(histograms)
        refined = EdgeExpand(movie, 0, other_ref).apply(sketch)
        after = refined.histograms_at(movie)
        assert len(after) == before_count - 1
        assert other_ref in after[0].scope
        assert len(after[0].scope) == 2

    def test_rejects_duplicate_ref(self, sketch):
        author = nid(sketch, "author")
        ref = sketch.histograms_at(author)[0].scope[0]
        with pytest.raises(BuildError):
            EdgeExpand(author, 0, ref).apply(sketch)

    def test_rejects_over_cap(self):
        config = XSketchConfig(max_histogram_dims=1)
        sketch = TwigXSketch.coarsest(figure1_document(), config)
        author = nid(sketch, "author")
        name = nid(sketch, "name")
        with pytest.raises(BuildError):
            EdgeExpand(author, 0, EdgeRef(author, name)).apply(sketch)

    def test_joint_captures_correlation(self):
        """After expanding to a joint (actor, producer) histogram with a
        generous budget, the figure-4-style estimate becomes exact."""
        from repro.datasets import figure4_documents
        from repro.estimation import TwigEstimator
        from repro.query import count_bindings, parse_for_clause

        doc_a, _ = figure4_documents()
        sketch = TwigXSketch.coarsest(doc_a, XSketchConfig(initial_edge_buckets=4))
        a = nid(sketch, "a")
        b_ref = sketch.histograms_at(a)[0].scope[0]
        c_ref = sketch.histograms_at(a)[1].scope[0]
        joined = EdgeExpand(a, 0, c_ref).apply(sketch)
        query = parse_for_clause("for t0 in a, t1 in t0/b, t2 in t0/c")
        estimate = TwigEstimator(joined).estimate(query)
        assert estimate == pytest.approx(count_bindings(query, doc_a))


class TestValueRefine:
    def test_doubles_value_budget(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        year = nid(sketch, "year")
        old_budget = sketch.value_summary(year).budget
        refined = ValueRefine(year).apply(sketch)
        assert refined.value_summary(year).budget == old_budget * 2

    def test_rejects_valueless_node(self, sketch):
        with pytest.raises(BuildError):
            ValueRefine(nid(sketch, "bib")).apply(sketch)
