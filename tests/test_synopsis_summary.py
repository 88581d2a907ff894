"""Tests for the TwigXSketch summary object (repro.synopsis.summary)."""

import pytest

from repro.datasets.paperfig import figure1_document, figure4_documents
from repro.errors import SynopsisError
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


class TestConfig:
    def test_default_is_prototype(self):
        assert XSketchConfig() == XSketchConfig(include_backward=False)
        assert not XSketchConfig().include_backward

    def test_unknown_engine_rejected(self):
        with pytest.raises(SynopsisError):
            XSketchConfig(engine="psychic")


class TestCoarsest:
    def test_one_node_per_tag(self, sketch):
        assert sketch.graph.node_count == len(sketch.graph.tree.tags)

    def test_initial_histograms_cover_fstable_children_only(self, sketch):
        for node in sketch.graph.iter_nodes():
            for histogram in sketch.histograms_at(node.node_id):
                assert histogram.dimensions == 1
                (ref,) = histogram.scope
                assert ref.source == node.node_id
                edge = sketch.graph.edge(ref.source, ref.target)
                assert edge.forward_stable

    def test_author_histograms(self, sketch):
        author = nid(sketch, "author")
        targets = {
            sketch.graph.node(h.scope[0].target).tag
            for h in sketch.histograms_at(author)
        }
        # F-stable children of author: name, paper (book is not F-stable)
        assert targets == {"name", "paper"}

    def test_value_histograms_on_valued_nodes(self, sketch):
        assert sketch.value_summary(nid(sketch, "year")) is not None
        assert sketch.value_summary(nid(sketch, "name")) is not None
        assert sketch.value_summary(nid(sketch, "bib")) is None

    def test_validate(self, sketch):
        raise_on_violations(validate_sketch(sketch))

    def test_size_positive_and_decomposable(self, sketch):
        assert sketch.size_bytes() > 0
        assert sketch.size_kb() == pytest.approx(sketch.size_bytes() / 1024)


class TestHistogramBuilding:
    def test_make_edge_histogram_exact_under_budget(self, sketch):
        author = nid(sketch, "author")
        histogram = sketch.make_edge_histogram(
            author,
            (EdgeRef(author, nid(sketch, "paper")),),
            buckets=8,
        )
        points = dict(histogram.points())
        assert points[(2.0,)] == pytest.approx(1 / 3)
        assert points[(1.0,)] == pytest.approx(2 / 3)

    def test_dimension_cap_enforced(self, sketch):
        author = nid(sketch, "author")
        refs = tuple(
            EdgeRef(author, nid(sketch, tag)) for tag in ["paper", "name", "book"]
        )
        sketch.make_edge_histogram(author, refs, buckets=4)  # 3 dims: ok
        config = XSketchConfig(max_histogram_dims=2)
        small = TwigXSketch.coarsest(figure1_document(), config)
        author2 = nid(small, "author")
        refs2 = tuple(
            EdgeRef(author2, nid(small, tag)) for tag in ["paper", "name", "book"]
        )
        with pytest.raises(SynopsisError):
            small.make_edge_histogram(author2, refs2, buckets=4)

    def test_engines_interchangeable(self):
        for engine in ["centroid", "wavelet", "exact"]:
            sketch = TwigXSketch.coarsest(
                figure1_document(), XSketchConfig(engine=engine)
            )
            for histograms in sketch.edge_stats.values():
                for histogram in histograms:
                    total = sum(mass for _, mass in histogram.points())
                    assert total == pytest.approx(1.0)

    def test_index_of(self, sketch):
        author = nid(sketch, "author")
        ref = EdgeRef(author, nid(sketch, "paper"))
        histogram = sketch.make_edge_histogram(author, (ref,), buckets=2)
        assert histogram.index_of(ref) == 0
        assert histogram.index_of(EdgeRef(0, 999)) is None


class TestEdgeChildCount:
    def test_stored_counts(self, sketch):
        author = nid(sketch, "author")
        book = nid(sketch, "book")
        assert sketch.edge_child_count(author, book) == 2.0

    def test_missing_edge(self, sketch):
        assert sketch.edge_child_count(nid(sketch, "book"), nid(sketch, "year")) == 0.0

    def test_stability_fallback_bstable(self):
        config = XSketchConfig(store_edge_counts=False)
        sketch = TwigXSketch.coarsest(figure1_document(), config)
        author = nid(sketch, "author")
        book = nid(sketch, "book")
        # A→B is B-stable: fallback returns |B| exactly.
        assert sketch.edge_child_count(author, book) == 2.0

    def test_stability_fallback_unstable_apportions(self):
        config = XSketchConfig(store_edge_counts=False)
        sketch = TwigXSketch.coarsest(figure1_document(), config)
        paper = nid(sketch, "paper")
        book = nid(sketch, "book")
        title = nid(sketch, "title")
        estimate_paper = sketch.edge_child_count(paper, title)
        estimate_book = sketch.edge_child_count(book, title)
        assert estimate_paper + estimate_book == pytest.approx(6.0)
        # papers (4) outnumber books (2), so they get more of the titles
        assert estimate_paper > estimate_book

    def test_fallback_changes_size(self):
        stored = TwigXSketch.coarsest(figure1_document())
        bare = TwigXSketch.coarsest(
            figure1_document(), XSketchConfig(store_edge_counts=False)
        )
        assert stored.size_bytes() > bare.size_bytes()


class TestSplitMigration:
    def test_split_installs_default_stats(self, sketch):
        paper = nid(sketch, "paper")
        part = {sketch.graph.node(paper).extent[0].node_id}
        first, second = sketch.split_node(paper, part)
        raise_on_violations(validate_sketch(sketch))
        assert sketch.histograms_at(first) or sketch.histograms_at(second)
        assert paper not in sketch.edge_stats

    def test_split_remaps_foreign_scopes(self, sketch):
        author = nid(sketch, "author")
        paper = nid(sketch, "paper")
        # give author a histogram over the paper edge, then split paper
        sketch.set_histograms(author, [
            sketch.make_edge_histogram(author, (EdgeRef(author, paper),), 4)
        ])
        part = {sketch.graph.node(paper).extent[0].node_id}
        sketch.split_node(paper, part)
        raise_on_violations(validate_sketch(sketch))
        for histogram in sketch.histograms_at(author):
            for ref in histogram.scope:
                assert sketch.graph.edge(ref.source, ref.target) is not None

    def test_copy_independent(self, sketch):
        duplicate = sketch.copy()
        paper = nid(duplicate, "paper")
        part = {duplicate.graph.node(paper).extent[0].node_id}
        duplicate.split_node(paper, part)
        raise_on_violations(validate_sketch(duplicate))
        raise_on_violations(validate_sketch(sketch))
        assert len(sketch.graph.nodes_with_tag("paper")) == 1


    def test_copy_shares_statistics(self, sketch):
        paper, keyword = (nid(sketch, tag) for tag in ("paper", "keyword"))
        sketch.set_extended(paper, (sketch.make_extended_summary(
            paper, "year", (EdgeRef(paper, keyword),), 4, 4
        ),))
        edge_stats = dict(sketch.edge_stats)
        extended = dict(sketch.extended_stats)
        assert all(type(h) is tuple for h in edge_stats.values())
        duplicate = sketch.copy()
        for ours, theirs in (
            (duplicate.edge_stats, edge_stats),
            (duplicate.extended_stats, extended),
            (duplicate.value_stats, sketch.value_stats),
        ):
            assert ours.keys() == theirs.keys()
            assert all(ours[key] is theirs[key] for key in theirs)
        # the copy's writers replace its tuples, never the base's
        duplicate.split_node(paper, {
            sketch.graph.node(paper).extent[0].node_id
        })
        assert paper not in duplicate.extended_stats
        assert sketch.edge_stats.keys() == edge_stats.keys()
        assert all(
            sketch.edge_stats[key] is edge_stats[key] for key in edge_stats
        )
        assert sketch.extended_stats[paper] is extended[paper]


class TestFigure4Sketches:
    def test_identical_sizes_for_both_documents(self):
        doc_a, doc_b = figure4_documents()
        sketch_a = TwigXSketch.coarsest(doc_a)
        sketch_b = TwigXSketch.coarsest(doc_b)
        assert sketch_a.size_bytes() == sketch_b.size_bytes()
        assert sketch_a.graph.node_count == sketch_b.graph.node_count
