"""Tests for the synthetic data-set generators."""

import pytest

from repro.datasets import (
    figure1_document,
    figure4_documents,
    generate_imdb,
    generate_sprot,
    generate_xmark,
    movie_document,
)
from repro.doc import document_stats
from repro.query import count_bindings, parse_for_clause


@pytest.fixture(scope="module")
def imdb():
    return generate_imdb(8000, seed=2)


@pytest.fixture(scope="module")
def xmark():
    return generate_xmark(8000, seed=1)


@pytest.fixture(scope="module")
def sprot():
    return generate_sprot(8000, seed=3)


class TestDeterminism:
    @pytest.mark.parametrize(
        "generator", [generate_imdb, generate_xmark, generate_sprot]
    )
    def test_same_seed_same_document(self, generator):
        first = generator(2000, seed=42)
        second = generator(2000, seed=42)
        assert [n.tag for n in first.nodes()] == [n.tag for n in second.nodes()]
        assert [n.value for n in first.nodes()] == [n.value for n in second.nodes()]

    @pytest.mark.parametrize(
        "generator", [generate_imdb, generate_xmark, generate_sprot]
    )
    def test_different_seed_different_document(self, generator):
        first = generator(2000, seed=1)
        second = generator(2000, seed=2)
        assert [n.tag for n in first.nodes()] != [n.tag for n in second.nodes()]


class TestScale:
    @pytest.mark.parametrize(
        "generator", [generate_imdb, generate_xmark, generate_sprot]
    )
    @pytest.mark.parametrize("target", [1000, 5000])
    def test_element_count_near_target(self, generator, target):
        tree = generator(target)
        assert target <= tree.element_count <= target * 1.1

    def test_structural_validity(self, imdb, xmark, sprot):
        for tree in (imdb, xmark, sprot):
            tree.validate()


class TestImdbCorrelations:
    def test_action_has_more_actors_than_documentary(self, imdb):
        def mean_actors(genre):
            movies = [
                m
                for m in imdb.extent("movie")
                if any(
                    c.tag == "type" and c.value == genre for c in m.children
                )
                and m.parent.tag == "imdb"
            ]
            return sum(m.child_count("actor") for m in movies) / len(movies)

        assert mean_actors("Action") > 5 * mean_actors("Documentary")

    def test_actor_producer_joint_correlation(self, imdb):
        """Cov(actors, producers) > 0 per movie — the skew the coarsest
        synopsis cannot capture."""
        movies = imdb.extent("movie")
        actor_counts = [m.child_count("actor") for m in movies]
        producer_counts = [m.child_count("producer") for m in movies]
        n = len(movies)
        mean_a = sum(actor_counts) / n
        mean_p = sum(producer_counts) / n
        covariance = (
            sum(a * p for a, p in zip(actor_counts, producer_counts)) / n
            - mean_a * mean_p
        )
        assert covariance > 1.0

    def test_series_movies_have_smaller_casts(self, imdb):
        top = [m for m in imdb.extent("movie") if m.parent.tag == "imdb"]
        nested = [m for m in imdb.extent("movie") if m.parent.tag == "episode"]
        assert nested, "series episodes must exist"
        mean_top = sum(m.child_count("actor") for m in top) / len(top)
        mean_nested = sum(m.child_count("actor") for m in nested) / len(nested)
        assert mean_top > 2 * mean_nested

    def test_structural_markers(self, imdb):
        movies = imdb.extent("movie")
        assert any(m.child_count("narrator") for m in movies)
        assert any(m.child_count("stunts") for m in movies)

    def test_intro_query_selectivity_gap(self, imdb):
        action = parse_for_clause(
            'for m in movie[/type = "Action"], a in m/actor, p in m/producer'
        )
        documentary = parse_for_clause(
            'for m in movie[/type = "Documentary"], a in m/actor, p in m/producer'
        )
        action_count = count_bindings(action, imdb)
        documentary_count = count_bindings(documentary, imdb)
        assert action_count > 10 * max(1, documentary_count)


class TestXmarkRegularity:
    def test_quantity_counts_iid(self, xmark):
        """Nearly every item has the uniform core (the last generated item
        may be truncated by the element budget)."""
        items = xmark.extent("item")
        regular = sum(
            1
            for item in items
            if item.child_count("quantity") == 1
            and item.child_count("name") == 1
            and 1 <= item.child_count("incategory") <= 2
        )
        assert regular >= 0.99 * len(items)

    def test_recursive_structure_present(self, xmark):
        """The DTD's recursions exist: nested parlists and nested markup."""
        nested_parlist = any(
            any(anc.tag == "parlist" for anc in p.iter_ancestors())
            for p in xmark.extent("parlist")
        )
        assert nested_parlist
        label_paths = {node.label_path() for node in xmark.iter_nodes()}
        assert len(label_paths) > 300  # many distinct label paths

    def test_four_populations_present(self, xmark):
        for tag in ["item", "person", "open_auction", "closed_auction"]:
            assert len(xmark.extent(tag)) > 10

    def test_bidder_counts_spread(self, xmark):
        counts = {a.child_count("bidder") for a in xmark.extent("open_auction")}
        assert len(counts) > 2  # 0..4 uniform


class TestSprot:
    def test_entries_regular_core(self, sprot):
        for entry in sprot.extent("Entry"):
            assert entry.child_count("AC") == 1
            assert entry.child_count("Protein") == 1

    def test_two_organism_classes(self, sprot):
        classes = {c.value for c in sprot.extent("Class")}
        assert classes == {"eukaryota", "bacteria"}


class TestPaperFigures:
    def test_figure1_shape(self):
        tree = figure1_document()
        assert len(tree.extent("author")) == 3
        assert len(tree.extent("paper")) == 4
        assert len(tree.extent("book")) == 2

    def test_figure4_totals(self):
        doc_a, doc_b = figure4_documents()
        for doc in (doc_a, doc_b):
            assert len(doc.extent("a")) == 2
            assert len(doc.extent("b")) == 110
            assert len(doc.extent("c")) == 110

    def test_movie_document_genres(self):
        tree = movie_document()
        genres = [t.value for t in tree.extent("type")]
        assert genres.count("Action") == 2

    def test_stats_computable(self, imdb):
        stats = document_stats(imdb)
        assert stats.element_count == imdb.element_count
        assert stats.text_size_mb > 0
