"""Tests for maximal expansion and embedding enumeration."""

import pytest

from repro.datasets import generate_imdb
from repro.datasets.paperfig import figure1_document
from repro.estimation import (
    EmbeddingBudget,
    enumerate_embeddings,
    maximal_twigs,
    validate_embedding,
)
from repro.query import (
    Path,
    Step,
    ValuePredicate,
    parse_for_clause,
    parse_path,
    twig,
)
from repro.synopsis import label_split_synopsis


@pytest.fixture()
def synopsis():
    return label_split_synopsis(figure1_document())


def tag_of(synopsis, node_id):
    return synopsis.node(node_id).tag


class TestEnumeration:
    def test_simple_child_query_single_embedding(self, synopsis):
        query = parse_for_clause("for a in author, p in a/paper")
        embeddings = enumerate_embeddings(query, synopsis)
        assert len(embeddings) == 1
        root = embeddings[0].root
        assert tag_of(synopsis, root.node_id) == "author"
        assert tag_of(synopsis, root.children[0].node_id) == "paper"

    def test_multi_step_path_becomes_chain(self, synopsis):
        query = parse_for_clause("for a in author, k in a/paper/keyword")
        embeddings = enumerate_embeddings(query, synopsis)
        assert len(embeddings) == 1
        chain = embeddings[0].root.children[0]
        assert tag_of(synopsis, chain.node_id) == "paper"
        assert tag_of(synopsis, chain.children[0].node_id) == "keyword"

    def test_root_descendant_uses_extent_semantics(self, synopsis):
        # a root path matches the extent directly: exactly one embedding
        query = twig(parse_path("//title"))
        embeddings = enumerate_embeddings(query, synopsis)
        assert len(embeddings) == 1
        assert tag_of(synopsis, embeddings[0].root.node_id) == "title"

    def test_descendant_expands_to_all_paths(self, synopsis):
        query = parse_for_clause("for b in bib, t in b//title")
        embeddings = enumerate_embeddings(query, synopsis)
        # bib -> author/paper/title and bib -> author/book/title
        assert len(embeddings) == 2
        lengths = set()
        for embedding in embeddings:
            nodes = embedding.nodes()
            assert tag_of(synopsis, nodes[-1].node_id) == "title"
            lengths.add(len(nodes))
        assert lengths == {4}

    def test_descendant_from_variable(self, synopsis):
        query = parse_for_clause("for a in author, t in a//title")
        embeddings = enumerate_embeddings(query, synopsis)
        assert len(embeddings) == 2  # via paper and via book

    def test_impossible_query_has_no_embeddings(self, synopsis):
        query = parse_for_clause("for a in author, m in a/movie")
        assert enumerate_embeddings(query, synopsis) == []

    def test_branch_attached(self, synopsis):
        query = twig(parse_path("paper[year{>2000}]"))
        embeddings = enumerate_embeddings(query, synopsis)
        assert len(embeddings) == 1
        root = embeddings[0].root
        assert len(root.branches) == 1
        (alternatives,) = root.branches
        assert len(alternatives) == 1
        assert tag_of(synopsis, alternatives[0].node_id) == "year"

    def test_unembeddable_branch_kills_embedding(self, synopsis):
        query = twig(parse_path("paper[movie]"))
        assert enumerate_embeddings(query, synopsis) == []

    def test_multi_child_twig(self, synopsis):
        query = parse_for_clause(
            "for a in author, n in a/name, p in a/paper, k in p/keyword"
        )
        embeddings = enumerate_embeddings(query, synopsis)
        assert len(embeddings) == 1
        root = embeddings[0].root
        assert len(root.children) == 2

    def test_embeddings_use_existing_edges(self, synopsis):
        query = parse_for_clause("for b in bib, t in b//title, a in b/author")
        for embedding in enumerate_embeddings(query, synopsis):
            validate_embedding(embedding, synopsis)

    def test_budget_truncation(self, synopsis):
        budget = EmbeddingBudget(limit=1)
        query = parse_for_clause("for b in bib, t in b//title")
        embeddings = enumerate_embeddings(query, synopsis, budget=budget)
        assert len(embeddings) == 1
        assert budget.truncated


class TestMaximalTwigs:
    def test_every_node_single_step(self, synopsis):
        query = parse_for_clause("for a in author, k in a/paper/keyword")
        for maximal in maximal_twigs(query, synopsis):
            assert all(node.path.is_single_step for node in maximal.nodes())

    def test_descendant_expansion_count(self, synopsis):
        query = parse_for_clause("for b in bib, t in b//title")
        maximal = maximal_twigs(query, synopsis)
        assert len(maximal) == 2
        texts = {m.text() for m in maximal}
        assert any("book" in text for text in texts)
        assert any("paper" in text for text in texts)

    def test_a_bound_type_makes_a_different_maximal_twig(self):
        """``movie/year{=1990}`` with an int and with a string bound
        expand to two maximal twigs, each text parsing back to its own."""
        synopsis = label_split_synopsis(generate_imdb(2000, seed=2))
        maximal = []
        for bound in (1990, "1990"):
            query = twig(Path((
                Step("movie"),
                Step("year", value_pred=ValuePredicate("=", bound)),
            )))
            (expanded,) = maximal_twigs(query, synopsis)
            maximal.append(expanded)
        assert maximal[0].text() != maximal[1].text()
        assert maximal[0].key != maximal[1].key
        for expanded in maximal:
            assert parse_for_clause(expanded.text()).key == expanded.key
        assert maximal[1].nodes()[-1].path.last.value_pred.value == "1990"

    def test_predicates_preserved(self, synopsis):
        query = twig(parse_path("paper[year{>2000}]"))
        (maximal,) = maximal_twigs(query, synopsis)
        step = maximal.root.path.steps[0]
        assert step.branches and step.branches[0].steps[0].value_pred is not None


class TestRecursiveSynopsis:
    def test_cycles_terminate(self):
        from repro.doc import build_tree
        from repro.synopsis import label_split_synopsis as split

        tree = build_tree(
            ("doc", [("section", [("section", [("section", ["p"])]), "p"])])
        )
        synopsis = split(tree)
        query = twig(parse_path("//p"))
        embeddings = enumerate_embeddings(query, synopsis, max_depth=6)
        assert embeddings  # enumeration terminated and found something
