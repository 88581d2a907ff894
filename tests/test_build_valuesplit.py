"""Tests for the ValueSplit refinement (DESIGN.md E10)."""

import random

import pytest

from repro.build import ValueSplit, generate_candidates
from repro.build.sampling import _value_split_proposals
from repro.datasets import generate_imdb, movie_document
from repro.errors import BuildError
from repro.estimation import TwigEstimator
from repro.query import ValuePredicate, count_bindings, parse_for_clause
from repro.synopsis import (
    TwigXSketch,
    XSketchConfig,
    raise_on_violations,
    validate_sketch,
)


@pytest.fixture()
def movie_sketch():
    return TwigXSketch.coarsest(movie_document(), XSketchConfig(engine="exact"))


def nid(sketch, tag):
    return sketch.graph.nodes_with_tag(tag)[0].node_id


class TestApply:
    def test_split_by_child_value(self, movie_sketch):
        movie = nid(movie_sketch, "movie")
        refined = ValueSplit(
            movie, ValuePredicate("=", "Action"), "type"
        ).apply(movie_sketch)
        raise_on_violations(validate_sketch(refined))
        parts = refined.graph.nodes_with_tag("movie")
        assert sorted(node.count for node in parts) == [2, 3]

    def test_split_by_own_value(self, movie_sketch):
        type_node = nid(movie_sketch, "type")
        refined = ValueSplit(
            type_node, ValuePredicate("=", "Action")
        ).apply(movie_sketch)
        raise_on_violations(validate_sketch(refined))
        parts = refined.graph.nodes_with_tag("type")
        assert sorted(node.count for node in parts) == [2, 3]

    def test_non_splitting_predicate_rejected(self, movie_sketch):
        movie = nid(movie_sketch, "movie")
        with pytest.raises(BuildError):
            ValueSplit(movie, ValuePredicate("=", "Western"), "type").apply(
                movie_sketch
            )

    def test_all_matching_predicate_rejected(self, movie_sketch):
        title = nid(movie_sketch, "title")
        with pytest.raises(BuildError):
            # every movie has a title child: the part is not proper
            ValueSplit(nid(movie_sketch, "movie"), ValuePredicate("!=", "x"),
                       "title").apply(movie_sketch)

    def test_dead_node_rejected(self, movie_sketch):
        with pytest.raises(BuildError):
            ValueSplit(999, ValuePredicate("=", "Action"), "type").apply(
                movie_sketch
            )

    def test_input_not_mutated(self, movie_sketch):
        before = movie_sketch.graph.node_count
        ValueSplit(
            nid(movie_sketch, "movie"), ValuePredicate("=", "Action"), "type"
        ).apply(movie_sketch)
        assert movie_sketch.graph.node_count == before


class TestEstimationEffect:
    def test_split_improves_genre_estimates(self, movie_sketch):
        """After the movie node splits by type, the genre-conditioned twig
        estimate becomes (nearly) exact: each part's statistics describe
        its own value population."""
        tree = movie_sketch.graph.tree
        query = parse_for_clause(
            'for m in movie[/type = "Action"], a in m/actor, p in m/producer'
        )
        truth = count_bindings(query, tree)
        coarse_estimate = TwigEstimator(movie_sketch).estimate(query)
        refined = ValueSplit(
            nid(movie_sketch, "movie"), ValuePredicate("=", "Action"), "type"
        ).apply(movie_sketch)
        refined_estimate = TwigEstimator(refined).estimate(query)
        assert abs(refined_estimate - truth) < abs(coarse_estimate - truth)
        assert refined_estimate == pytest.approx(truth, rel=0.05)


class TestCandidateGeneration:
    def test_proposals_from_string_child(self, movie_sketch):
        movie = nid(movie_sketch, "movie")
        proposals = _value_split_proposals(movie_sketch, movie)
        splits = [p for p in proposals if isinstance(p, ValueSplit)]
        assert splits
        assert any(p.child_tag == "type" for p in splits)

    def test_proposals_from_numeric_child(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = sketch.graph.nodes_with_tag("movie")[0].node_id
        proposals = _value_split_proposals(sketch, movie)
        numeric = [
            p
            for p in proposals
            if isinstance(p, ValueSplit) and p.child_tag == "year"
        ]
        assert numeric
        assert numeric[0].predicate.op == "<"

    def test_candidates_include_value_splits(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        rng = random.Random(1)
        found = False
        for _ in range(10):
            for candidate in generate_candidates(sketch, rng):
                if isinstance(candidate, ValueSplit):
                    found = True
        assert found
