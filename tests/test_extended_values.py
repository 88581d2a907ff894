"""Tests for extended value histograms H^v(V, C1..Ck) and value-expand.

The paper's Section 3.2 extension: joint value/count distributions that
capture value↔structure correlation (e.g. Action movies carrying large
casts), consumed by the estimator through the ExtendedUse plan entries.
"""

import pytest

from repro.build import ValueExpand
from repro.datasets import generate_imdb, movie_document
from repro.errors import BuildError, SynopsisError
from repro.estimation import TwigEstimator, enumerate_embeddings, tree_parse
from repro.histogram import ValueCountHistogram
from repro.query import ValuePredicate, count_bindings, parse_for_clause
from repro.synopsis import (
    EdgeRef,
    TwigXSketch,
    XSketchConfig,
    raise_on_violations,
    validate_sketch,
)


def nid(sketch, tag):
    return sketch.graph.nodes_with_tag(tag)[0].node_id


class TestValueCountHistogram:
    def test_numeric_joint(self):
        observations = [(1990, (2,)), (1991, (3,)), (2001, (10,)), (2002, (12,))]
        hist = ValueCountHistogram(observations, value_buckets=2, count_buckets=4)
        assert hist.match_mass(ValuePredicate(">", 2000)) == pytest.approx(0.5)
        points = hist.conditional_points(ValuePredicate(">", 2000))
        mean = sum(v[0] * m for v, m in points)
        assert mean == pytest.approx(11.0)

    def test_string_joint(self):
        observations = [("Action", (20,))] * 3 + [("Doc", (1,))] * 7
        hist = ValueCountHistogram(observations, value_buckets=4, count_buckets=4)
        assert hist.match_mass(ValuePredicate("=", "Action")) == pytest.approx(0.3)
        points = hist.conditional_points(ValuePredicate("=", "Action"))
        assert points == [((20.0,), 1.0)]

    def test_remainder_pool(self):
        observations = [("a", (1,))] * 8 + [("b", (5,)), ("c", (9,))]
        hist = ValueCountHistogram(observations, value_buckets=1, count_buckets=4)
        # 'b' falls in the pool of 2 distinct values with mass 0.2
        assert hist.match_mass(ValuePredicate("=", "b")) == pytest.approx(0.1)
        pool_points = hist.conditional_points(ValuePredicate("=", "b"))
        mean = sum(v[0] * m for v, m in pool_points)
        assert mean == pytest.approx(7.0)  # pool average of 5 and 9

    def test_missing_values_tracked(self):
        observations = [(None, (4,))] * 2 + [("x", (1,))] * 2
        hist = ValueCountHistogram(observations, value_buckets=2, count_buckets=2)
        assert hist.missing_mass == pytest.approx(0.5)
        assert hist.match_mass(ValuePredicate("=", "x")) == pytest.approx(0.5)
        unconditioned = hist.conditional_points(None)
        mean = sum(v[0] * m for v, m in unconditioned)
        assert mean == pytest.approx(2.5)

    def test_no_match_is_empty(self):
        hist = ValueCountHistogram([("x", (1,))], 2, 2)
        assert hist.match_mass(ValuePredicate("=", "zzz")) == 0.0
        assert hist.conditional_points(ValuePredicate("=", "zzz")) == []

    def test_invalid_inputs(self):
        with pytest.raises(SynopsisError):
            ValueCountHistogram([], 2, 2)
        with pytest.raises(SynopsisError):
            ValueCountHistogram([("x", (1,)), ("y", (1, 2))], 2, 2)
        with pytest.raises(SynopsisError):
            ValueCountHistogram([("x", (1,))], 0, 2)

    def test_string_predicate_on_numeric_buckets_matches_nothing(self):
        """As in the numeric value histogram: a type mismatch matches no
        element (``year = "1990"`` once raised a TypeError here)."""
        hist = ValueCountHistogram([(1990, (1,)), (1991, (2,))], 2, 2)
        for op in ("=", "!=", "<="):
            assert hist.match_mass(ValuePredicate(op, "1990")) == 0.0
        assert hist.conditional_points(ValuePredicate("=", "1990")) == []

    def test_range_bucket_partial_overlap(self):
        observations = [(year, (1,)) for year in range(1990, 2010)]
        hist = ValueCountHistogram(observations, value_buckets=2, count_buckets=2)
        mass = hist.match_mass(ValuePredicate.between(1995, 2004))
        assert mass == pytest.approx(0.5, abs=0.08)


class TestExtendedSummary:
    @pytest.fixture()
    def sketch(self):
        sketch = TwigXSketch.coarsest(movie_document(), XSketchConfig(engine="exact"))
        movie = nid(sketch, "movie")
        sketch.set_extended(movie, [
            sketch.make_extended_summary(
                movie,
                "type",
                (
                    EdgeRef(movie, nid(sketch, "actor")),
                    EdgeRef(movie, nid(sketch, "producer")),
                ),
                value_buckets=6,
                count_buckets=8,
            )
        ])
        return sketch

    def test_branch_value_predicate_estimated_exactly(self, sketch):
        tree = sketch.graph.tree
        for genre in ["Action", "Documentary", "Drama"]:
            query = parse_for_clause(
                f'for m in movie[/type = "{genre}"], a in m/actor, p in m/producer'
            )
            truth = count_bindings(query, tree)
            estimate = TwigEstimator(sketch).estimate(query)
            assert estimate == pytest.approx(truth, rel=0.01)

    def test_plan_contains_extended_use(self, sketch):
        query = parse_for_clause(
            'for m in movie[/type = "Action"], a in m/actor, p in m/producer'
        )
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch)
        plan = plans[id(embedding.root)]
        assert len(plan.extended_uses) == 1
        use = plan.extended_uses[0]
        assert use.absorbed_branch == 0
        assert len(use.expansion) == 2
        assert plan.absorbed_branches == {0}

    def test_without_predicate_extended_unused(self, sketch):
        query = parse_for_clause("for m in movie, a in m/actor")
        (embedding,) = enumerate_embeddings(query, sketch.graph)
        plans = tree_parse(embedding, sketch)
        assert not plans[id(embedding.root)].extended_uses

    def test_size_accounting(self, sketch):
        movie = nid(sketch, "movie")
        summary = sketch.extended_at(movie)[0]
        assert summary.size_bytes() > 0
        bare = TwigXSketch.coarsest(movie_document(), XSketchConfig(engine="exact"))
        assert sketch.size_bytes() == bare.size_bytes() + summary.size_bytes()

    def test_survives_node_split(self, sketch):
        movie = nid(sketch, "movie")
        part = {sketch.graph.node(movie).extent[0].node_id}
        first, second = sketch.split_node(movie, part)
        raise_on_violations(validate_sketch(sketch))
        assert sketch.extended_at(first) or sketch.extended_at(second)
        for part_id in (first, second):
            for summary in sketch.extended_at(part_id):
                assert summary.value_tag == "type"


class TestOwnValueExtended:
    def test_own_value_predicate(self):
        """H^v on the node's own values absorbs the node's value pred."""
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree, XSketchConfig(engine="exact"))
        year = nid(sketch, "year")
        # year nodes have no children; give the extended summary a count
        # scope anyway via... years are leaves, so extended summaries with
        # own values apply to nodes with children; use movie+year instead
        movie = nid(sketch, "movie")
        summary = sketch.make_extended_summary(
            movie,
            "year",
            (EdgeRef(movie, nid(sketch, "actor")),),
            value_buckets=4,
            count_buckets=6,
        )
        sketch.set_extended(movie, [summary])
        query = parse_for_clause(
            "for m in movie[year < 1990], a in m/actor"
        )
        truth = count_bindings(query, tree)
        estimate = TwigEstimator(sketch).estimate(query)
        assert truth > 0
        assert estimate == pytest.approx(truth, rel=0.6)
        # the independence estimate (no extended stats) is further off
        sketch.extended_stats = {}
        independent = TwigEstimator(sketch).estimate(query)
        assert abs(estimate - truth) <= abs(independent - truth)


class TestValueExpandRefinement:
    def test_apply_installs_summary(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = nid(sketch, "movie")
        scope = (EdgeRef(movie, nid(sketch, "actor")),)
        refined = ValueExpand(movie, "type", scope).apply(sketch)
        assert len(refined.extended_at(movie)) == 1
        assert refined.size_bytes() > sketch.size_bytes()
        assert not sketch.extended_at(movie)  # input untouched

    def test_duplicate_source_rejected(self):
        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = nid(sketch, "movie")
        scope = (EdgeRef(movie, nid(sketch, "actor")),)
        refined = ValueExpand(movie, "type", scope).apply(sketch)
        with pytest.raises(BuildError):
            ValueExpand(movie, "type", scope).apply(refined)

    def test_proposals_skip_nondiscriminative_sources(self):
        from repro.build.sampling import _value_expand_proposals

        tree = generate_imdb(3000, seed=2)
        sketch = TwigXSketch.coarsest(tree)
        movie = nid(sketch, "movie")
        proposals = _value_expand_proposals(sketch, movie)
        tags = {p.value_tag for p in proposals}
        assert "title" not in tags  # titles are near-unique strings
        assert tags & {"type", "year"}
