"""Tests for path / for-clause parsing (repro.query.parser, forclause),
the structural query key, and query text that parses back to it."""

import copy
import functools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build import RegionSampler
from repro.datasets import generate_imdb, generate_sprot, generate_xmark
from repro.errors import ParseError, QueryError
from repro.estimation.embeddings import maximal_twigs
from repro.query import (
    CHILD,
    DESCENDANT,
    Path,
    Step,
    ValuePredicate,
    parse_for_clause,
    parse_path,
)
from repro.query.ast import TwigNode, TwigQuery, twig
from repro.query.parser import _NAME_BODY, _NAME_START
from repro.synopsis import TwigXSketch
from repro.workload import WorkloadGenerator, WorkloadSpec


class TestParsePath:
    def test_simple_chain(self):
        path = parse_path("author/paper/title")
        assert path.tags() == ("author", "paper", "title")
        assert all(step.axis == CHILD for step in path.steps)

    def test_leading_slash_is_child(self):
        path = parse_path("/author/name")
        assert path.tags() == ("author", "name")
        assert path.steps[0].axis == CHILD

    def test_descendant_axis(self):
        path = parse_path("//keyword")
        assert path.steps[0].axis == DESCENDANT

    def test_mixed_axes(self):
        path = parse_path("site//item/name")
        assert [s.axis for s in path.steps] == [CHILD, DESCENDANT, CHILD]

    def test_value_predicate_gt(self):
        path = parse_path("year{>2000}")
        pred = path.steps[0].value_pred
        assert pred == ValuePredicate(">", 2000)

    def test_value_predicate_equality_default(self):
        path = parse_path("type{Action}")
        assert path.steps[0].value_pred == ValuePredicate("=", "Action")

    def test_value_predicate_quoted(self):
        path = parse_path('type{="Action Movie"}')
        assert path.steps[0].value_pred == ValuePredicate("=", "Action Movie")

    def test_range_predicate(self):
        path = parse_path("year{1990..1999}")
        assert path.steps[0].value_pred == ValuePredicate("range", 1990, 1999)

    def test_branch_predicate(self):
        path = parse_path("paper[year{>2000}]/title")
        paper = path.steps[0]
        assert len(paper.branches) == 1
        branch = paper.branches[0]
        assert branch.tags() == ("year",)
        assert branch.steps[0].value_pred == ValuePredicate(">", 2000)

    def test_xpath_sugar_comparison_in_branch(self):
        path = parse_path("paper[year > 2000]")
        branch = path.steps[0].branches[0]
        assert branch.steps[0].value_pred == ValuePredicate(">", 2000)

    def test_xpath_sugar_with_leading_slash(self):
        path = parse_path('movie[/type = "Action"]')
        branch = path.steps[0].branches[0]
        assert branch.tags() == ("type",)
        assert branch.steps[0].value_pred == ValuePredicate("=", "Action")

    def test_multi_step_branch(self):
        path = parse_path("author[paper/keyword]")
        branch = path.steps[0].branches[0]
        assert branch.tags() == ("paper", "keyword")

    def test_nested_branch(self):
        path = parse_path("author[paper[year{>2000}]]")
        outer = path.steps[0].branches[0]
        inner = outer.steps[0].branches[0]
        assert inner.tags() == ("year",)

    def test_multiple_branches(self):
        path = parse_path("paper[title][keyword]")
        assert len(path.steps[0].branches) == 2

    def test_descendant_branch(self):
        path = parse_path("site[//keyword]")
        branch = path.steps[0].branches[0]
        assert branch.steps[0].axis == DESCENDANT

    def test_attribute_and_text_names(self):
        path = parse_path("item/@id")
        assert path.tags() == ("item", "@id")

    @pytest.mark.parametrize(
        "bad",
        ["", "/", "a//", "a[", "a{", "a{>}", "a]b", "a{1..}", "a b c"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_path(bad)

    def test_round_trip_text(self):
        for text in [
            "author/paper/title",
            "//keyword",
            "paper[year{>2000}]/title",
            "year{1990..1999}",
            "a[b/c][d]",
        ]:
            path = parse_path(text)
            assert parse_path(path.text()).text() == path.text()


class TestValuePredicate:
    def test_matching_numeric(self):
        assert ValuePredicate(">", 2000).matches(2001)
        assert not ValuePredicate(">", 2000).matches(2000)
        assert ValuePredicate("range", 10, 20).matches(10)
        assert ValuePredicate("range", 10, 20).matches(20)
        assert not ValuePredicate("range", 10, 20).matches(21)

    def test_matching_string(self):
        assert ValuePredicate("=", "Action").matches("Action")
        assert ValuePredicate("!=", "Action").matches("Drama")

    def test_type_mismatch_is_nonmatch(self):
        assert not ValuePredicate(">", 2000).matches("late")
        assert not ValuePredicate("=", "Action").matches(3)

    def test_none_never_matches(self):
        assert not ValuePredicate("=", 1).matches(None)

    def test_bad_operator_rejected(self):
        with pytest.raises(QueryError):
            ValuePredicate("~", 1)

    def test_range_requires_high(self):
        with pytest.raises(QueryError):
            ValuePredicate("range", 1)

    def test_single_bound_rejects_high(self):
        with pytest.raises(QueryError):
            ValuePredicate("=", 1, 2)


class TestForClause:
    def test_paper_intro_query(self):
        query = parse_for_clause(
            """
            for t0 in //movie[/type = "Action"],
                t1 in t0/actor,
                t2 in t0/producer
            return t1, t2
            """
        )
        nodes = query.nodes()
        assert [n.var for n in nodes] == ["t0", "t1", "t2"]
        assert nodes[0].path.steps[0].axis == DESCENDANT
        assert len(query.root.children) == 2

    def test_nested_variables(self):
        query = parse_for_clause(
            "for a in author, p in a/paper, k in p/keyword"
        )
        assert query.root.var == "a"
        assert query.root.children[0].var == "p"
        assert query.root.children[0].children[0].var == "k"

    def test_descendant_from_variable(self):
        query = parse_for_clause("for a in author, k in a//keyword")
        k = query.root.children[0]
        assert k.path.steps[0].axis == DESCENDANT

    def test_dollar_variables(self):
        query = parse_for_clause("for $a in author, $n in $a/name")
        assert query.root.var == "a"
        assert query.root.children[0].var == "n"

    def test_unknown_parent_rejected(self):
        with pytest.raises(ParseError):
            parse_for_clause("for a in author, n in b/name")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_for_clause("for a in author, a in a/name")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_for_clause("for ")


class TestTwigQueryModel:
    def test_structural_node_count_counts_steps(self):
        query = parse_for_clause("for a in author, k in a/paper/keyword")
        assert query.size == 2
        assert query.structural_node_count() == 3

    def test_has_value_predicates(self):
        plain = parse_for_clause("for a in author, p in a/paper")
        valued = parse_for_clause("for a in author, p in a/paper[year > 2000]")
        assert not plain.has_value_predicates()
        assert valued.has_value_predicates()

    def test_internal_fanouts(self):
        query = parse_for_clause(
            "for a in author, n in a/name, p in a/paper, k in p/keyword"
        )
        assert sorted(query.internal_fanouts()) == [1, 2]

    def test_text_rendering_parses_back(self):
        query = parse_for_clause("for a in author, p in a/paper, n in a/name")
        text = query.text()
        assert text == "a in author, p in a/paper, n in a/name"
        assert parse_for_clause(text).key == query.key


# ----------------------------------------------------------------------
# Query identity: the key, and text that parses back to it
# ----------------------------------------------------------------------
def assert_parses_back(query: TwigQuery) -> None:
    """The query's text parses to a query with an equal key, the same
    variables and the same text."""
    text = query.text()
    parsed = parse_for_clause(text)
    assert parsed.key == query.key, text
    assert [n.var for n in parsed.nodes()] == [n.var for n in query.nodes()]
    assert parsed.text() == text


GENERATORS = {
    "imdb": generate_imdb,
    "xmark": generate_xmark,
    "sprot": generate_sprot,
}
datasets = st.sampled_from(sorted(GENERATORS))
seeds = st.integers(0, 2**16)


@functools.lru_cache(maxsize=None)
def document(name):
    return GENERATORS[name](1500, seed=3)


@functools.lru_cache(maxsize=None)
def coarsest(name):
    return TwigXSketch.coarsest(document(name))


def workload(name, kind, seed, count=8):
    spec = WorkloadSpec(
        seed=seed, value_predicates=kind != "P", branch_probability=0.4,
        descendant_probability=0.2,
    )
    generator = WorkloadGenerator(document(name), spec)
    if kind == "negative":
        return generator.negative_workload(count).queries
    return generator.positive_workload(count).queries


#: tags the parser reads: a name-start character, then name characters
_names = st.builds(
    str.__add__,
    st.sampled_from(sorted(_NAME_START)),
    st.text(alphabet=sorted(_NAME_BODY), max_size=4),
)
#: short strings with line breaks, spaces, separators and at most one
#: kind of quote
_strings = st.sampled_from(['"', "'"]).flatmap(
    lambda quote: st.lists(
        st.sampled_from(
            ["a", "1", ".", " ", "\n", "\r\n", "\u2028", ",", "]", "}",
             "{", "..", "return", quote]
        ),
        max_size=5,
    ).map("".join)
)
_numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, width=32),
)


@st.composite
def _bounds(draw):
    if draw(st.booleans()):
        return draw(_strings), draw(_strings)
    return draw(_numbers), draw(_numbers)


@st.composite
def _awkward_twigs(draw):
    def step(depth):
        low, high = draw(_bounds())
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        predicate = draw(st.sampled_from([
            None, ValuePredicate(op, low), ValuePredicate.between(low, high),
        ]))
        branches = tuple(
            Path(tuple(step(depth + 1)
                       for _ in range(draw(st.integers(1, 2)))))
            for _ in range(draw(st.integers(0, 2 - depth)))
        )
        axis = draw(st.sampled_from([CHILD, DESCENDANT]))
        return Step(draw(_names), axis, predicate, branches)

    nodes = []
    for index in range(draw(st.integers(1, 6))):
        steps = tuple(step(0) for _ in range(draw(st.integers(1, 2))))
        var = draw(st.sampled_from(["t", "v_", "x"])) + str(index)
        node = TwigNode(var, Path(steps))
        if nodes:
            draw(st.sampled_from(nodes)).add_child(node)
        nodes.append(node)
    return TwigQuery(nodes[0])


class TestQueryText:
    @given(_awkward_twigs())
    def test_awkward_twigs_parse_back(self, query):
        assert_parses_back(query)

    @pytest.mark.parametrize("kind", ["P", "P+V", "negative"])
    @given(name=datasets, seed=seeds)
    def test_generated_workloads(self, kind, name, seed):
        for entry in workload(name, kind, seed):
            assert_parses_back(entry.query)

    @given(name=datasets, seed=seeds, values=st.sampled_from([0.0, 1.0]))
    def test_region_sampler_queries(self, name, seed, values):
        rng = random.Random(seed)
        sketch = coarsest(name)
        regions = rng.sample(sorted(sketch.graph.nodes), 3)
        sampler = RegionSampler(document(name), rng, value_probability=values)
        for query in sampler.sample_for_regions(sketch, regions, queries=8):
            assert_parses_back(query)

    @given(name=datasets, seed=seeds)
    def test_maximal_twigs(self, name, seed):
        for entry in workload(name, "P+V", seed, count=2):
            for maximal in maximal_twigs(entry.query, coarsest(name).graph):
                assert_parses_back(maximal)

    def test_line_break_in_a_string_value(self):
        query = twig(Path.of("movie"), Path((
            Step("name", value_pred=ValuePredicate("=", "Ann\nLee, 'jr'\n")),
        )))
        assert query.text() == (
            "t0 in movie, t1 in t0/name{=\"Ann\nLee, 'jr'\n\"}"
        )
        assert_parses_back(query)

    def test_quotes_follow_the_value(self):
        assert ValuePredicate("=", 'say "hi"').text() == """{='say "hi"'}"""
        assert ValuePredicate("!=", "it's").text() == """{!="it's"}"""
        assert ValuePredicate.between("a", "b").text() == '{"a".."b"}'

    def test_return_inside_a_string_is_a_value(self):
        query = parse_for_clause(
            'for m in movie, t in m/title{="the return of"} return t'
        )
        assert query.root.children[0].path.last.value_pred == (
            ValuePredicate("=", "the return of")
        )


class TestQueryKey:
    """Bounds keep their type: ``1990``, ``1990.0`` and ``"1990"`` are
    three queries, and each one's text parses back to it."""

    BOUNDS = [1990, 1990.0, "1990"]

    def test_a_bound_type_makes_a_different_key(self):
        queries = [
            twig(Path((Step("movie"), Step("year", value_pred=
                                            ValuePredicate("=", bound)))))
            for bound in self.BOUNDS
        ]
        assert len({q.key for q in queries}) == 3
        assert [q.text() for q in queries] == [
            "t0 in movie/year{=1990}",
            "t0 in movie/year{=1990.0}",
            't0 in movie/year{="1990"}',
        ]
        for query in queries:
            assert_parses_back(query)

    def test_variable_names_are_not_part_of_the_key(self):
        first = parse_for_clause("for a in author, p in a/paper")
        second = parse_for_clause("for x in author, y in x/paper")
        assert first.key == second.key
        assert first.text() != second.text()

    def test_child_order_is_part_of_the_key(self):
        first = parse_for_clause("for a in author, p in a/paper, n in a/name")
        second = parse_for_clause("for a in author, n in a/name, p in a/paper")
        assert first.key != second.key

    def test_float_bounds_parse(self):
        assert parse_path("year{>=2.5}").last.value_pred == ValuePredicate(
            ">=", 2.5
        )
        assert parse_path("year{1.5..2.5}").last.value_pred == (
            ValuePredicate.between(1.5, 2.5)
        )
        assert parse_path("year{-1e-05..3}").last.value_pred == (
            ValuePredicate.between(-1e-05, 3)
        )


class TestFrozenTree:
    """A built query's tree refuses changes, so its key stays its
    identity."""

    def built(self):
        root = TwigNode("a", Path((Step("author"),)))
        root.add_child(TwigNode("p", Path((Step("paper"),))))
        return TwigQuery(root)

    def test_adding_a_child_after_construction_raises(self):
        query = self.built()
        key, text = query.key, query.text()
        with pytest.raises(QueryError):
            query.root.add_child(TwigNode("n", Path((Step("name"),))))
        with pytest.raises(QueryError):
            query.root.children[0].add_child(TwigNode("k", Path.of("keyword")))
        with pytest.raises(AttributeError):
            query.root.children.append(TwigNode("n", Path.of("name")))
        assert (query.key, query.text()) == (key, text)

    def test_editing_a_node_after_construction_raises(self):
        query = self.built()
        leaf = query.root.children[0]
        with pytest.raises(QueryError):
            leaf.path = Path.of("name")
        with pytest.raises(QueryError):
            leaf.var = "q"
        assert query.text() == "a in author, p in a/paper"

    def test_a_built_node_cannot_join_another_tree(self):
        query = self.built()
        draft = TwigNode("r", Path.of("root"))
        with pytest.raises(QueryError):
            draft.add_child(query.root)
        with pytest.raises(QueryError):
            draft.add_child(query.root.children[0])
        assert draft.children == []

    def test_a_built_query_pickles_and_copies_frozen(self):
        query = self.built()
        for clone in (pickle.loads(pickle.dumps(query)), copy.deepcopy(query)):
            assert (clone.key, clone.text()) == (query.key, query.text())
            with pytest.raises(QueryError):
                clone.root.add_child(TwigNode("n", Path.of("name")))
        draft = TwigNode("a", Path.of("author"))
        copied = pickle.loads(pickle.dumps(draft))
        copied.add_child(TwigNode("p", Path.of("paper")))
        assert TwigQuery(copied).text() == "a in author, p in a/paper"

    def test_a_draft_stays_editable_until_built(self):
        root = TwigNode("a", Path.of("author"))
        child = root.add_child(TwigNode("p", Path.of("paper")))
        child.path = Path.of("book")
        with pytest.raises(QueryError):
            TwigNode("x", Path.of("x")).add_child(child)  # one parent only
        assert TwigQuery(root).text() == "a in author, p in a/book"
