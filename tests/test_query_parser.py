"""Tests for path / for-clause parsing (repro.query.parser, forclause)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import generate_imdb
from repro.errors import ParseError, QueryError
from repro.query import (
    CHILD,
    DESCENDANT,
    Path,
    Step,
    ValuePredicate,
    parse_for_clause,
    parse_path,
)
from repro.query.ast import TwigNode, TwigQuery
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
        assert "a in author" in text
        assert "p in paper" in text


# ----------------------------------------------------------------------
# Query text: the memoised renderer against the plain recursive one
# ----------------------------------------------------------------------
def reference_step_text(step: Step) -> str:
    parts = [step.tag]
    if step.value_pred is not None:
        parts.append(step.value_pred.text())
    for branch in step.branches:
        parts.append(f"[{reference_path_text(branch)}]")
    return "".join(parts)


def reference_path_text(path: Path) -> str:
    pieces = []
    for index, step in enumerate(path.steps):
        if step.axis == DESCENDANT:
            pieces.append("//")
        elif index > 0:
            pieces.append("/")
        pieces.append(reference_step_text(step))
    return "".join(pieces)


def reference_node_text(node: TwigNode) -> str:
    """Re-renders and re-splits every subtree at each level."""
    lines = [f"{node.var} in {reference_path_text(node.path)}"]
    for child in node.children:
        for line in reference_node_text(child).splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)


#: short strings mixing line boundaries that ``str.splitlines`` splits on
_awkward = st.lists(
    st.sampled_from(
        ["a", "b", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
         "\x85", "\u2028"]
    ),
    max_size=5,
).map("".join)


@st.composite
def _awkward_twigs(draw):
    def step():
        predicate = draw(st.one_of(
            st.none(),
            _awkward.map(lambda value: ValuePredicate("=", value)),
            st.integers(0, 9).map(lambda low: ValuePredicate.between(low, 9)),
        ))
        branches = tuple(
            Path((Step("b" + draw(_awkward)),))
            for _ in range(draw(st.integers(0, 2)))
        )
        axis = draw(st.sampled_from([CHILD, DESCENDANT]))
        return Step("t" + draw(_awkward), axis, predicate, branches)

    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        steps = tuple(step() for _ in range(draw(st.integers(1, 2))))
        node = TwigNode(draw(_awkward) or "v", Path(steps))
        if nodes:
            draw(st.sampled_from(nodes)).add_child(node)
        nodes.append(node)
    return TwigQuery(nodes[0])


class TestQueryText:
    @given(_awkward_twigs())
    def test_matches_the_reference_renderer(self, query):
        expected = reference_node_text(query.root)
        assert query.text() == expected
        assert query.text() == expected  # memoised paths render the same
        for node in query.nodes():
            assert node.path.text() == reference_path_text(node.path)

    def test_line_break_in_a_string_value(self):
        query = parse_for_clause("for m in movie, a in m/actor")
        query.root.children[0].add_child(TwigNode("n", Path((
            Step("name", value_pred=ValuePredicate("=", "Ann\nLee\n")),
        ))))
        query.root.children[0].children[0].add_child(
            TwigNode("x", Path.of("first"))
        )
        text = query.text()
        assert text == reference_node_text(query.root)
        assert text == (
            "m in movie\n  a in actor\n    n in name{=Ann\n    Lee\n"
            "    }\n      x in first"
        )

    @pytest.mark.parametrize("values", [False, True], ids=["P", "P+V"])
    def test_generated_workloads(self, values):
        tree = generate_imdb(1500, seed=2)
        spec = WorkloadSpec(
            seed=11, value_predicates=values, branch_probability=0.6,
            descendant_probability=0.3,
        )
        queries = [
            entry.query
            for entry in WorkloadGenerator(tree, spec)
            .positive_workload(40).queries
        ]
        steps = [step for q in queries for n in q.nodes()
                 for step in n.path.steps]
        assert any(step.branches for step in steps)
        assert any(step.axis == DESCENDANT for step in steps)
        assert any(q.root.children and q.root.children[0].children
                   for q in queries)
        assert values == any(q.has_value_predicates() for q in queries)
        for query in queries:
            assert query.text() == reference_node_text(query.root)

    def test_memo_follows_a_patched_path(self):
        """WorkloadGenerator patches a node by assigning a new Path; the
        node renders the new path, the old Path keeps its own text."""
        query = parse_for_clause("for m in movie, a in m/actor")
        node = query.root.children[0]
        old = node.path
        before = query.text()
        last = old.last
        patched = Step(last.tag, last.axis, ValuePredicate("=", "Lee"),
                       last.branches + (Path.of("name"),))
        node.path = Path(old.steps[:-1] + (patched,))
        assert query.text() == reference_node_text(query.root)
        assert query.text() == "m in movie\n  a in actor{=Lee}[name]"
        assert old.text() == "actor" and before == "m in movie\n  a in actor"
