"""Tests for the graph synopsis: partition, edges, stability, splitting."""

import random
from dataclasses import FrozenInstanceError, astuple

import pytest

from repro.datasets.paperfig import figure1_document, figure4_documents
from repro.doc import build_tree
from repro.errors import SynopsisError
from repro.synopsis import (
    GraphSynopsis,
    label_split_synopsis,
    raise_on_violations,
    validate_graph,
)
from repro.synopsis import graph as graph_module
from repro.synopsis.graph import SynopsisEdge


@pytest.fixture()
def fig1_synopsis():
    return label_split_synopsis(figure1_document())


def node_by_tag(synopsis, tag):
    nodes = synopsis.nodes_with_tag(tag)
    assert len(nodes) == 1
    return nodes[0]


class TestLabelSplit:
    def test_one_node_per_tag(self, fig1_synopsis):
        tree = fig1_synopsis.tree
        assert fig1_synopsis.node_count == len(tree.tags)

    def test_extent_sizes_match_paper(self, fig1_synopsis):
        assert node_by_tag(fig1_synopsis, "author").count == 3
        assert node_by_tag(fig1_synopsis, "paper").count == 4
        assert node_by_tag(fig1_synopsis, "book").count == 2
        assert node_by_tag(fig1_synopsis, "name").count == 3

    def test_partition_invariant(self, fig1_synopsis):
        assert validate_graph(fig1_synopsis) == []
        total = sum(n.count for n in fig1_synopsis.iter_nodes())
        assert total == fig1_synopsis.tree.element_count

    def test_every_document_edge_represented(self, fig1_synopsis):
        for parent, child in fig1_synopsis.tree.iter_edges():
            edge = fig1_synopsis.edge(
                fig1_synopsis.node_of(parent), fig1_synopsis.node_of(child)
            )
            assert edge is not None


class TestStability:
    def test_author_paper_both_stable(self, fig1_synopsis):
        """Paper Figure 3(b): A→P is backward AND forward stable."""
        author = node_by_tag(fig1_synopsis, "author")
        paper = node_by_tag(fig1_synopsis, "paper")
        edge = fig1_synopsis.edge(author.node_id, paper.node_id)
        assert edge.backward_stable
        assert edge.forward_stable

    def test_author_book_backward_only(self, fig1_synopsis):
        """All books have an author parent, but not all authors own books."""
        author = node_by_tag(fig1_synopsis, "author")
        book = node_by_tag(fig1_synopsis, "book")
        edge = fig1_synopsis.edge(author.node_id, book.node_id)
        assert edge.backward_stable
        assert not edge.forward_stable

    def test_title_not_backward_stable_from_paper(self, fig1_synopsis):
        """Titles hang off papers and books, so P→T is not B-stable."""
        paper = node_by_tag(fig1_synopsis, "paper")
        title = node_by_tag(fig1_synopsis, "title")
        edge = fig1_synopsis.edge(paper.node_id, title.node_id)
        assert not edge.backward_stable
        assert edge.forward_stable  # every paper has a title

    def test_counts(self, fig1_synopsis):
        author = node_by_tag(fig1_synopsis, "author")
        book = node_by_tag(fig1_synopsis, "book")
        edge = fig1_synopsis.edge(author.node_id, book.node_id)
        assert edge.child_count == 2  # both books
        assert edge.parent_count == 1  # only one author owns books

    def test_stability_by_brute_force(self, fig1_synopsis):
        synopsis = fig1_synopsis
        for (source, target), edge in synopsis.edges.items():
            source_extent = synopsis.node(source).extent
            target_extent = synopsis.node(target).extent
            brute_b = all(
                element.parent is not None
                and synopsis.node_of(element.parent) == source
                for element in target_extent
            )
            brute_f = all(
                any(synopsis.node_of(child) == target for child in element.children)
                for element in source_extent
            )
            assert edge.backward_stable == brute_b
            assert edge.forward_stable == brute_f


class TestFigure4SameSynopsis:
    def test_label_split_synopses_identical(self):
        doc_a, doc_b = figure4_documents()
        synopsis_a = label_split_synopsis(doc_a)
        synopsis_b = label_split_synopsis(doc_b)
        shape_a = {
            (synopsis_a.node(s).tag, synopsis_a.node(t).tag): (
                e.child_count,
                e.backward_stable,
                e.forward_stable,
            )
            for (s, t), e in synopsis_a.edges.items()
        }
        shape_b = {
            (synopsis_b.node(s).tag, synopsis_b.node(t).tag): (
                e.child_count,
                e.backward_stable,
                e.forward_stable,
            )
            for (s, t), e in synopsis_b.edges.items()
        }
        assert shape_a == shape_b

    def test_all_edges_fully_stable(self):
        doc_a, _ = figure4_documents()
        synopsis = label_split_synopsis(doc_a)
        assert all(
            e.backward_stable and e.forward_stable for e in synopsis.edges.values()
        )


class TestSplitNode:
    def test_split_preserves_partition(self, fig1_synopsis):
        paper = node_by_tag(fig1_synopsis, "paper")
        part = {paper.extent[0].node_id, paper.extent[1].node_id}
        first, second = fig1_synopsis.split_node(paper.node_id, part)
        assert validate_graph(fig1_synopsis) == []
        assert fig1_synopsis.node(first).count == 2
        assert fig1_synopsis.node(second).count == 2
        assert len(fig1_synopsis.nodes_with_tag("paper")) == 2

    def test_split_updates_edges(self, fig1_synopsis):
        author = node_by_tag(fig1_synopsis, "author")
        paper = node_by_tag(fig1_synopsis, "paper")
        part = {paper.extent[0].node_id}
        first, second = fig1_synopsis.split_node(paper.node_id, part)
        edge_first = fig1_synopsis.edge(author.node_id, first)
        edge_second = fig1_synopsis.edge(author.node_id, second)
        assert edge_first.child_count == 1
        assert edge_second.child_count == 3
        assert edge_first.backward_stable and edge_second.backward_stable

    def test_split_rejects_improper_subsets(self, fig1_synopsis):
        paper = node_by_tag(fig1_synopsis, "paper")
        with pytest.raises(SynopsisError):
            fig1_synopsis.split_node(paper.node_id, set())
        with pytest.raises(SynopsisError):
            fig1_synopsis.split_node(
                paper.node_id, {e.node_id for e in paper.extent}
            )

    def test_split_then_downstream_edges_correct(self, fig1_synopsis):
        # Split papers into {p5} vs rest; keyword edge counts must follow.
        paper = node_by_tag(fig1_synopsis, "paper")
        keyword = node_by_tag(fig1_synopsis, "keyword")
        p5 = next(
            e for e in paper.extent if e.child_count("keyword") == 2
        )
        first, second = fig1_synopsis.split_node(paper.node_id, {p5.node_id})
        assert fig1_synopsis.edge(first, keyword.node_id).child_count == 2
        assert fig1_synopsis.edge(second, keyword.node_id).child_count == 3

    def test_recursive_split_drops_the_old_self_loop(self):
        """a(b(b), b): the label-split ``b -> b`` self-loop belongs to the
        old node; after the split only the parts' edges remain."""
        tree = build_tree(("a", [("b", ["b"]), "b"]))
        synopsis = label_split_synopsis(tree)
        a = node_by_tag(synopsis, "a").node_id
        b = node_by_tag(synopsis, "b")
        first, second = synopsis.split_node(b.node_id, {b.extent[0].node_id})
        counts = {
            key: (edge.child_count, edge.parent_count)
            for key, edge in synopsis.edges.items()
        }
        assert counts == {
            (a, first): (1, 1),
            (a, second): (1, 1),
            (first, second): (1, 1),
        }
        assert all(b.node_id not in key for key in synopsis.edges)
        assert validate_graph(synopsis) == []


class TestValidate:
    def test_rejects_edge_to_missing_node(self, fig1_synopsis):
        edge = next(iter(fig1_synopsis.edges.values()))
        fig1_synopsis.edges[(edge.source, 999)] = SynopsisEdge(
            edge.source, 999, 1, 1, edge.source_size, 1
        )
        with pytest.raises(SynopsisError, match="missing node"):
            raise_on_violations(validate_graph(fig1_synopsis))


class TestFromPartition:
    def test_extents_kept_in_document_order(self):
        tree = build_tree(("a", ["b", "b", "b"]))
        bs = tree.extent("b")
        synopsis = GraphSynopsis.from_partition(
            tree, [[tree.root], list(reversed(bs))]
        )
        assert node_by_tag(synopsis, "b").extent == bs

    def test_missing_elements_rejected(self):
        tree = build_tree(("a", ["b", "b"]))
        with pytest.raises(SynopsisError):
            GraphSynopsis.from_partition(tree, [[tree.root]])

    def test_mixed_tags_rejected(self):
        tree = build_tree(("a", ["b"]))
        with pytest.raises(SynopsisError):
            GraphSynopsis.from_partition(tree, [list(tree.nodes())])

    def test_double_assignment_rejected(self):
        tree = build_tree(("a", ["b"]))
        b = tree.extent("b")
        with pytest.raises(SynopsisError):
            GraphSynopsis.from_partition(tree, [[tree.root], b, b])

    def test_finer_partition_valid(self):
        tree = build_tree(("a", ["b", "b", "b"]))
        bs = tree.extent("b")
        synopsis = GraphSynopsis.from_partition(
            tree, [[tree.root], bs[:1], bs[1:]]
        )
        assert validate_graph(synopsis) == []
        assert synopsis.node_count == 3


class TestCopy:
    def test_copy_is_independent(self, fig1_synopsis):
        nodes = dict(fig1_synopsis.nodes)
        extents = {key: list(node.extent) for key, node in nodes.items()}
        edges = {key: astuple(edge) for key, edge in fig1_synopsis.edges.items()}
        records = dict(fig1_synopsis.edges)
        duplicate = fig1_synopsis.copy()
        paper = node_by_tag(duplicate, "paper")
        duplicate.split_node(paper.node_id, {paper.extent[0].node_id})
        assert len(fig1_synopsis.nodes_with_tag("paper")) == 1
        assert len(duplicate.nodes_with_tag("paper")) == 2
        assert validate_graph(fig1_synopsis) == []
        assert validate_graph(duplicate) == []
        assert fig1_synopsis.nodes.keys() == nodes.keys()
        assert all(fig1_synopsis.nodes[key] is node for key, node in nodes.items())
        assert {
            key: node.extent for key, node in fig1_synopsis.nodes.items()
        } == extents
        assert {
            key: astuple(edge) for key, edge in fig1_synopsis.edges.items()
        } == edges
        assert list(fig1_synopsis.edges) == list(edges)
        assert all(
            fig1_synopsis.edges[key] is edge for key, edge in records.items()
        )

    def test_copy_shares_edge_records(self, fig1_synopsis, monkeypatch):
        built = []

        class CountingEdge(SynopsisEdge):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(graph_module, "SynopsisEdge", CountingEdge)
        duplicate = fig1_synopsis.copy()
        assert built == []
        assert list(duplicate.edges) == list(fig1_synopsis.edges)
        assert all(
            duplicate.edges[key] is edge
            for key, edge in fig1_synopsis.edges.items()
        )
        paper = node_by_tag(duplicate, "paper")
        duplicate.split_node(paper.node_id, {paper.extent[0].node_id})
        assert built  # the counter sees the edges a split does build

    def test_edges_are_immutable(self, fig1_synopsis):
        edge = next(iter(fig1_synopsis.edges.values()))
        for name, value in [
            ("child_count", edge.child_count + 1),
            ("parent_count", 0),
            ("target_size", 1),
        ]:
            with pytest.raises(FrozenInstanceError):
                setattr(edge, name, value)

    def test_reads_are_in_canonical_order(self, fig1_synopsis):
        """Nodes by id, each node's children by target id and parents by
        source id, edges by (source, target), whatever order ``nodes``
        and ``edges`` hold them in; split parts take the two largest
        ids."""
        graph = fig1_synopsis.copy()
        for tag in ("paper", "author", "paper"):
            node = graph.nodes_with_tag(tag)[-1]
            parts = graph.split_node(node.node_id, {node.extent[0].node_id})
            assert parts == (graph._next_id - 2, graph._next_id - 1)
            assert max(graph.nodes) == parts[1]
        shuffled = graph.copy()
        rng = random.Random(3)
        node_ids, keys = list(graph.nodes), list(graph.edges)
        rng.shuffle(node_ids)
        rng.shuffle(keys)
        shuffled.nodes = {node_id: graph.nodes[node_id] for node_id in node_ids}
        shuffled.edges = {key: graph.edges[key] for key in keys}
        shuffled._adjacency = None
        for read in (graph, shuffled):
            assert [n.node_id for n in read.iter_nodes()] == sorted(graph.nodes)
            assert [
                (e.source, e.target) for e in read.iter_edges()
            ] == sorted(graph.edges)
            for node_id, node in graph.nodes.items():
                assert [e.target for e in read.children_of(node_id)] == sorted(
                    target for source, target in graph.edges
                    if source == node_id
                )
                assert [e.source for e in read.parents_of(node_id)] == sorted(
                    source for source, target in graph.edges
                    if target == node_id
                )
                assert [
                    n.node_id for n in read.nodes_with_tag(node.tag)
                ] == sorted(
                    other for other, n in graph.nodes.items()
                    if n.tag == node.tag
                )

    def test_ancestor_in(self, fig1_synopsis):
        author = node_by_tag(fig1_synopsis, "author")
        keyword = node_by_tag(fig1_synopsis, "keyword")
        element = keyword.extent[0]
        ancestor = fig1_synopsis.ancestor_in(element, author.node_id)
        assert ancestor is not None and ancestor.tag == "author"
        assert fig1_synopsis.ancestor_in(element, keyword.node_id) is None
