"""Tests for the synopsis invariant checker (repro.synopsis.validate)."""

import pytest

from repro.build import XBuild, xbuild
from repro.datasets import (
    figure1_document,
    generate_imdb,
    generate_xmark,
    movie_document,
)
from repro.errors import SynopsisIntegrityError
from repro.synopsis import (
    TwigXSketch,
    error_violations,
    label_split_synopsis,
    raise_on_violations,
    sketch_from_dict,
    sketch_to_dict,
    validate_graph,
    validate_sketch,
)
from repro.synopsis.graph import SynopsisEdge
from repro.synopsis.validate import Violation


@pytest.fixture(scope="module")
def built_sketch():
    tree = generate_imdb(2000, seed=2)
    return xbuild(tree, budget_bytes=3 * 1024, seed=3)


def _frozen(sketch):
    """An independent loaded copy whose graph objects are mutable."""
    return sketch_from_dict(sketch_to_dict(sketch))


def _codes(violations):
    return {violation.code for violation in violations}


class TestHealthySketches:
    def test_built_sketch_clean(self, built_sketch):
        assert validate_sketch(built_sketch) == []

    def test_coarsest_sketch_clean(self):
        assert validate_sketch(TwigXSketch.coarsest(movie_document())) == []

    def test_loaded_sketch_clean(self, built_sketch):
        assert validate_sketch(_frozen(built_sketch)) == []

    def test_raise_on_violations_accepts_clean(self, built_sketch):
        raise_on_violations(validate_sketch(built_sketch))


class TestNodeInvariants:
    def test_negative_count(self, built_sketch):
        loaded = _frozen(built_sketch)
        node = next(iter(loaded.graph.nodes.values()))
        node.count = -3
        violations = validate_sketch(loaded)
        assert "node-count" in _codes(violations)
        assert any(f"nodes[{node.node_id}]" in v.path for v in violations)

    def test_non_finite_count(self, built_sketch):
        loaded = _frozen(built_sketch)
        next(iter(loaded.graph.nodes.values())).count = float("nan")
        assert "node-count" in _codes(validate_sketch(loaded))

    def test_empty_tag(self, built_sketch):
        loaded = _frozen(built_sketch)
        next(iter(loaded.graph.nodes.values())).tag = ""
        assert "node-tag" in _codes(validate_sketch(loaded))


class TestEdgeInvariants:
    def test_child_count_exceeds_target(self, built_sketch):
        loaded = _frozen(built_sketch)
        edge = next(iter(loaded.graph.edges.values()))
        edge.child_count = loaded.graph.nodes[edge.target].count + 7
        assert "edge-count-range" in _codes(validate_sketch(loaded))

    def test_parent_count_exceeds_child_count(self, built_sketch):
        loaded = _frozen(built_sketch)
        edge = next(iter(loaded.graph.edges.values()))
        edge.parent_count = edge.child_count + 1
        codes = _codes(validate_sketch(loaded))
        assert "edge-count-order" in codes or "edge-count-range" in codes

    def test_stale_cached_size_flags_stability(self, built_sketch):
        loaded = _frozen(built_sketch)
        edge = next(iter(loaded.graph.edges.values()))
        edge.target_size = edge.target_size + 100
        assert "edge-size-stale" in _codes(validate_sketch(loaded))

    def test_zero_witness_edge(self, built_sketch):
        loaded = _frozen(built_sketch)
        edge = next(iter(loaded.graph.edges.values()))
        edge.child_count = 0
        edge.parent_count = 0
        assert "edge-witness" in _codes(validate_sketch(loaded))

    def test_partition_deficit(self, built_sketch):
        loaded = _frozen(built_sketch)
        # Shrinking one incoming child count breaks the "every non-root
        # element has exactly one parent" accounting.
        edge = max(
            loaded.graph.edges.values(), key=lambda e: e.child_count
        )
        edge.child_count -= 1
        edge.parent_count = min(edge.parent_count, edge.child_count)
        assert "tree-partition" in _codes(validate_sketch(loaded))


class TestExtentInvariants:
    """Checks that need the partition itself, so only a graph that keeps
    its extents (not a loaded one) gets them."""

    @pytest.fixture()
    def graph(self):
        return label_split_synopsis(figure1_document())

    def test_label_split_graph_clean(self, graph):
        assert validate_graph(graph) == []

    def test_extent_out_of_document_order(self, graph):
        node = next(n for n in graph.iter_nodes() if n.count > 1)
        node.extent.reverse()
        assert "extent-order" in _codes(validate_graph(graph))

    def test_assignment_disagrees_with_extent(self, graph):
        first, second = list(graph.nodes)[:2]
        element = graph.nodes[first].extent[0]
        graph.assignment[element.node_id] = second
        assert "extent-assignment" in _codes(validate_graph(graph))

    def test_element_of_another_tag(self, graph):
        node = next(n for n in graph.iter_nodes() if n.count > 1)
        node.tag = "stranger"
        assert "extent-tag" in _codes(validate_graph(graph))

    def test_extents_miss_an_element(self, graph):
        node = next(n for n in graph.iter_nodes() if n.count > 1)
        node.extent.pop()
        assert "extent-cover" in _codes(validate_graph(graph))

    def test_root_deficit_moved_to_another_node(self, graph):
        # Take one child count from an edge and give the root's node an
        # incoming edge instead: the deficits still sum to 1, but the
        # node with deficit 1 no longer holds the document root.
        root = graph.node_of(graph.tree.root)
        edge = next(
            e for e in graph.edges.values()
            if e.parent_count < e.child_count and e.target != root
        )
        edge.child_count -= 1
        graph.edges[(edge.source, root)] = SynopsisEdge(
            edge.source, root, 1, 1,
            graph.nodes[edge.source].count, graph.nodes[root].count,
        )
        assert _codes(validate_graph(graph)) == {"extent-root"}


class TestBuildsStayValid:
    @pytest.mark.parametrize("generate", [generate_imdb, generate_xmark])
    @pytest.mark.parametrize("value_probability", [0.0, 0.3])
    def test_every_sketch_a_build_reaches_is_clean(
        self, generate, value_probability
    ):
        tree = generate(3000, seed=4)
        budget = TwigXSketch.coarsest(tree).size_bytes() + 4096
        failures = []

        def check(sketch):
            errors = error_violations(validate_sketch(sketch))
            if errors:
                failures.append((sketch.size_bytes(), errors))

        result = XBuild(
            tree, budget, seed=7,
            sample_value_probability=value_probability,
            on_step=check,
        ).run()
        assert result.steps
        assert failures == []


class TestHistogramInvariants:
    def test_scope_referencing_missing_edge(self, built_sketch):
        loaded = _frozen(built_sketch)
        node_id, histograms = next(iter(loaded.edge_stats.items()))
        key = (histograms[0].scope[0].source, histograms[0].scope[0].target)
        del loaded.graph.edges[key]
        codes = _codes(validate_sketch(loaded))
        assert "histogram-scope" in codes

    def test_mass_exceeding_unit(self, built_sketch):
        loaded = _frozen(built_sketch)
        histogram = next(iter(loaded.edge_stats.values()))[0]
        histogram.engine._points = [
            (vector, mass * 10)
            for vector, mass in histogram.engine._points
        ]
        codes = _codes(validate_sketch(loaded))
        assert "histogram-mass" in codes

    def test_mean_inconsistent_with_edge_total(self, built_sketch):
        loaded = _frozen(built_sketch)
        histogram = next(iter(loaded.edge_stats.values()))[0]
        histogram.engine._points = [
            (tuple(c + 5 for c in vector), mass)
            for vector, mass in histogram.engine._points
        ]
        assert "histogram-edge-total" in _codes(validate_sketch(loaded))

    def test_stats_for_dead_node(self, built_sketch):
        loaded = _frozen(built_sketch)
        loaded.value_stats[99_999] = next(iter(loaded.value_stats.values()))
        assert "histogram-node" in _codes(validate_sketch(loaded))


class TestRaising:
    def test_raise_on_violations_is_typed(self, built_sketch):
        loaded = _frozen(built_sketch)
        next(iter(loaded.graph.nodes.values())).count = -1
        with pytest.raises(SynopsisIntegrityError) as excinfo:
            raise_on_violations(validate_sketch(loaded))
        assert excinfo.value.path

    def test_error_violations_filters_warnings(self):
        mixed = [
            Violation("a", "x", "m", severity="error"),
            Violation("b", "y", "m", severity="warning"),
        ]
        assert [v.code for v in error_violations(mixed)] == ["a"]
