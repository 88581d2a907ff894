"""Tests for synopsis persistence (repro.synopsis.persist)."""

import json
import random

import pytest

from repro.build import ValueExpand, generate_candidates, xbuild
from repro.build.refinements import ALL_REFINEMENTS
from repro.datasets import figure1_document, generate_imdb, movie_document
from repro.errors import BuildError, SynopsisError, SynopsisIntegrityError
from repro.estimation import PathEstimator, TwigEstimator
from repro.query import parse_for_clause, parse_path, twig
from repro.synopsis import (
    FORMAT_VERSION,
    EdgeRef,
    TwigXSketch,
    XSketchConfig,
    load_sketch,
    payload_digest,
    save_sketch,
    sketch_from_dict,
    sketch_to_dict,
    validate_sketch,
)


@pytest.fixture(scope="module")
def built_sketch():
    tree = generate_imdb(3000, seed=2)
    sketch = xbuild(tree, budget_bytes=3 * 1024, seed=3)
    # include an extended summary so every stat kind round-trips
    movie = sketch.graph.nodes_with_tag("movie")[0].node_id
    actor_nodes = [
        e.target
        for e in sketch.graph.children_of(movie)
        if sketch.graph.node(e.target).tag == "actor"
    ]
    if actor_nodes:
        sketch = ValueExpand(
            movie, "type", (EdgeRef(movie, actor_nodes[0]),)
        ).apply(sketch)
    return sketch


class TestRoundTrip:
    def test_json_serializable(self, built_sketch):
        payload = sketch_to_dict(built_sketch)
        text = json.dumps(payload)
        assert sketch_from_dict(json.loads(text)).graph.node_count == (
            built_sketch.graph.node_count
        )

    def test_graph_preserved(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        assert loaded.graph.node_count == built_sketch.graph.node_count
        assert loaded.graph.edge_count == built_sketch.graph.edge_count
        for node in built_sketch.graph.iter_nodes():
            frozen = loaded.graph.node(node.node_id)
            assert frozen.tag == node.tag
            assert frozen.count == node.count
        for key, edge in built_sketch.graph.edges.items():
            frozen_edge = loaded.graph.edge(*key)
            assert frozen_edge.child_count == edge.child_count
            assert frozen_edge.backward_stable == edge.backward_stable
            assert frozen_edge.forward_stable == edge.forward_stable

    def test_size_accounting_preserved(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        assert loaded.size_bytes() == built_sketch.size_bytes()

    def test_estimates_identical(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        queries = [
            parse_for_clause("for m in movie, a in m/actor, k in m/keyword"),
            parse_for_clause(
                'for m in movie[/type = "Action"], a in m/actor'
            ),
            twig(parse_path("movie[narrator]")),
            twig(parse_path("series/episode/movie")),
            parse_for_clause("for m in movie[year > 1990], a in m/actor"),
        ]
        original = TwigEstimator(built_sketch)
        reloaded = TwigEstimator(loaded)
        for query in queries:
            assert reloaded.estimate(query) == pytest.approx(
                original.estimate(query)
            )

    def test_path_estimator_works_on_loaded(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        path = parse_path("movie/actor")
        assert PathEstimator(loaded).estimate(path) == pytest.approx(
            PathEstimator(built_sketch).estimate(path)
        )


class TestFiles:
    def test_save_and_load(self, built_sketch, tmp_path):
        path = tmp_path / "synopsis.json"
        save_sketch(built_sketch, path)
        loaded = load_sketch(path)
        assert loaded.size_bytes() == built_sketch.size_bytes()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SynopsisError):
            load_sketch(tmp_path / "nope.json")

    def test_load_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf8")
        with pytest.raises(SynopsisError):
            load_sketch(path)

    def test_version_check(self, built_sketch):
        payload = sketch_to_dict(built_sketch)
        payload["version"] = 999
        with pytest.raises(SynopsisError):
            sketch_from_dict(payload)


class TestIntegrity:
    def test_payload_carries_digest_and_version(self, built_sketch):
        payload = sketch_to_dict(built_sketch)
        assert payload["version"] == FORMAT_VERSION
        assert payload["digest"] == payload_digest(payload)

    def test_digest_stable_across_json_round_trip(self, built_sketch):
        payload = sketch_to_dict(built_sketch)
        reloaded = json.loads(json.dumps(payload))
        assert payload_digest(reloaded) == payload["digest"]

    def test_strict_round_trip_clean(self, built_sketch, tmp_path):
        path = tmp_path / "synopsis.json"
        save_sketch(built_sketch, path)
        loaded = load_sketch(path, strict=True)
        assert validate_sketch(loaded) == []
        assert sketch_to_dict(loaded)["digest"] == (
            sketch_to_dict(built_sketch)["digest"]
        )

    def test_tampered_content_raises_integrity_error(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["nodes"][0]["count"] += 1
        with pytest.raises(SynopsisIntegrityError) as excinfo:
            sketch_from_dict(payload)
        assert "digest" in str(excinfo.value)

    def test_missing_key_is_typed(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        del payload["nodes"][0]["count"]
        payload["digest"] = payload_digest(payload)  # forge the digest
        with pytest.raises(SynopsisIntegrityError) as excinfo:
            sketch_from_dict(payload)
        assert "count" in str(excinfo.value)
        assert excinfo.value.path.startswith("nodes[0]")

    def test_extra_key_is_typed(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["edges"][2]["surprise"] = 1
        payload["digest"] = payload_digest(payload)
        with pytest.raises(SynopsisIntegrityError) as excinfo:
            sketch_from_dict(payload)
        assert excinfo.value.path == "edges[2]"

    def test_extra_top_level_key_rejected(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["extensions"] = {}
        payload["digest"] = payload_digest(payload)
        with pytest.raises(SynopsisIntegrityError):
            sketch_from_dict(payload)

    def test_wrong_type_is_typed(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["nodes"][0]["count"] = "many"
        payload["digest"] = payload_digest(payload)
        with pytest.raises(SynopsisIntegrityError) as excinfo:
            sketch_from_dict(payload)
        assert "int" in str(excinfo.value)

    def test_edge_to_undeclared_node_rejected(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["edges"][0]["target"] = 424242
        payload["digest"] = payload_digest(payload)
        with pytest.raises(SynopsisIntegrityError):
            sketch_from_dict(payload)

    def test_version_1_files_still_load(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["version"] = 1
        del payload["digest"]
        loaded = sketch_from_dict(payload)
        assert loaded.graph.node_count == built_sketch.graph.node_count

    def test_missing_version_rejected(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        del payload["version"]
        with pytest.raises(SynopsisIntegrityError):
            sketch_from_dict(payload)

    def test_strict_mode_runs_invariants(self, built_sketch):
        payload = json.loads(json.dumps(sketch_to_dict(built_sketch)))
        payload["version"] = 1
        del payload["digest"]
        for node in payload["nodes"]:
            node["count"] = -node["count"]
        sketch_from_dict(payload)  # fast mode: schema-valid
        with pytest.raises(SynopsisIntegrityError):
            sketch_from_dict(payload, strict=True)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(SynopsisIntegrityError):
            sketch_from_dict([1, 2, 3])

    def test_truncated_file_raises_integrity_error(
        self, built_sketch, tmp_path
    ):
        path = tmp_path / "synopsis.json"
        save_sketch(built_sketch, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SynopsisIntegrityError):
            load_sketch(path)


class TestFrozenGraph:
    def test_refinement_rejected_on_loaded(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        with pytest.raises(SynopsisError):
            loaded.graph.split_node(0, {1})

    def test_loaded_sketch_split_raises_synopsis_error(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        with pytest.raises(SynopsisError, match="no extents"):
            loaded.split_node(0, {1})

    def test_every_refinement_kind_raises_build_error_on_loaded(self):
        """One candidate of each kind that applies to a sketch over the
        document raises the typed error on the sketch's loaded copy."""
        sketch = TwigXSketch.coarsest(figure1_document())
        loaded = sketch_from_dict(sketch_to_dict(sketch))
        by_kind = {}
        for candidate in generate_candidates(sketch, random.Random(5)):
            try:
                candidate.apply(sketch)
            except BuildError:
                continue
            by_kind.setdefault(type(candidate), candidate)
        assert set(by_kind) == set(ALL_REFINEMENTS)
        for candidate in by_kind.values():
            with pytest.raises(BuildError, match="no extents"):
                candidate.apply(loaded)

    def test_missing_node_lookup(self, built_sketch):
        loaded = sketch_from_dict(sketch_to_dict(built_sketch))
        with pytest.raises(SynopsisError):
            loaded.graph.node(99_999)

    def test_value_histograms_round_trip_both_kinds(self):
        sketch = TwigXSketch.coarsest(
            figure1_document(), XSketchConfig(initial_value_buckets=4)
        )
        loaded = sketch_from_dict(sketch_to_dict(sketch))
        kinds = {
            summary.histogram.kind for summary in loaded.value_stats.values()
        }
        assert kinds == {"numeric", "string"}

    def test_movie_document_round_trip(self):
        sketch = TwigXSketch.coarsest(movie_document())
        loaded = sketch_from_dict(sketch_to_dict(sketch))
        query = parse_for_clause("for m in movie, a in m/actor")
        assert TwigEstimator(loaded).estimate(query) == pytest.approx(
            TwigEstimator(sketch).estimate(query)
        )
