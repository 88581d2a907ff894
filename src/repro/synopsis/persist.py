"""Persist Twig XSKETCHes: serialize to JSON, load estimation-ready.

A synopsis is built once (XBUILD over the document) and then consulted by
every optimizer invocation — usually in a different process.  This module
serializes exactly the *stored* synopsis (nodes, labelled edges, histogram
buckets — the content the DESIGN.md size model charges for) and loads it
back without any document access:

* :func:`save_sketch` / :func:`sketch_to_dict` — TwigXSketch → JSON;
* :func:`load_sketch` / :func:`sketch_from_dict` — JSON → a
  :class:`TwigXSketch` whose graph is a :class:`FrozenGraph` (topology,
  counts, and stabilities only, no extents).

A loaded sketch supports everything estimation needs —
:class:`~repro.estimation.estimator.TwigEstimator`,
:class:`~repro.estimation.path_estimator.PathEstimator` — but not
construction (refinements need extents; they raise on a frozen graph).

Integrity.  Format version 2 embeds a sha256 digest of the canonical
payload (:func:`payload_digest`), verified on every load, so any byte of
silent corruption — truncation, bit flips, hand edits — surfaces as a
typed :class:`~repro.errors.SynopsisIntegrityError` naming the offending
path instead of a raw ``KeyError``/``TypeError`` or, worse, a silently
wrong estimate.  Version-1 files (pre-digest) still load, gated by the
same schema checks.  Loads run in two modes: *fast* (digest + schema —
the default) or *strict* (additionally runs every invariant in
:mod:`repro.synopsis.validate` over the reconstructed sketch).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..errors import SynopsisError, SynopsisIntegrityError
from ..histogram.joint import ValueCountHistogram
from ..histogram.value import NumericValueHistogram, StringValueHistogram
from .distributions import EdgeRef
from .graph import IndexedGraph, SynopsisEdge
from .summary import (
    EdgeHistogram,
    ExtendedValueSummary,
    TwigXSketch,
    ValueSummary,
    XSketchConfig,
)

FORMAT_VERSION = 2
#: versions :func:`sketch_from_dict` knows how to read
SUPPORTED_VERSIONS = (1, 2)

_TOP_LEVEL_KEYS = {
    "version",
    "config",
    "nodes",
    "edges",
    "edge_histograms",
    "value_histograms",
    "extended_histograms",
}
_CONFIG_KEYS = {
    "engine",
    "store_edge_counts",
    "include_backward",
    "max_histogram_dims",
}
_NODE_KEYS = {"id", "tag", "count"}
_EDGE_KEYS = {
    "source",
    "target",
    "child_count",
    "parent_count",
    "source_size",
    "target_size",
}
_EDGE_HISTOGRAM_KEYS = {"node", "scope", "budget", "points"}
_VALUE_HISTOGRAM_KEYS = {"node", "budget", "state"}
_EXTENDED_KEYS = {
    "node",
    "value_tag",
    "scope",
    "value_budget",
    "count_budget",
    "state",
}


@dataclass
class FrozenNode:
    """A loaded synopsis node: identity, tag, and extent size only."""

    node_id: int
    tag: str
    count: int


class FrozenGraph(IndexedGraph):
    """The stored part of a graph synopsis (no extents, no document).

    Shares the read API the estimators use, and its lazily built
    indexes, with :class:`GraphSynopsis` through :class:`IndexedGraph`;
    mutation helpers (splitting) raise :class:`SynopsisError`.  Every
    read is in the canonical order, so the order of ``nodes`` and
    ``edges`` as given does not matter.
    """

    def __init__(self, nodes: list[FrozenNode], edges: list[SynopsisEdge]):
        self.nodes: dict[int, FrozenNode] = {n.node_id: n for n in nodes}
        self.edges: dict[tuple[int, int], SynopsisEdge] = {
            (e.source, e.target): e for e in edges
        }
        self._adjacency = None

    # -- mutation is unavailable ----------------------------------------
    def split_node(self, node_id: int, part):
        raise SynopsisError(
            "a loaded synopsis has no extents; refinement requires the "
            "original document"
        )

    def copy(self) -> "FrozenGraph":
        """Frozen graphs are immutable; copy returns self."""
        return self


class _PointsHistogram:
    """Engine wrapper for loaded edge histograms: just the points."""

    def __init__(self, points):
        self._points = [(tuple(v), m) for v, m in points]

    def points(self):
        return list(self._points)

    def bucket_count(self) -> int:
        return len(self._points)


# ----------------------------------------------------------------------
# schema guards
# ----------------------------------------------------------------------
def _fail(message: str, path: str) -> SynopsisIntegrityError:
    return SynopsisIntegrityError(message, path=path)


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(f"expected an object, got {type(value).__name__}", path)
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(f"expected an array, got {type(value).__name__}", path)
    return value


def _check_keys(mapping: dict, required: set, path: str) -> None:
    missing = sorted(required - mapping.keys())
    if missing:
        raise _fail(f"missing required key(s) {missing}", path)
    extra = sorted(mapping.keys() - required)
    if extra:
        raise _fail(f"unknown key(s) {extra}", path)


def _field(mapping: dict, key: str, kinds, path: str):
    """A typed field access that can only fail with an integrity error."""
    if key not in mapping:
        raise _fail(f"missing required key {key!r}", path)
    value = mapping[key]
    if kinds is int and isinstance(value, bool):
        raise _fail(f"{key!r} must be an integer, got a boolean", path)
    if kinds is not None and not isinstance(value, kinds):
        expected = getattr(kinds, "__name__", str(kinds))
        raise _fail(
            f"{key!r} must be {expected}, got {type(value).__name__}", path
        )
    return value


def _scope_refs(entry: dict, path: str) -> tuple[EdgeRef, ...]:
    refs = []
    for index, pair in enumerate(_require_list(entry["scope"], f"{path}.scope")):
        pair = _require_list(pair, f"{path}.scope[{index}]")
        if len(pair) != 2 or not all(
            isinstance(end, int) and not isinstance(end, bool) for end in pair
        ):
            raise _fail(
                f"scope entries are [source, target] integer pairs, "
                f"got {pair!r}",
                f"{path}.scope[{index}]",
            )
        refs.append(EdgeRef(pair[0], pair[1]))
    return tuple(refs)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def payload_digest(payload: dict) -> str:
    """sha256 over the canonical JSON of the payload without its digest."""
    body = {key: value for key, value in payload.items() if key != "digest"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()


def sketch_to_dict(sketch: TwigXSketch) -> dict:
    """Serialize the stored synopsis content to a JSON-compatible dict.

    The result carries :data:`FORMAT_VERSION` and a sha256 ``digest`` of
    its canonical body, which :func:`sketch_from_dict` verifies.
    """
    config = sketch.config
    payload = {
        "version": FORMAT_VERSION,
        "config": {
            "engine": config.engine,
            "store_edge_counts": config.store_edge_counts,
            "include_backward": config.include_backward,
            "max_histogram_dims": config.max_histogram_dims,
        },
        "nodes": [
            {"id": n.node_id, "tag": n.tag, "count": n.count}
            for n in sketch.graph.iter_nodes()
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "child_count": e.child_count,
                "parent_count": e.parent_count,
                "source_size": e.source_size,
                "target_size": e.target_size,
            }
            for e in sketch.graph.iter_edges()
        ],
        "edge_histograms": [
            {
                "node": node_id,
                "scope": [[r.source, r.target] for r in h.scope],
                "budget": h.budget,
                "points": [[list(v), m] for v, m in h.points()],
            }
            for node_id, histograms in sketch.edge_stats.items()
            for h in histograms
        ],
        "value_histograms": [
            {
                "node": node_id,
                "budget": summary.budget,
                "state": summary.histogram.to_state(),
            }
            for node_id, summary in sketch.value_stats.items()
        ],
        "extended_histograms": [
            {
                "node": node_id,
                "value_tag": s.value_tag,
                "scope": [[r.source, r.target] for r in s.scope],
                "value_budget": s.value_budget,
                "count_budget": s.count_budget,
                "state": s.histogram.to_state(),
            }
            for node_id, summaries in sketch.extended_stats.items()
            for s in summaries
        ],
    }
    payload["digest"] = payload_digest(payload)
    return payload


def _load_config(payload: dict) -> XSketchConfig:
    config_data = _require_mapping(payload["config"], "config")
    _check_keys(config_data, _CONFIG_KEYS, "config")
    try:
        return XSketchConfig(
            engine=_field(config_data, "engine", str, "config"),
            store_edge_counts=_field(
                config_data, "store_edge_counts", bool, "config"
            ),
            include_backward=_field(
                config_data, "include_backward", bool, "config"
            ),
            max_histogram_dims=_field(
                config_data, "max_histogram_dims", int, "config"
            ),
        )
    except SynopsisIntegrityError:
        raise
    except SynopsisError as exc:
        raise _fail(str(exc), "config") from exc


def _load_graph(payload: dict) -> FrozenGraph:
    nodes: list[FrozenNode] = []
    seen_ids: set[int] = set()
    for index, entry in enumerate(_require_list(payload["nodes"], "nodes")):
        path = f"nodes[{index}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, _NODE_KEYS, path)
        node_id = _field(entry, "id", int, path)
        if node_id in seen_ids:
            raise _fail(f"duplicate node id {node_id}", path)
        seen_ids.add(node_id)
        nodes.append(
            FrozenNode(
                node_id,
                _field(entry, "tag", str, path),
                _field(entry, "count", int, path),
            )
        )
    edges: list[SynopsisEdge] = []
    seen_edges: set[tuple[int, int]] = set()
    for index, entry in enumerate(_require_list(payload["edges"], "edges")):
        path = f"edges[{index}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, _EDGE_KEYS, path)
        source = _field(entry, "source", int, path)
        target = _field(entry, "target", int, path)
        if source not in seen_ids or target not in seen_ids:
            raise _fail(
                f"edge {source}->{target} references an undeclared node",
                path,
            )
        if (source, target) in seen_edges:
            raise _fail(f"duplicate edge {source}->{target}", path)
        seen_edges.add((source, target))
        edges.append(
            SynopsisEdge(
                source,
                target,
                _field(entry, "child_count", int, path),
                _field(entry, "parent_count", int, path),
                _field(entry, "source_size", int, path),
                _field(entry, "target_size", int, path),
            )
        )
    return FrozenGraph(nodes, edges)


def sketch_from_dict(payload: dict, strict: bool = False) -> TwigXSketch:
    """Load a synopsis serialized by :func:`sketch_to_dict`.

    Args:
        payload: the parsed JSON payload.
        strict: additionally run every invariant check in
            :mod:`repro.synopsis.validate` over the reconstructed sketch
            (fast mode verifies the digest and the schema only).

    Raises:
        SynopsisIntegrityError: unknown format version, digest mismatch,
            or any schema/invariant violation — with the offending path.
    """
    payload = _require_mapping(payload, "$")
    version = payload.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise _fail(
            f"unsupported synopsis format version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})",
            "version",
        )
    required = set(_TOP_LEVEL_KEYS)
    if version >= 2:
        required.add("digest")
    _check_keys(payload, required, "$")
    if version >= 2:
        stored = _field(payload, "digest", str, "$")
        computed = payload_digest(payload)
        if stored != computed:
            raise _fail(
                f"payload digest mismatch: stored {stored[:12]}…, "
                f"computed {computed[:12]}… — the file was modified or "
                f"corrupted after it was written",
                "digest",
            )

    config = _load_config(payload)
    graph = _load_graph(payload)
    sketch = TwigXSketch(graph, config)
    entries = _require_list(payload["edge_histograms"], "edge_histograms")
    for index, entry in enumerate(entries):
        path = f"edge_histograms[{index}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, _EDGE_HISTOGRAM_KEYS, path)
        points = _require_list(entry["points"], f"{path}.points")
        for position, point in enumerate(points):
            point_path = f"{path}.points[{position}]"
            point = _require_list(point, point_path)
            if len(point) != 2 or not isinstance(point[0], list):
                raise _fail(
                    "points are [count-vector, mass] pairs", point_path
                )
            vector, mass = point
            for coordinate in vector:
                if isinstance(coordinate, bool) or not isinstance(
                    coordinate, (int, float)
                ):
                    raise _fail(
                        f"count vector holds non-numeric entry "
                        f"{coordinate!r}",
                        point_path,
                    )
            if isinstance(mass, bool) or not isinstance(mass, (int, float)):
                raise _fail(
                    f"bucket mass {mass!r} is not a number", point_path
                )
        histogram = EdgeHistogram(
            _field(entry, "node", int, path),
            _scope_refs(entry, path),
            _PointsHistogram(points),
            _field(entry, "budget", int, path),
        )
        sketch.set_histograms(
            entry["node"], (*sketch.histograms_at(entry["node"]), histogram)
        )
    entries = _require_list(payload["value_histograms"], "value_histograms")
    for index, entry in enumerate(entries):
        path = f"value_histograms[{index}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, _VALUE_HISTOGRAM_KEYS, path)
        state = _require_mapping(entry["state"], f"{path}.state")
        kind = state.get("kind")
        if kind not in ("numeric", "string"):
            raise _fail(
                f"unknown value-histogram kind {kind!r}", f"{path}.state.kind"
            )
        engine_cls = (
            NumericValueHistogram if kind == "numeric" else StringValueHistogram
        )
        try:
            engine = engine_cls.from_state(state)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _fail(
                f"value-histogram state is unreadable: {exc}",
                f"{path}.state",
            ) from exc
        sketch.set_value_summary(entry["node"], ValueSummary(
            _field(entry, "node", int, path),
            engine,
            _field(entry, "budget", int, path),
        ))
    entries = _require_list(
        payload["extended_histograms"], "extended_histograms"
    )
    for index, entry in enumerate(entries):
        path = f"extended_histograms[{index}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, _EXTENDED_KEYS, path)
        value_tag = entry["value_tag"]
        if value_tag is not None and not isinstance(value_tag, str):
            raise _fail(
                f"'value_tag' must be a string or null, "
                f"got {type(value_tag).__name__}",
                path,
            )
        try:
            engine = ValueCountHistogram.from_state(
                _require_mapping(entry["state"], f"{path}.state")
            )
        except SynopsisIntegrityError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _fail(
                f"extended-histogram state is unreadable: {exc}",
                f"{path}.state",
            ) from exc
        summary = ExtendedValueSummary(
            _field(entry, "node", int, path),
            value_tag,
            _scope_refs(entry, path),
            engine,
            _field(entry, "value_budget", int, path),
            _field(entry, "count_budget", int, path),
        )
        sketch.set_extended(
            entry["node"], (*sketch.extended_at(entry["node"]), summary)
        )
    if strict:
        from .validate import raise_on_violations, validate_sketch

        raise_on_violations(validate_sketch(sketch), source="loaded synopsis")
    return sketch


def save_sketch(sketch: TwigXSketch, path) -> None:
    """Write the synopsis (with its payload digest) to a JSON file."""
    with open(str(path), "w", encoding="utf8") as handle:
        json.dump(sketch_to_dict(sketch), handle)


def load_sketch(path, strict: bool = False) -> TwigXSketch:
    """Load a synopsis from a JSON file written by :func:`save_sketch`.

    Args:
        path: the file to read.
        strict: validate every invariant after loading (see
            :func:`sketch_from_dict`); fast mode checks digest and schema.

    Raises:
        SynopsisError: the file is missing or unreadable.
        SynopsisIntegrityError: the file's content is corrupt — not JSON,
            unknown version, digest mismatch, or schema violation.
    """
    try:
        with open(str(path), encoding="utf8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        raise SynopsisIntegrityError(
            f"cannot decode synopsis {path}: {exc}"
        ) from exc
    except OSError as exc:
        raise SynopsisError(f"cannot load synopsis from {path}: {exc}") from exc
    return sketch_from_dict(payload, strict=strict)
