"""Invariant validation over Twig XSKETCHes (serving-side integrity).

A synopsis is built once and then consulted by every optimizer
invocation, usually after a save/load hop through
:mod:`repro.synopsis.persist`.  This module is the one checker of a
sketch — freshly built (:class:`~repro.synopsis.graph.GraphSynopsis`) or
loaded (:class:`~repro.synopsis.persist.FrozenGraph`) — and of a bare
graph (:func:`validate_graph`).  It checks the structural invariants the
estimators silently rely on:

* extent counts are finite, non-negative integers;
* edge endpoints resolve, and edge counts fit their extents
  (``parent_count ≤ child_count``, ``child_count ≤ |target|``,
  ``parent_count ≤ |source|``) — which is exactly what makes the derived
  B-/F-stability flags coherent with the topology;
* the edges' cached ``source_size``/``target_size`` match the node
  counts the flags are computed against;
* incoming child counts partition each extent: every element but the
  document root has exactly one parent, so the per-node deficits
  ``|v| − Σ incoming child_count`` are non-negative and sum to 1;
* on a graph that keeps its extents (a ``GraphSynopsis``): each extent
  is in document order, holds elements of the node's tag assigned to
  that node, the extents cover every element, and the node with deficit
  1 is the one holding the document root;
* histogram scopes reference live nodes and existing edges, masses are
  finite, non-negative, and total ≈ 1, and (for the mean-preserving
  ``centroid``/``exact`` engines) the mass-weighted mean of every
  forward dimension reproduces the stored edge total;
* the size the sketch keeps as its statistics are written equals the sum
  its graph and statistics walk to.

Violations come back as structured :class:`Violation` records rather
than exceptions, so callers can report all of them at once;
:func:`raise_on_violations` converts error-severity ones into a single
:class:`~repro.errors.SynopsisIntegrityError` for strict loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SynopsisIntegrityError
from . import size as sizing
from .distributions import EdgeRef
from .graph import GraphSynopsis
from .summary import TwigXSketch

#: relative tolerance for mass/mean consistency of mean-preserving engines
MASS_TOLERANCE = 1e-6

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    """One failed invariant.

    Attributes:
        code: stable machine-readable identifier (e.g. ``node-count``).
        path: where in the sketch (``nodes[3]``-style, mirroring the
            persisted JSON layout).
        message: human-readable explanation with the offending values.
        severity: :data:`ERROR` for invariants the estimators depend on,
            :data:`WARNING` for approximations that merely degrade
            accuracy.
    """

    code: str
    path: str
    message: str
    severity: str = ERROR

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.severity}] {self.code} at {self.path}: {self.message}"


def _is_count(value) -> bool:
    """True for a finite, non-negative integral count (bools excluded)."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return value >= 0
    return isinstance(value, float) and math.isfinite(value) and value >= 0


def validate_sketch(sketch: TwigXSketch) -> list[Violation]:
    """Every invariant violation of ``sketch``, empty when healthy."""
    violations = validate_graph(sketch.graph)
    violations.extend(_check_edge_histograms(sketch))
    violations.extend(_check_value_histograms(sketch))
    violations.extend(_check_extended_histograms(sketch))
    violations.extend(_check_size(sketch))
    return violations


def validate_graph(graph) -> list[Violation]:
    """Every invariant violation of a graph synopsis, empty when healthy.

    ``graph`` is a :class:`~repro.synopsis.graph.GraphSynopsis` (whose
    extents are checked too) or a loaded
    :class:`~repro.synopsis.persist.FrozenGraph` (which has none).
    """
    violations = _check_nodes(graph)
    edges_ok = _check_edges(graph, violations)
    if edges_ok:
        violations.extend(_check_partition(graph))
    if isinstance(graph, GraphSynopsis):
        violations.extend(_check_extents(graph, edges_ok))
    return violations


def error_violations(violations: list[Violation]) -> list[Violation]:
    """Just the error-severity entries."""
    return [v for v in violations if v.severity == ERROR]


def raise_on_violations(violations: list[Violation], source: str = "synopsis") -> None:
    """Raise :class:`SynopsisIntegrityError` when any error is present."""
    errors = error_violations(violations)
    if not errors:
        return
    head = "; ".join(
        f"{v.code} at {v.path}: {v.message}" for v in errors[:3]
    )
    more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
    raise SynopsisIntegrityError(
        f"{source} violates {len(errors)} invariant(s): {head}{more}",
        path=errors[0].path,
    )


# ----------------------------------------------------------------------
# individual invariant groups
# ----------------------------------------------------------------------
def _check_nodes(graph) -> list[Violation]:
    violations: list[Violation] = []
    if not graph.nodes:
        violations.append(
            Violation("empty-graph", "nodes", "synopsis has no nodes")
        )
    for node_id, node in graph.nodes.items():
        where = f"nodes[{node_id}]"
        if not _is_count(node.count):
            violations.append(
                Violation(
                    "node-count",
                    f"{where}.count",
                    f"extent count must be a finite non-negative "
                    f"integer, got {node.count!r}",
                )
            )
        if not isinstance(node.tag, str) or not node.tag:
            violations.append(
                Violation(
                    "node-tag", f"{where}.tag",
                    f"tag must be a non-empty string, got {node.tag!r}",
                )
            )
    return violations


def _check_edges(graph, violations: list[Violation]) -> bool:
    """Edge invariants; returns True when endpoint/count checks all hold
    (the partition check is meaningless otherwise)."""
    sound = True
    for index, edge in enumerate(graph.iter_edges()):
        source, target = edge.source, edge.target
        where = f"edges[{index}]"
        if source not in graph.nodes or target not in graph.nodes:
            violations.append(
                Violation(
                    "edge-endpoint", where,
                    f"edge {source}->{target} references a missing node",
                )
            )
            sound = False
            continue
        if not _is_count(edge.child_count) or not _is_count(edge.parent_count):
            violations.append(
                Violation(
                    "edge-count", where,
                    f"edge {source}->{target} counts must be finite "
                    f"non-negative ({edge.child_count!r}, "
                    f"{edge.parent_count!r})",
                )
            )
            sound = False
            continue
        if edge.child_count < 1 or edge.parent_count < 1:
            violations.append(
                Violation(
                    "edge-witness", where,
                    f"edge {source}->{target} exists without a witness "
                    f"document edge (child_count={edge.child_count}, "
                    f"parent_count={edge.parent_count})",
                )
            )
            sound = False
        if edge.parent_count > edge.child_count:
            violations.append(
                Violation(
                    "edge-count-order", where,
                    f"parent_count {edge.parent_count} exceeds "
                    f"child_count {edge.child_count}",
                )
            )
            sound = False
        source_count = graph.nodes[source].count
        target_count = graph.nodes[target].count
        if _is_count(target_count) and edge.child_count > target_count:
            violations.append(
                Violation(
                    "edge-count-range", where,
                    f"child_count {edge.child_count} exceeds target "
                    f"extent |{target}| = {target_count}",
                )
            )
            sound = False
        if _is_count(source_count) and edge.parent_count > source_count:
            violations.append(
                Violation(
                    "edge-count-range", where,
                    f"parent_count {edge.parent_count} exceeds source "
                    f"extent |{source}| = {source_count}",
                )
            )
            sound = False
        # The stability flags are derived from the cached sizes, so a
        # stale size silently flips B-/F-stability for the estimators.
        if edge.source_size != source_count or edge.target_size != target_count:
            violations.append(
                Violation(
                    "edge-size-stale", where,
                    f"cached sizes ({edge.source_size}, {edge.target_size}) "
                    f"disagree with node counts ({source_count}, "
                    f"{target_count}); stability flags are unreliable",
                )
            )
            sound = False
    return sound


def _check_partition(graph) -> list[Violation]:
    """Incoming child counts partition each extent (tree data): one node
    hosts the document root (deficit 1), every other deficit is 0."""
    violations: list[Violation] = []
    incoming: dict[int, float] = {node_id: 0 for node_id in graph.nodes}
    for edge in graph.iter_edges():
        incoming[edge.target] += edge.child_count
    total_deficit = 0.0
    for node_id, node in graph.nodes.items():
        if not _is_count(node.count):
            return violations  # already reported by _check_nodes
        deficit = node.count - incoming[node_id]
        if deficit < 0:
            violations.append(
                Violation(
                    "tree-partition", f"nodes[{node_id}]",
                    f"incoming child counts sum to {incoming[node_id]}, "
                    f"exceeding the extent size {node.count}",
                )
            )
            return violations
        total_deficit += deficit
    if total_deficit != 1:
        violations.append(
            Violation(
                "tree-partition", "edges",
                f"extent sizes exceed incoming child counts by "
                f"{total_deficit:g} elements; a tree document has "
                f"exactly one root (expected deficit 1)",
            )
        )
    return violations


def _check_extents(graph: GraphSynopsis, edges_ok: bool) -> list[Violation]:
    """The partition behind a graph that keeps its extents: each extent
    in document order, assigned to its node and of its node's tag; all
    extents together cover the document; and the document root lies in
    the node whose extent exceeds its incoming child counts by one (only
    checked when the edge counts are sound)."""
    violations: list[Violation] = []
    assignment = graph.assignment
    covered = 0
    for node_id, node in graph.nodes.items():
        where = f"nodes[{node_id}].extent"
        extent = node.extent
        covered += len(extent)
        if any(
            earlier.node_id >= later.node_id
            for earlier, later in zip(extent, extent[1:])
        ):
            violations.append(
                Violation(
                    "extent-order", where,
                    "extent is not in document order",
                )
            )
        stray = next(
            (e for e in extent if assignment[e.node_id] != node_id), None
        )
        if stray is not None:
            violations.append(
                Violation(
                    "extent-assignment", where,
                    f"element {stray.node_id} is assigned to node "
                    f"#{assignment[stray.node_id]}",
                )
            )
        foreign = next((e for e in extent if e.tag != node.tag), None)
        if foreign is not None:
            violations.append(
                Violation(
                    "extent-tag", where,
                    f"element {foreign.node_id} has tag {foreign.tag!r}, "
                    f"the node {node.tag!r}",
                )
            )
    element_count = graph.tree.element_count
    if covered != element_count:
        violations.append(
            Violation(
                "extent-cover", "nodes",
                f"extents cover {covered} of {element_count} elements",
            )
        )
    if not edges_ok:
        return violations
    root = assignment[graph.tree.root.node_id]
    incoming = sum(
        edge.child_count for edge in graph.iter_edges() if edge.target == root
    )
    if root not in graph.nodes or graph.nodes[root].count - incoming != 1:
        violations.append(
            Violation(
                "extent-root", f"nodes[{root}]",
                f"node #{root} holds the document root, but its extent "
                f"does not exceed its incoming child counts by one",
            )
        )
    return violations


def _check_points(
    points, dimensions: int, where: str, violations: list[Violation]
) -> bool:
    """Shared mass/arity checks; returns True when the points are sane."""
    total_mass = 0.0
    for position, (vector, mass) in enumerate(points):
        if len(vector) != dimensions:
            violations.append(
                Violation(
                    "histogram-arity", f"{where}.points[{position}]",
                    f"count vector has {len(vector)} dimensions, "
                    f"scope has {dimensions}",
                )
            )
            return False
        if not isinstance(mass, (int, float)) or not math.isfinite(mass) or mass < 0:
            violations.append(
                Violation(
                    "histogram-mass", f"{where}.points[{position}]",
                    f"bucket mass must be finite and non-negative, "
                    f"got {mass!r}",
                )
            )
            return False
        if any(
            not isinstance(c, (int, float)) or not math.isfinite(c) or c < 0
            for c in vector
        ):
            violations.append(
                Violation(
                    "histogram-count", f"{where}.points[{position}]",
                    f"count vector {vector!r} has a negative or "
                    f"non-finite coordinate",
                )
            )
            return False
        total_mass += mass
    if total_mass > 1 + MASS_TOLERANCE:
        violations.append(
            Violation(
                "histogram-mass", where,
                f"bucket masses sum to {total_mass:g} > 1",
            )
        )
        return False
    return True


def _check_edge_histograms(sketch: TwigXSketch) -> list[Violation]:
    violations: list[Violation] = []
    graph = sketch.graph
    mean_preserving = sketch.config.engine in ("centroid", "exact")
    for node_id, histograms in sketch.edge_stats.items():
        if node_id not in graph.nodes:
            violations.append(
                Violation(
                    "histogram-node", f"edge_histograms[{node_id}]",
                    f"edge histograms stored for missing node #{node_id}",
                )
            )
            continue
        for position, histogram in enumerate(histograms):
            where = f"edge_histograms[{node_id}][{position}]"
            scope_ok = True
            for ref in histogram.scope:
                if not isinstance(ref, EdgeRef):
                    detail = f"a non-EdgeRef entry {ref!r}"
                elif graph.edge(ref.source, ref.target) is None:
                    detail = f"missing edge {ref.source}->{ref.target}"
                else:
                    continue
                violations.append(
                    Violation(
                        "histogram-scope", f"{where}.scope",
                        f"scope references {detail}",
                    )
                )
                scope_ok = False
            if not scope_ok:
                continue
            points = histogram.points()
            if not _check_points(
                points, histogram.dimensions, where, violations
            ):
                continue
            if not mean_preserving:
                continue
            # Mean-preserving engines: the mass-weighted mean of a
            # forward dimension times the extent size is the edge total.
            node_count = graph.nodes[node_id].count
            if not _is_count(node_count) or node_count == 0:
                continue
            for dim, ref in enumerate(histogram.scope):
                if not ref.is_forward_at(node_id):
                    continue
                edge = graph.edge(ref.source, ref.target)
                mean = sum(mass * vector[dim] for vector, mass in points)
                if not math.isclose(
                    mean * node_count,
                    edge.child_count,
                    rel_tol=MASS_TOLERANCE,
                    abs_tol=MASS_TOLERANCE,
                ):
                    violations.append(
                        Violation(
                            "histogram-edge-total", f"{where}.points",
                            f"dimension {dim} ({ref.source}->{ref.target}) "
                            f"has mass-weighted total "
                            f"{mean * node_count:g}, edge stores "
                            f"{edge.child_count}",
                        )
                    )
    return violations


def _check_value_histograms(sketch: TwigXSketch) -> list[Violation]:
    violations: list[Violation] = []
    for node_id, summary in sketch.value_stats.items():
        where = f"value_histograms[{node_id}]"
        if node_id not in sketch.graph.nodes:
            violations.append(
                Violation(
                    "histogram-node", where,
                    f"value histogram stored for missing node #{node_id}",
                )
            )
            continue
        total = summary.total
        if total is not None and not _is_count(total):
            violations.append(
                Violation(
                    "value-total", f"{where}.total",
                    f"value histogram total must be a finite "
                    f"non-negative count, got {total!r}",
                )
            )
        if not _is_count(summary.budget) or summary.budget == 0:
            violations.append(
                Violation(
                    "histogram-budget", f"{where}.budget",
                    f"bucket budget must be positive, got {summary.budget!r}",
                )
            )
    return violations


def _check_size(sketch: TwigXSketch) -> list[Violation]:
    """The kept size against a walk of every statistic: a statistic
    stored past the sketch's writer leaves the two apart."""
    walked = sizing.graph_bytes(
        sketch.graph.node_count,
        sketch.graph.edge_count,
        sketch.config.store_edge_counts,
    )
    for table in (sketch.edge_stats, sketch.extended_stats):
        for statistics in table.values():
            walked += sum(statistic.size_bytes() for statistic in statistics)
    walked += sum(summary.size_bytes() for summary in sketch.value_stats.values())
    kept = sketch.size_bytes()
    if kept == walked:
        return []
    return [
        Violation(
            "size-kept", "size_bytes",
            f"kept size {kept} B disagrees with the {walked} B its graph "
            f"and statistics walk to",
        )
    ]


def _check_extended_histograms(sketch: TwigXSketch) -> list[Violation]:
    violations: list[Violation] = []
    graph = sketch.graph
    for node_id, summaries in sketch.extended_stats.items():
        if node_id not in graph.nodes:
            violations.append(
                Violation(
                    "histogram-node", f"extended_histograms[{node_id}]",
                    f"extended summaries stored for missing node #{node_id}",
                )
            )
            continue
        for position, summary in enumerate(summaries):
            where = f"extended_histograms[{node_id}][{position}]"
            for ref in summary.scope:
                if not isinstance(ref, EdgeRef) or graph.edge(
                    ref.source, ref.target
                ) is None:
                    violations.append(
                        Violation(
                            "histogram-scope", f"{where}.scope",
                            f"scope references missing edge {ref!r}",
                        )
                    )
    return violations
