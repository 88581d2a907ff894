"""Truth oracles for XBUILD's marginal-gain measurements (paper §5).

XBUILD scores a candidate refinement by how much it reduces estimation
error on queries sampled around the refinement's region, against an
*oracle* for the true counts: :class:`ExactOracle` evaluates queries on
the document.  It does not cache: XBUILD keeps the one truth cache, keyed
by ``TwigQuery.key``, and asks its oracle only on a miss.

:func:`build_reference_sketch` builds a large, high-fidelity summary
(exact per-node joint distributions over a backward bisimulation,
uncompressed value histograms) whose estimates are exact where the
paper guarantees it (§6.2).
"""

from __future__ import annotations

from ..doc.tree import DocumentTree
from ..query.ast import TwigQuery
from ..query.evaluator import count_bindings
from ..resilience.faults import SITE_ORACLE, fault_check
from ..synopsis.distributions import EdgeRef
from ..synopsis.graph import GraphSynopsis, label_split_synopsis
from ..synopsis.summary import TwigXSketch, XSketchConfig

#: bucket budget for reference value histograms — large enough to store
#: realistic value populations exactly
_REFERENCE_VALUE_BUCKETS = 256

#: backstop on reference-synopsis growth during backward bisimulation
_REFERENCE_NODE_CAP = 512


class ExactOracle:
    """True twig counts straight from the document."""

    def __init__(self, tree: DocumentTree):
        self.tree = tree

    def true_count(self, query: TwigQuery) -> int:
        """Exact number of binding tuples of ``query`` in the document."""
        fault_check(SITE_ORACLE)
        return count_bindings(query, self.tree)


def _backward_bisimulation(graph: GraphSynopsis) -> None:
    """Split nodes until every synopsis edge is Backward-stable.

    This is the classic 1-index refinement: elements separate by the
    synopsis node of their parent, to a fixpoint, so each node's extent is
    a single parent-path population (episode-movies apart from top-level
    movies, say).  Partition refinement terminates; the node cap is a
    backstop against pathological documents.
    """
    changed = True
    while changed and graph.node_count < _REFERENCE_NODE_CAP:
        changed = False
        for edge in list(graph.edges.values()):
            if edge.backward_stable or graph.edge(edge.source, edge.target) is None:
                continue
            target = graph.node(edge.target)
            part = {
                element.node_id
                for element in target.extent
                if element.parent is not None
                and graph.node_of(element.parent) == edge.source
            }
            if part and len(part) < target.count:
                graph.split_node(edge.target, part)
                changed = True
                break


def build_reference_sketch(tree: DocumentTree) -> TwigXSketch:
    """A large, high-fidelity summary to serve as an estimation oracle.

    Refines the label-split synopsis to a backward bisimulation (every
    edge B-stable, so parent-path subpopulations are separated), then
    stores one *exact* joint histogram per node covering **all** of its
    outgoing edges — branching-twig correlation, the coarsest summary's
    main blind spot, is represented losslessly.  Size is irrelevant here:
    the reference is scaffolding, never shipped.
    """
    graph = label_split_synopsis(tree)
    _backward_bisimulation(graph)
    config = XSketchConfig(
        engine="exact",
        initial_edge_buckets=64,
        initial_value_buckets=_REFERENCE_VALUE_BUCKETS,
        max_histogram_dims=64,
    )
    sketch = TwigXSketch(graph, config)
    for node in graph.iter_nodes():
        refs = tuple(
            EdgeRef(node.node_id, edge.target)
            for edge in sorted(
                graph.children_of(node.node_id),
                key=lambda edge: edge.child_count,
                reverse=True,
            )
        )
        if refs:
            sketch.edge_stats[node.node_id] = (
                sketch.make_edge_histogram(node.node_id, refs, 64),
            )
        summary = sketch.make_value_summary(
            node.node_id, _REFERENCE_VALUE_BUCKETS
        )
        if summary is not None:
            sketch.value_stats[node.node_id] = summary
    return sketch
