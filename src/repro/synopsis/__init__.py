"""Synopsis substrate: graph summaries, stabilities, TSN, and XSKETCHes.

Public surface:

* :class:`GraphSynopsis`, :func:`label_split_synopsis` — the generic graph
  summary (paper 3.1);
* :func:`twig_stable_neighborhood`, :func:`stable_count_edges` — TSNs;
* :class:`EdgeRef`, :func:`exact_edge_distribution` — edge distributions;
* :class:`TwigXSketch`, :class:`XSketchConfig` — the full summary model
  (Definition 3.1) with size accounting in :mod:`repro.synopsis.size`.
"""

from .distributions import EdgeRef, exact_edge_distribution, mean_child_count
from .persist import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    FrozenGraph,
    load_sketch,
    payload_digest,
    save_sketch,
    sketch_from_dict,
    sketch_to_dict,
)
from .validate import (
    Violation,
    error_violations,
    raise_on_violations,
    validate_graph,
    validate_sketch,
)
from .graph import GraphSynopsis, SynopsisEdge, SynopsisNode, label_split_synopsis
from .summary import (
    EdgeHistogram,
    ExtendedValueSummary,
    TwigXSketch,
    ValueSummary,
    XSketchConfig,
)
from .tsn import (
    TwigStableNeighborhood,
    bstable_ancestors,
    stable_count_edges,
    twig_stable_neighborhood,
)

__all__ = [
    "EdgeHistogram",
    "EdgeRef",
    "ExtendedValueSummary",
    "FORMAT_VERSION",
    "FrozenGraph",
    "SUPPORTED_VERSIONS",
    "Violation",
    "GraphSynopsis",
    "SynopsisEdge",
    "SynopsisNode",
    "TwigStableNeighborhood",
    "TwigXSketch",
    "ValueSummary",
    "XSketchConfig",
    "bstable_ancestors",
    "error_violations",
    "exact_edge_distribution",
    "label_split_synopsis",
    "load_sketch",
    "payload_digest",
    "raise_on_violations",
    "save_sketch",
    "sketch_from_dict",
    "sketch_to_dict",
    "mean_child_count",
    "stable_count_edges",
    "twig_stable_neighborhood",
    "validate_graph",
    "validate_sketch",
]
