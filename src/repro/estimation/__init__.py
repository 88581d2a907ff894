"""Estimation framework: maximal twigs, embeddings, TREEPARSE, estimators.

Public surface:

* :func:`enumerate_embeddings`, :func:`maximal_twigs` — query expansion
  over a synopsis (paper Section 4, Figure 5);
* :func:`tree_parse` — the TREEPARSE algorithm (Figure 7);
* :class:`TwigEstimator` — twig selectivity estimates with the Forward
  Independence / Correlation Scope Independence / Forward Uniformity
  assumptions;
* :class:`PathEstimator` — the single-path (structural XSKETCH) estimator.
"""

from .embeddings import (
    DEFAULT_MAX_DESCENDANT_DEPTH,
    DEFAULT_MAX_EMBEDDINGS,
    Embedding,
    EmbeddingBudget,
    EmbeddingNode,
    enumerate_embeddings,
    maximal_twigs,
    validate_embedding,
)
from .estimator import EstimateReport, SketchFacts, TwigEstimator
from .path_estimator import PathEstimator
from .treeparse import ExtendedUse, HistogramUse, NodePlan, tree_parse

__all__ = [
    "DEFAULT_MAX_DESCENDANT_DEPTH",
    "DEFAULT_MAX_EMBEDDINGS",
    "Embedding",
    "EmbeddingBudget",
    "EmbeddingNode",
    "EstimateReport",
    "ExtendedUse",
    "HistogramUse",
    "NodePlan",
    "PathEstimator",
    "SketchFacts",
    "TwigEstimator",
    "enumerate_embeddings",
    "maximal_twigs",
    "tree_parse",
    "validate_embedding",
]
