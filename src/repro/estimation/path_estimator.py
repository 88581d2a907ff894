"""Single-path selectivity estimation (the earlier structural XSKETCH).

The paper repeatedly leans on its earlier single-path framework — for the
``|n_i → n_j|`` terms and for the ablation comparing Twig XSKETCHes with
Structural XSKETCHes on single-path workloads (Section 6.2).  This module
implements that estimator over the same synopsis: the cardinality of a path
expression's result set (the number of elements its last step reaches),
with value and branch predicates.

The chain estimate composes per-edge child counts with a coverage fraction
(the probability a parent element survived the previous steps), assuming
children are spread uniformly over parents — exact whenever every chain
edge is Backward-stable and no predicates filter elements, which is the
single-path zero-error guarantee of the label-split synopsis on stable
paths.
"""

from __future__ import annotations

from typing import Optional

from ..obs import explain as _explain
from ..obs.explain import ExplainRecorder
from ..obs.metrics import MetricsRegistry
from ..query.ast import Path, TwigNode, TwigQuery
from ..synopsis.summary import TwigXSketch
from .embeddings import DEFAULT_MAX_DESCENDANT_DEPTH, _chain_expansions, _embed_branch
from .estimator import EstimatorCounters, TwigEstimator, _safe_ratio


class PathEstimator:
    """Estimates single-path result cardinalities over a Twig XSKETCH.

    ``metrics`` and ``explain`` mirror :class:`TwigEstimator`: the
    optional registry counts per-step statistics lookups
    (``estimator_lookups_total{kind="path_step"}``), the optional
    recorder captures the per-chain trail.
    """

    def __init__(
        self,
        sketch: TwigXSketch,
        max_depth: int = DEFAULT_MAX_DESCENDANT_DEPTH,
        *,
        metrics: Optional[MetricsRegistry | EstimatorCounters] = None,
        explain: Optional[ExplainRecorder] = None,
    ):
        self.sketch = sketch
        self.max_depth = max_depth
        self._explain = explain
        # Branch probabilities and value selectivities are shared with the
        # twig estimator; reuse its implementation on the same sketch, and
        # its lookup tally for the per-step lookups.
        self._twig = TwigEstimator(
            sketch, max_depth, metrics=metrics, explain=explain
        )

    def estimate(self, path: Path) -> float:
        """Estimated number of elements in the path's result set."""
        total = 0.0
        try:
            for chain in _chain_expansions(
                self.sketch.graph, None, path, self.max_depth
            ):
                total += self._chain_estimate(chain)
        finally:
            self._twig._flush_lookups()
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_RESULT, "path cardinality", value=total
            )
        return total

    def estimate_query(self, query: TwigQuery) -> float:
        """Estimate a twig query that is a pure chain (no real branching).

        Raises:
            ValueError: when the query is not a chain of single children.
        """
        steps = []
        node: TwigNode | None = query.root
        while node is not None:
            steps.extend(node.path.steps)
            if len(node.children) > 1:
                raise ValueError("PathEstimator only handles chain queries")
            node = node.children[0] if node.children else None
        return self.estimate(Path(tuple(steps)))

    # ------------------------------------------------------------------
    def _chain_estimate(self, chain) -> float:
        graph = self.sketch.graph
        previous_id: int | None = None
        selected = 0.0
        frame = (
            None
            if self._explain is None
            else self._explain.enter(
                _explain.KIND_EMBEDDING, f"chain of {len(chain)} step(s)"
            )
        )
        tally = self._twig._tally
        for node_id, step in chain:
            node_size = graph.node(node_id).count
            if previous_id is None:
                reached = float(node_size)
            else:
                coverage = _safe_ratio(selected, graph.node(previous_id).count)
                reached = self.sketch.edge_child_count(previous_id, node_id) * coverage
            if tally is not None:
                tally["path_step"] += 1
            if step.value_pred is not None:
                reached *= self._twig._value_selectivity(
                    node_id, step.value_pred
                )
            for branch in step.branches:
                alternatives = _embed_branch(
                    graph, node_id, branch, self.max_depth
                )
                if not alternatives:
                    reached = 0.0
                    break
                reached *= self._twig._branch_any(node_id, alternatives)
            if self._explain is not None:
                self._explain.record(
                    _explain.KIND_STEP,
                    f"{graph.node(node_id).tag}#{node_id}",
                    "chain step",
                    reached,
                )
            if reached <= 0:
                selected = 0.0
                break
            selected = reached
            previous_id = node_id
        if frame is not None:
            self._explain.exit(frame, selected)
        return selected
