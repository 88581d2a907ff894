"""Twig selectivity estimation over a Twig XSKETCH (paper Section 4).

The estimator evaluates, per embedding, the paper's selectivity expression

    s(T) = |n_0| · (Π_i Π_{C ∈ U_i} Σ F_i(C)) ·
           Σ_{E_1..E_m} F_0(E_0 | D_0) · ... · F_m(E_m | D_m)

using the TREEPARSE plan and the three statistical assumptions:

* **Forward Independence** — dimensions of a histogram that the query does
  not touch are marginalized away; counts held in different histograms (or
  no histogram) multiply independently.
* **Correlation Scope Independence** — ``F(E | D)`` is computed as
  ``H(E ∪ D) / H(D)`` by conditioning the histogram's points on the
  ancestor values in ``D``; backward counts outside the stored scope are
  dropped from the conditioning.
* **Forward Uniformity** — a child edge covered by no histogram
  contributes its average child count ``|n_i → n_j| / |n_i|``.

Value predicates multiply in the node's value-histogram selectivity
(independence of structure and value, matching the measured prototype);
branch predicates multiply in an existence probability computed from edge
stabilities, stored count distributions, and uniformity fallbacks (the
rules reconstructed from the conference text; see DESIGN.md §3).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from ..histogram import ops
from ..obs import explain as _explain
from ..obs.explain import ExplainRecorder
from ..obs.metrics import MetricsRegistry
from ..query.ast import TwigQuery
from ..synopsis.distributions import EdgeRef
from ..synopsis.summary import SketchChanges, TwigXSketch
from .embeddings import (
    DEFAULT_MAX_DESCENDANT_DEPTH,
    Embedding,
    EmbeddingBudget,
    EmbeddingNode,
    enumerate_embeddings,
)
from .treeparse import HistogramUse, NodePlan, tree_parse

Context = tuple[tuple[EdgeRef, float], ...]


def _safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with the degenerate cases pinned.

    A synopsis node with an empty extent contributes no matches, so a
    zero (or invalid) denominator yields 0.0 rather than
    ``ZeroDivisionError``; a non-finite ratio (NaN/inf from corrupted
    counts) is likewise clamped to 0.0 so estimates stay finite.
    """
    if denominator == 0:
        return 0.0
    try:
        ratio = numerator / denominator
    except (ZeroDivisionError, OverflowError):
        return 0.0
    if not math.isfinite(ratio):
        return 0.0
    return ratio


@dataclass(frozen=True)
class EstimateReport:
    """An estimate plus diagnostics.

    Attributes:
        selectivity: the estimated number of binding tuples.
        embeddings: how many embeddings contributed.
        truncated: True when embedding enumeration hit its cap.
    """

    selectivity: float
    embeddings: int
    truncated: bool


class _Record:
    """One reported query, kept by a recording estimator for :meth:`derive`.

    Holds the embeddings in enumeration order, the truncation flag and each
    embedding's value.  Read sets and the by-signature index are built on
    first use.
    """

    __slots__ = ("embeddings", "truncated", "values", "_reads", "_indexed")

    def __init__(
        self, embeddings: list[Embedding], truncated: bool, values: list[float]
    ):
        self.embeddings = embeddings
        self.truncated = truncated
        self.values = values
        self._reads: Optional[list[tuple[frozenset, frozenset]]] = None
        self._indexed: Optional[dict[tuple, float]] = None

    def reads(self) -> list[tuple[frozenset, frozenset]]:
        """Each embedding's read set: (node ids, edge keys)."""
        if self._reads is None:
            self._reads = [_read_set(e.root) for e in self.embeddings]
        return self._reads

    def by_signature(self) -> dict[tuple, float]:
        """Root signature -> value, per embedding."""
        if self._indexed is None:
            self._indexed = {
                embedding.root.signature(): value
                for embedding, value in zip(self.embeddings, self.values)
            }
        return self._indexed


def _read_set(root: EmbeddingNode) -> tuple[frozenset, frozenset]:
    """The synopsis nodes and edges an embedding's estimate reads.

    Every embedding node, branch-chain nodes included, and every edge
    from a node to a child or to a branch chain's head.  The estimate
    reads nothing else of the sketch but those nodes' statistics, except
    without stored edge counts, when an edge's count reads every incoming
    edge of its target (:meth:`TwigEstimator.derive` covers that case).
    """
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.add(node.node_id)
        for child in node.children:
            edges.add((node.node_id, child.node_id))
            stack.append(child)
        for alternatives in node.branches:
            for head in alternatives:
                edges.add((node.node_id, head.node_id))
                stack.append(head)
    return frozenset(nodes), frozenset(edges)


def _touches(root: EmbeddingNode, changes: SketchChanges) -> bool:
    """True when the embedding's read set (:func:`_read_set`) meets
    ``changes``; stops at the first changed node or edge."""
    nodes, edges = changes
    stack = [root]
    while stack:
        node = stack.pop()
        node_id = node.node_id
        if node_id in nodes:
            return True
        for child in node.children:
            if (node_id, child.node_id) in edges:
                return True
            stack.append(child)
        for alternatives in node.branches:
            for head in alternatives:
                if (node_id, head.node_id) in edges:
                    return True
                stack.append(head)
    return False


class SketchFacts:
    """Caches over one sketch's static facts, filled as estimates read them.

    Node labels, average child counts and positive-count probabilities per
    edge, per valued node its ``(valued, count)`` elements when only some
    carry a value (else ``()``), and marginals keyed by
    ``(id(histogram), kept dims)`` holding
    ``(histogram, marginal points, dim -> position)``: holding the
    histogram keeps its id unique, and refinements replace histograms,
    never change them.  Every value depends on the sketch alone, so
    estimators over one unchanged sketch may share a holder (the serving
    tier keeps one per registered sketch); concurrent fills of one key
    store equal values.
    """

    def __init__(self) -> None:
        self.labels: dict[int, str] = {}
        self.averages: dict[tuple[int, int], float] = {}
        self.positives: dict[tuple[int, int], float] = {}
        self.partly_valued: dict[int, tuple] = {}
        self.marginals: dict[tuple, tuple] = {}


class EstimatorCounters:
    """The estimators' counters in one registry, resolved once.

    A caller that builds an estimator per request (the serving tier)
    resolves them once and passes the same instance as every estimator's
    ``metrics``.
    """

    __slots__ = ("lookups", "estimates", "embeddings")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.lookups = registry.counter(
            "estimator_lookups_total",
            "estimator statistics lookups, by kind",
            ["kind"],
        )
        self.estimates = registry.counter(
            "estimator_estimates_total",
            "twig estimates computed",
        )
        self.embeddings = registry.counter(
            "estimator_embeddings_total",
            "embeddings contributing to estimates",
        )


class TwigEstimator:
    """Estimates twig-query selectivities over one :class:`TwigXSketch`.

    Args:
        sketch: the synopsis to estimate over.
        max_depth: cap on ``//`` expansion length.
        max_embeddings: cap on enumerated embeddings per query.
        metrics: optional registry for lookup counters, or its
            :class:`EstimatorCounters` resolved once — ``None`` (the
            default) records nothing, keeping XBUILD's inner estimation
            loop free of instrumentation cost.  Lookups are tallied per
            kind in the instance and added to the counter when a public
            call returns, so one estimator is not shared between threads.
        explain: optional :class:`~repro.obs.explain.ExplainRecorder`
            capturing the expansion trail and histogram lookups.
        facts: the :class:`SketchFacts` of ``sketch`` to read and fill;
            by default the estimator keeps its own.
    """

    def __init__(
        self,
        sketch: TwigXSketch,
        max_depth: int = DEFAULT_MAX_DESCENDANT_DEPTH,
        max_embeddings: int = 4096,
        branch_conditioning: bool = True,
        *,
        metrics: Optional[MetricsRegistry | EstimatorCounters] = None,
        explain: Optional[ExplainRecorder] = None,
        facts: Optional[SketchFacts] = None,
    ):
        self.sketch = sketch
        self.max_depth = max_depth
        self.max_embeddings = max_embeddings
        #: condition joint histograms on covered branch predicates instead
        #: of assuming branch/count independence (ablation E11)
        self.branch_conditioning = branch_conditioning
        self._explain = explain
        #: query key -> record of its report, once keep_records was called
        self._records: Optional[dict[tuple, _Record]] = None
        #: for a derived estimator: its recording base and the changes
        self._base: Optional[TwigEstimator] = None
        self._changes: Optional[SketchChanges] = None
        facts = facts if facts is not None else SketchFacts()
        self._label_cache = facts.labels
        self._average_cache = facts.averages
        self._positive_cache = facts.positives
        self._partly_valued = facts.partly_valued
        self._marginals = facts.marginals
        if isinstance(metrics, MetricsRegistry):
            metrics = EstimatorCounters(metrics)
        self._counters = metrics
        #: lookups per kind not yet added to ``estimator_lookups_total``
        self._tally: Optional[Counter[str]] = (
            None if metrics is None else Counter()
        )

    def _node_label(self, node_id: int) -> str:
        label = self._label_cache.get(node_id)
        if label is None:
            label = f"{self.sketch.graph.node(node_id).tag}#{node_id}"
            self._label_cache[node_id] = label
        return label

    def _average_child_count(self, parent_id: int, child_id: int) -> float:
        """``|parent -> child| / |parent|``, cached (static per sketch)."""
        key = (parent_id, child_id)
        average = self._average_cache.get(key)
        if average is None:
            average = _safe_ratio(
                self.sketch.edge_child_count(parent_id, child_id),
                self.sketch.graph.node(parent_id).count,
            )
            self._average_cache[key] = average
        return average

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def estimate(self, query: TwigQuery) -> float:
        """Estimated selectivity ``s(T_Q)`` (sum over embeddings)."""
        return self.report(query).selectivity

    def report(self, query: TwigQuery) -> EstimateReport:
        """Estimate with diagnostics."""
        try:
            return self._report(query)
        finally:
            self._flush_lookups()

    def _flush_lookups(self) -> None:
        """Add the tallied lookups to ``estimator_lookups_total``."""
        if self._tally:
            for kind, count in self._tally.items():
                self._counters.lookups.inc(count, kind=kind)
            self._tally.clear()

    def _report(self, query: TwigQuery) -> EstimateReport:
        if self._records is not None:
            record = self._records.get(query.key)
            if record is not None:
                # this estimator already answered the query
                self._count(len(record.embeddings))
                return EstimateReport(
                    sum(record.values), len(record.embeddings),
                    record.truncated,
                )
        if self._base is not None:
            record = self._base._records.get(query.key)
            if record is not None:
                return self._report_derived(query, record)
        budget = EmbeddingBudget(self.max_embeddings)
        embeddings = enumerate_embeddings(
            query, self.sketch.graph, self.max_depth, budget
        )
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_QUERY,
                query.text(),
                f"{len(embeddings)} embeddings"
                + (", truncated" if budget.truncated else ""),
            )
        values = [self._embedding_value(e) for e in embeddings]
        total = sum(values)
        if self._records is not None:
            self._records[query.key] = _Record(
                embeddings, budget.truncated, values
            )
        self._count(len(embeddings))
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_RESULT, "selectivity", value=total
            )
        return EstimateReport(total, len(embeddings), budget.truncated)

    def _report_derived(
        self, query: TwigQuery, record: _Record
    ) -> EstimateReport:
        """:meth:`report` from the base's record of ``query``.

        With the base's graph the embeddings are the base's, and one whose
        read set misses the changes keeps its value.  Otherwise they are
        enumerated again; an embedding that touches a change is valued
        afresh, and an untouched one takes the value of the base's
        embedding with its signature, when there is one.
        """
        changes = self._changes
        values = []
        if self.sketch.graph is self._base.sketch.graph:
            embeddings, truncated = record.embeddings, record.truncated
            for embedding, value, (nodes, edges) in zip(
                embeddings, record.values, record.reads()
            ):
                if not (
                    nodes.isdisjoint(changes.nodes)
                    and edges.isdisjoint(changes.edges)
                ):
                    value = self._embedding_value(embedding)
                values.append(value)
        else:
            budget = EmbeddingBudget(self.max_embeddings)
            embeddings = enumerate_embeddings(
                query, self.sketch.graph, self.max_depth, budget
            )
            truncated = budget.truncated
            # an untouched embedding with a signature the base knows has
            # the same nodes and edges, so the base's value stands
            indexed = None
            for embedding in embeddings:
                value = None
                if not _touches(embedding.root, changes):
                    if indexed is None:
                        indexed = record.by_signature()
                    value = indexed.get(embedding.root.signature())
                if value is None:
                    value = self._embedding_value(embedding)
                values.append(value)
        self._count(len(embeddings))
        return EstimateReport(sum(values), len(embeddings), truncated)

    def _count(self, embeddings: int) -> None:
        counters = self._counters
        if counters is not None:
            counters.estimates.inc()
            counters.embeddings.inc(embeddings)

    def keep_records(self) -> "TwigEstimator":
        """Keep a record of every later :meth:`report` for :meth:`derive`.

        Records live as long as the estimator, so keep them on a short-
        lived base (XBUILD keeps one per round).  A recorded query is
        answered from its record.  An estimator with an explain recorder
        keeps none: its reports always take the full path.  Returns the
        estimator.
        """
        if self._records is None and self._explain is None:
            self._records = {}
        return self

    def derive(self, refined: TwigXSketch) -> "TwigEstimator":
        """An estimator over ``refined``, a refinement of this sketch,
        that reuses this estimator's records (:meth:`keep_records`).

        For a recorded query the derived estimator takes the embeddings
        from the record when both sketches share their graph (enumeration
        reads only the graph) and copies each embedding's value when its
        read set misses the changes ``refined`` recorded
        (:meth:`TwigXSketch.changes_from`).  It recomputes the others and
        sums in enumeration order, so every answer equals a fresh
        ``TwigEstimator(refined)``'s.  Other queries, estimators without
        records or with an explain recorder, and a ``refined`` that is not
        a copy of this sketch as it stands take the full path.
        """
        derived = TwigEstimator(
            refined,
            self.max_depth,
            self.max_embeddings,
            self.branch_conditioning,
            metrics=self._counters,
            explain=self._explain,
        )
        changes = (
            None if self._records is None
            else refined.changes_from(self.sketch)
        )
        if changes is not None:
            if not refined.config.store_edge_counts:
                # without stored counts an edge's child count is
                # apportioned over every incoming edge of its target
                changes = SketchChanges(
                    changes.nodes.union(*changes.edges), changes.edges
                )
            derived._base = self
            derived._changes = changes
        return derived

    def report_many(
        self, queries: Sequence[TwigQuery]
    ) -> list[EstimateReport]:
        """One :meth:`report` per query, in query order."""
        return [self.report(query) for query in queries]

    def _embedding_value(self, embedding: Embedding) -> float:
        plans = tree_parse(embedding, self.sketch, self.branch_conditioning)
        root = embedding.root
        base = float(self.sketch.graph.node(root.node_id).count)
        memo: dict[tuple[int, Context], float] = {}
        if self._explain is None:
            return base * self._expand(root, plans, (), memo)
        frame = self._explain.enter(
            _explain.KIND_EMBEDDING,
            f"root {self._node_label(root.node_id)}",
            f"|root| = {base:g}",
        )
        total = base * self._expand(root, plans, (), memo)
        self._explain.exit(frame, total)
        return total

    # ------------------------------------------------------------------
    # the recursive expansion
    # ------------------------------------------------------------------
    def _expand(
        self,
        node: EmbeddingNode,
        plans: dict[int, NodePlan],
        context: Context,
        memo: dict[tuple, float],
    ) -> float:
        """Expected binding tuples of ``node``'s subtree per element of its
        synopsis node, given the ancestor count assignment ``context``.
        """
        plan = plans[id(node)]
        needed = plan.needed
        relevant = (
            tuple(item for item in context if item[0] in needed)
            if needed and context
            else ()
        )
        key = (id(node), relevant)
        cached = memo.get(key)
        if cached is not None:
            if self._tally is not None:
                self._tally["memo"] += 1
            if self._explain is not None:
                self._explain.record(
                    _explain.KIND_MEMO,
                    self._node_label(node.node_id),
                    "cached subtree factor",
                    cached,
                )
            return cached

        frame = (
            None
            if self._explain is None
            else self._explain.enter(
                _explain.KIND_EXPAND, self._node_label(node.node_id)
            )
        )
        if node.value_pred is None and not node.branches:
            result = 1.0
        else:
            result = self._local_factor(
                node,
                plan.absorbed_branches,
                skip_value_pred=plan.value_pred_absorbed,
            )
        if result > 0:
            for use in plan.extended_uses:
                result *= self._extended_factor(
                    node, use, plans, context, memo
                )
                if result == 0:
                    break
        if result > 0 and (node.children or plan.uses):
            for child in plan.uncovered:
                # Forward Uniformity: |n_i -> n_j| / |n_i| per element.
                average = self._average_child_count(
                    node.node_id, child.node_id
                )
                if self._tally is not None:
                    self._tally["uniform"] += 1
                if self._explain is not None:
                    self._explain.record(
                        _explain.KIND_UNIFORM,
                        f"edge {self._node_label(node.node_id)} -> "
                        f"{self._node_label(child.node_id)}",
                        "forward-uniformity avg child count",
                        average,
                    )
                result *= average
                if result == 0:
                    break
                result *= self._expand(child, plans, context, memo)
            for use in plan.uses:
                if result == 0:
                    break
                result *= self._histogram_factor(
                    node, use, plans, context, memo, bool(needed)
                )
        memo[key] = result
        if frame is not None:
            self._explain.exit(frame, result)
        return result

    def _histogram_factor(
        self,
        node: EmbeddingNode,
        use: HistogramUse,
        plans: dict[int, NodePlan],
        context: Context,
        memo: dict[tuple, float],
        extend: bool,
    ) -> float:
        """``Σ_points mass · Π_E (count · child expansion)`` conditioned on D.

        Marginalizes unused dimensions first (Forward Independence), then
        conditions on the ancestor values of the D dimensions (Correlation
        Scope Independence).  Only with ``extend`` (some node of the
        subtree conditions on a count) are the expanded counts appended
        to the context the children see.
        """
        kept = use.kept
        histogram = use.histogram
        marginal = self._marginals.get((id(histogram), kept))
        if marginal is None:
            # Forward Independence: drop the dimensions the query leaves
            # untouched, once per histogram and kept set
            points = histogram.points()
            if len(kept) < histogram.dimensions:
                points = ops.marginalize(points, kept)
            remap = {dim: position for position, dim in enumerate(kept)}
            marginal = (histogram, points, remap)
            self._marginals[(id(histogram), kept)] = marginal
        _, points, remap = marginal
        assignment = None
        if use.conditions and context:
            context_map = dict(context)
            assignment = {
                remap[dim]: context_map[ref]
                for dim, ref in use.conditions.items()
                if ref in context_map
            }
        if assignment:
            surviving = [p for p in remap.values() if p not in assignment]
            points = ops.condition(points, assignment)
            remap = {
                dim: surviving.index(position)
                for dim, position in remap.items()
                if position not in assignment
            }

        branch_rates = (
            [
                (remap[dim], self._per_child_satisfaction(chain))
                for dim, chain in use.branch_conditions.items()
            ]
            if use.branch_conditions
            else ()
        )
        scope = histogram.scope
        expansion = use.expansion

        total = 0.0
        for vector, mass in points:
            term = mass
            for position, chain_rate in branch_rates:
                count = vector[position]
                if count <= 0 or chain_rate <= 0:
                    term = 0.0
                    break
                # P(some witness child satisfies the branch | count)
                term *= 1.0 - (1.0 - chain_rate) ** count
            if term == 0:
                continue
            # no node below conditions on a count: the context is unread
            extended: Optional[Context] = None if extend else context
            for dim, children in expansion.items():
                count = vector[remap[dim]]
                if count <= 0:
                    term = 0.0
                    break
                if extended is None:
                    extended = context + tuple(
                        (scope[d], vector[remap[d]]) for d in expansion
                    )
                for child in children:
                    term *= count * self._expand(child, plans, extended, memo)
                    if term == 0:
                        break
                if term == 0:
                    break
            total += term
        if self._tally is not None:
            self._tally["histogram"] += 1
        if self._explain is not None:
            scope_text = ",".join(
                f"{ref.source}->{ref.target}" for ref in scope
            )
            self._explain.record(
                _explain.KIND_HISTOGRAM,
                f"H[{scope_text}] at {self._node_label(node.node_id)}",
                f"{len(points)} points, {len(assignment or ())} conditioned, "
                f"{len(use.expansion)} expanding dims",
                total,
            )
        return total

    # ------------------------------------------------------------------
    # local predicates
    # ------------------------------------------------------------------
    def _extended_factor(
        self,
        node: EmbeddingNode,
        use,
        plans,
        context: Context,
        memo,
    ) -> float:
        """One extended-value-histogram factor:

        ``P(value predicate) × Σ_points mass · Π (count · child expansion)``

        over the count distribution *conditioned on the predicate* — the
        paper's value↔structure correlation in action.
        """
        match = use.summary.histogram.match_mass(use.predicate)
        if self._tally is not None:
            self._tally["extended"] += 1
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_EXTENDED,
                f"extended value histogram at "
                f"{self._node_label(node.node_id)}",
                f"P(value pred) with {len(use.expansion)} expanding dims",
                match,
            )
        if match <= 0:
            return 0.0
        factor = match
        if use.expansion:
            points = use.summary.histogram.conditional_points(use.predicate)
            total = 0.0
            for vector, mass in points:
                term = mass
                for dim, children in use.expansion.items():
                    count = vector[dim]
                    if count <= 0:
                        term = 0.0
                        break
                    for child in children:
                        term *= count * self._expand(
                            child, plans, context, memo
                        )
                        if term == 0:
                            break
                    if term == 0:
                        break
                total += term
            factor *= total
        return factor

    def _local_factor(
        self,
        node: EmbeddingNode,
        absorbed_branches: frozenset | set = frozenset(),
        skip_value_pred: bool = False,
    ) -> float:
        """Value-predicate selectivity × branch-existence probabilities.

        Branches listed in ``absorbed_branches`` are handled inside a
        histogram factor (branch conditioning or an extended value
        histogram) and skipped here, as is the node's own value predicate
        when an extended histogram consumed it.
        """
        factor = 1.0
        if node.value_pred is not None and not skip_value_pred:
            factor *= self._value_selectivity(node.node_id, node.value_pred)
        for index, alternatives in enumerate(node.branches):
            if index in absorbed_branches:
                continue
            factor *= self._branch_any(node.node_id, alternatives)
            if factor == 0:
                return 0.0
        return factor

    def _value_selectivity(self, node_id: int, predicate) -> float:
        """Fraction of the node's elements whose value satisfies
        ``predicate``; elements without values (no value histogram stored)
        cannot match.  The histogram's fraction is one of the valued
        elements, so on a node where only some elements carry a value it
        is scaled by their share."""
        summary = self.sketch.value_summary(node_id)
        if summary is None:
            selectivity = 0.0
        else:
            selectivity = summary.histogram.selectivity(predicate)
            partly = self._partly_valued.get(node_id)
            if partly is None:
                valued = summary.total
                count = self.sketch.graph.node(node_id).count
                partly = self._partly_valued[node_id] = (
                    (valued, count)
                    if valued is not None and valued < count else ()
                )
            if partly:
                valued, count = partly
                selectivity = selectivity * valued / count
        if self._tally is not None:
            self._tally["value"] += 1
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_VALUE,
                f"value predicate at {self._node_label(node_id)}",
                "no value histogram stored" if summary is None else "",
                selectivity,
            )
        return selectivity

    # ------------------------------------------------------------------
    # branch predicates
    # ------------------------------------------------------------------
    def _branch_any(
        self, node_id: int, alternatives: Sequence[EmbeddingNode]
    ) -> float:
        """P(at least one alternative chain exists): 1 − Π(1 − p_i)."""
        miss = 1.0
        for chain in alternatives:
            miss *= 1.0 - self._branch_chain(node_id, chain)
            if miss == 0:
                break
        if self._tally is not None:
            self._tally["branch"] += 1
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_BRANCH,
                f"branch at {self._node_label(node_id)}",
                f"{len(alternatives)} alternative chain(s)",
                1.0 - miss,
            )
        return 1.0 - miss

    def _branch_chain(self, parent_id: int, chain: EmbeddingNode) -> float:
        """P(an element of ``parent_id`` has the existential chain).

        Decomposes into P(≥ 1 child in the chain head's node) times the
        probability that a child satisfies the rest; with ``r`` the child's
        own satisfaction probability and ``k̄`` the mean child count among
        elements that have children, the head factor is
        ``q · (1 − (1 − r)^k̄)`` — exact for r ∈ {0, 1}.
        """
        graph = self.sketch.graph
        edge = graph.edge(parent_id, chain.node_id)
        if edge is None:
            return 0.0
        mean_count = self._average_child_count(parent_id, chain.node_id)
        probability_positive = self._positive_probability(
            parent_id, chain.node_id, edge, mean_count
        )
        if probability_positive <= 0:
            return 0.0

        per_child = self._per_child_satisfaction(chain)
        if per_child >= 1.0:
            return probability_positive
        average_given_positive = max(1.0, mean_count / probability_positive)
        return probability_positive * (
            1.0 - (1.0 - per_child) ** average_given_positive
        )

    def _per_child_satisfaction(self, chain: EmbeddingNode) -> float:
        """P(one specific child of the chain's node satisfies the chain):
        its own predicates times the probability of the remaining steps."""
        rate = self._local_factor(chain)
        if chain.children:
            rate *= self._branch_chain(chain.node_id, chain.children[0])
        return min(1.0, max(0.0, rate))

    def _positive_probability(
        self, parent_id: int, child_id: int, edge, mean_count: float
    ) -> float:
        """P(element of parent has ≥ 1 child in child node).

        F-stable edge → 1; a stored histogram covering the edge → mass of
        positive counts; otherwise ``min(1, mean count)`` (uniformity).
        """
        cached = self._positive_cache.get((parent_id, child_id))
        if cached is not None:
            return cached
        if edge.forward_stable:
            probability = 1.0
        else:
            ref = EdgeRef(parent_id, child_id)
            for histogram in self.sketch.histograms_at(parent_id):
                dim = histogram.index_of(ref)
                if dim is not None:
                    probability = ops.mass_where_positive(
                        histogram.points(), dim
                    )
                    break
            else:
                probability = min(1.0, mean_count)
        self._positive_cache[(parent_id, child_id)] = probability
        return probability

