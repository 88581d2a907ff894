"""The Twig XSKETCH summary (paper Definition 3.1).

A :class:`TwigXSketch` is a graph synopsis whose edges carry stability
labels, plus per-node *edge histograms* approximating edge distributions
and per-node *value histograms* approximating value distributions.

One generalization over the paper's "one histogram per node" phrasing:
each node holds a *list* of edge histograms with disjoint scopes.  This is
needed to express the paper's own initial synopsis ("single-dimensional
edge-histograms that cover path counts to forward-stable children only" —
one per F-stable child edge) inside Definition 3.1's model; counts held in
different histograms of the same node are combined under the Forward
Independence assumption, exactly as counts outside a single histogram's
scope would be.  The ``edge-expand`` refinement merges histograms into
higher-dimensional ones, recovering joint information.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from ..doc.tree import DocumentTree
from ..errors import SynopsisError
from ..histogram.centroid import CentroidHistogram
from ..histogram.sparse import SparseDistribution
from ..histogram.value import (
    build_value_histogram,
    value_bucket_count,
    value_counts,
)
from ..histogram.wavelet import WaveletHistogram
from . import size as sizing
from .distributions import (
    EdgeRef,
    child_counts,
    counts_minus,
    exact_edge_counts,
    forward_columns,
    marginal_counts,
)
from .graph import GraphSynopsis, SynopsisNode, label_split_synopsis

ENGINES = ("centroid", "wavelet", "exact")


@dataclass(frozen=True)
class XSketchConfig:
    """Tuning knobs of a Twig XSKETCH.

    Attributes:
        engine: histogram engine for edge distributions (:data:`ENGINES`).
        initial_edge_buckets: bucket budget of the histograms created for
            a fresh (coarsest or newly split) node.
        initial_value_buckets: bucket budget of fresh value histograms.
        store_edge_counts: store per-edge child counts (charged 4 bytes per
            edge); when False the estimator falls back to stability-based
            apportioning (ablation E8).
        include_backward: allow construction to propose backward counts
            (the paper's measured prototype does not; the full model does).
        max_histogram_dims: cap on edge-histogram dimensionality.
    """

    engine: str = "centroid"
    initial_edge_buckets: int = 2
    initial_value_buckets: int = 2
    store_edge_counts: bool = True
    include_backward: bool = False
    max_histogram_dims: int = 3
    #: bucket budgets of extended value histograms created by value-expand
    extended_value_buckets: int = 6
    extended_count_buckets: int = 8

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise SynopsisError(f"unknown histogram engine {self.engine!r}")


@dataclass
class EdgeHistogram:
    """One stored edge histogram: a scope and a compression engine.

    A histogram built from a document keeps ``counts``, its exact integer
    counts (how many elements realize each count vector), so that
    refinements derive their histograms from it instead of rescanning
    extents.  Like extents, the counts are construction scaffolding: never
    sized or persisted, and None on a loaded histogram.
    """

    node_id: int
    scope: tuple[EdgeRef, ...]
    engine: object
    budget: int
    counts: Optional[Counter] = field(default=None, repr=False, compare=False)

    @property
    def dimensions(self) -> int:
        """Number of count dimensions (== len(scope))."""
        return len(self.scope)

    def points(self):
        """Delegate to the engine: (count vector, mass) representatives."""
        return self.engine.points()

    def bucket_count(self) -> int:
        """Stored buckets/coefficients (≤ budget)."""
        return self.engine.bucket_count()

    def index_of(self, ref: EdgeRef) -> Optional[int]:
        """Dimension index of ``ref`` in this histogram, or None."""
        try:
            return self.scope.index(ref)
        except ValueError:
            return None

    def size_bytes(self) -> int:
        """Stored size under the DESIGN.md cost model."""
        return sizing.edge_histogram_bytes(self.dimensions, self.bucket_count())


class ValueSummary:
    """One stored value histogram plus its budget.

    A summary built from a document keeps ``counts``, the exact multiset
    of its node's values (:func:`~repro.histogram.value.value_counts`),
    and the node's extent.  The engine is built from the extent on the
    first read of :attr:`histogram`; :meth:`bucket_count` and
    :meth:`size_bytes` read the counts, so a summary replaced unread never
    builds one.  (The extent, not the counts, feeds the engine: the string
    engine breaks frequency ties by first occurrence, which a multiset
    does not keep.)  The counts are construction scaffolding like
    extents: never sized or persisted, and a loaded summary, given its
    engine, has none.
    """

    def __init__(
        self,
        node_id: int,
        histogram,
        budget: int,
        counts: Optional[Counter] = None,
        extent: Optional[Sequence] = None,
    ):
        self.node_id = node_id
        self.budget = budget
        self.counts = counts
        self._histogram = histogram
        self._extent = extent
        self._bucket_count: Optional[int] = None

    @property
    def histogram(self):
        """The value engine, built on first read.  Concurrent first reads
        build equal engines, and the last one written is kept."""
        engine = self._histogram
        if engine is None:
            engine = self._histogram = build_value_histogram(
                [e.value for e in self._extent if e.value is not None],
                self.budget,
            )
        return engine

    @property
    def total(self):
        """The number of valued elements summarized (the engine's
        ``total`` on a loaded summary)."""
        if self.counts is None:
            return getattr(self.histogram, "total", None)
        return sum(self.counts.values())

    def bucket_count(self) -> int:
        """The engine's stored buckets, from the counts when kept."""
        if self.counts is None:
            return self.histogram.bucket_count()
        count = self._bucket_count
        if count is None:
            count = self._bucket_count = value_bucket_count(
                self.counts, self.budget
            )
        return count

    def size_bytes(self) -> int:
        """Stored size under the DESIGN.md cost model."""
        return sizing.value_histogram_bytes(self.bucket_count())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ValueSummary #{self.node_id} budget={self.budget}>"


@dataclass
class ExtendedValueSummary:
    """One extended value histogram ``H^v(V, C1..Ck)`` (paper §3.2, end).

    Attributes:
        node_id: the synopsis node whose elements are summarized.
        value_tag: where the value dimension comes from — ``None`` for the
            element's own value, or the tag of the (first) child carrying
            the value (e.g. a movie's ``type`` child).  Referencing the
            source by tag keeps the summary meaningful across structural
            splits of the value-carrying node.
        scope: the count dimensions (forward EdgeRefs at ``node_id``).
        histogram: a :class:`~repro.histogram.joint.ValueCountHistogram`.
    """

    node_id: int
    value_tag: Optional[str]
    scope: tuple[EdgeRef, ...]
    histogram: object
    value_budget: int
    count_budget: int

    def size_bytes(self) -> int:
        """Stored size under the DESIGN.md cost model."""
        return sizing.extended_histogram_bytes(
            len(self.scope),
            self.histogram.bucket_count(),
            self.histogram.count_point_total(),
        )


class SketchChanges(NamedTuple):
    """What a refined sketch changed over its base
    (:meth:`TwigXSketch.changes_since`).

    Attributes:
        nodes: ids of the nodes that live in only one of the sketches, or
            whose count, tag or statistics objects differ.
        edges: keys of the edges added, removed or recounted.
    """

    nodes: set[int]
    edges: set[tuple[int, int]]


class TwigXSketch:
    """Graph synopsis + stabilities + edge/value histograms.

    Create with :meth:`coarsest` and refine through the operations in
    :mod:`repro.build`; estimate twig selectivities with
    :class:`repro.estimation.estimator.TwigEstimator`.
    """

    def __init__(self, graph: GraphSynopsis, config: XSketchConfig):
        self.graph = graph
        self.config = config
        # per node, tuples: a refinement replaces a node's tuple, never
        # edits it, so copies share them
        self.edge_stats: dict[int, tuple[EdgeHistogram, ...]] = {}
        self.value_stats: dict[int, ValueSummary] = {}
        self.extended_stats: dict[int, tuple[ExtendedValueSummary, ...]] = {}
        #: True while ``graph`` may be shared with a copy (see :meth:`copy`)
        self._graph_shared = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def coarsest(
        cls, tree: DocumentTree, config: Optional[XSketchConfig] = None
    ) -> "TwigXSketch":
        """The label-split synopsis ``S_0(G)`` with the paper's initial
        statistics: one 1-D edge histogram per F-stable child edge, plus a
        small value histogram per valued node."""
        sketch = cls(label_split_synopsis(tree), config or XSketchConfig())
        for node in sketch.graph.iter_nodes():
            sketch.install_default_stats(node.node_id)
        return sketch

    def install_default_stats(
        self,
        node_id: int,
        edge_buckets: Optional[int] = None,
        value_buckets: Optional[int] = None,
        edge_counts: Optional[dict[int, Counter]] = None,
        values: Optional[Counter] = None,
    ) -> None:
        """(Re)install the fresh-node statistics for ``node_id``.

        Bucket budgets default to the configuration's initial values; a
        node created by splitting inherits its parent's budgets so earlier
        edge-refine / value-refine work survives structural refinements.
        ``edge_counts`` (by target) and ``values`` hold counts a split
        derived; what they do not hold is scanned.
        """
        edge_buckets = edge_buckets or self.config.initial_edge_buckets
        value_buckets = value_buckets or self.config.initial_value_buckets
        edge_counts = edge_counts or {}
        histograms: list[EdgeHistogram] = []
        for edge in self.graph.children_of(node_id):
            if edge.forward_stable:
                histograms.append(
                    self.make_edge_histogram(
                        node_id,
                        (EdgeRef(node_id, edge.target),),
                        edge_buckets,
                        edge_counts.get(edge.target),
                    )
                )
        if histograms:
            self.edge_stats[node_id] = tuple(histograms)
        else:
            self.edge_stats.pop(node_id, None)
        summary = self.make_value_summary(node_id, value_buckets, values)
        if summary is not None:
            self.value_stats[node_id] = summary
        else:
            self.value_stats.pop(node_id, None)

    def make_edge_histogram(
        self,
        node_id: int,
        scope: Sequence[EdgeRef],
        buckets: int,
        counts: Optional[Counter] = None,
    ) -> EdgeHistogram:
        """Build a histogram over ``scope`` from its exact counts: the
        ``counts`` a caller derived, else a scan of the node's extent
        (:func:`~repro.synopsis.distributions.exact_edge_counts`)."""
        if len(scope) > self.config.max_histogram_dims:
            raise SynopsisError(
                f"scope of {len(scope)} dims exceeds the configured cap "
                f"of {self.config.max_histogram_dims}"
            )
        if counts is None:
            counts = exact_edge_counts(self.graph, node_id, scope)
        exact = SparseDistribution(counts)
        engine: object
        if self.config.engine == "exact":
            engine = exact
        elif self.config.engine == "wavelet":
            engine = WaveletHistogram(exact, buckets)
        else:
            engine = CentroidHistogram(exact, buckets)
        return EdgeHistogram(node_id, tuple(scope), engine, buckets, counts)

    def make_extended_summary(
        self,
        node_id: int,
        value_tag: Optional[str],
        scope: Sequence[EdgeRef],
        value_buckets: int,
        count_buckets: int,
    ) -> ExtendedValueSummary:
        """Build an extended value histogram ``H^v(V, C1..Ck)``.

        The value observation per element is its own value
        (``value_tag=None``) or the first value among its children tagged
        ``value_tag`` — well-defined for the single-occurrence children
        (``type``, ``year``) these summaries target.  The count
        observations are the forward counts of
        :func:`~repro.synopsis.distributions.forward_columns`.

        Raises:
            SynopsisError: for an empty scope, a missing edge, or a scope
                exceeding the dimensionality cap.
        """
        from ..histogram.joint import ValueCountHistogram

        scope = tuple(scope)
        if not scope:
            raise SynopsisError("extended summary needs count dimensions")
        if len(scope) > self.config.max_histogram_dims:
            raise SynopsisError(
                f"scope of {len(scope)} dims exceeds the configured cap"
            )
        for ref in scope:
            if self.graph.edge(ref.source, ref.target) is None:
                raise SynopsisError(
                    f"extended summary references missing edge "
                    f"{ref.source}->{ref.target}"
                )

        extent = self.graph.node(node_id).extent
        values = [element.value for element in extent]
        if value_tag is not None:
            index = self.graph.tree.child_index()
            for position, element in enumerate(extent):
                children = index[element.node_id].get(value_tag, ())
                values[position] = next(
                    (c.value for c in children if c.value is not None), None
                )
        counts = zip(*forward_columns(
            self.graph, node_id, [ref.target for ref in scope]
        ))
        histogram = ValueCountHistogram(
            list(zip(values, counts)), value_buckets, count_buckets
        )
        return ExtendedValueSummary(
            node_id, value_tag, scope, histogram, value_buckets, count_buckets
        )

    def extended_at(self, node_id: int) -> tuple[ExtendedValueSummary, ...]:
        """The extended value summaries stored for ``node_id``."""
        return self.extended_stats.get(node_id, ())

    def make_value_summary(
        self, node_id: int, buckets: int, counts: Optional[Counter] = None
    ) -> Optional[ValueSummary]:
        """A value summary for ``node_id`` over the multiset of its values:
        the ``counts`` a caller derived, else a scan of the node's extent.
        None when valueless.  The engine is built on first read."""
        extent = self.graph.node(node_id).extent
        if counts is None:
            counts = value_counts(
                e.value for e in extent if e.value is not None
            )
        if not counts:
            return None
        return ValueSummary(node_id, None, buckets, counts, extent)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def histograms_at(self, node_id: int) -> tuple[EdgeHistogram, ...]:
        """The edge histograms stored for ``node_id`` (possibly empty)."""
        return self.edge_stats.get(node_id, ())

    def value_summary(self, node_id: int) -> Optional[ValueSummary]:
        """The value histogram stored for ``node_id``, if any."""
        return self.value_stats.get(node_id)

    def edge_child_count(self, source: int, target: int) -> float:
        """Estimate of ``|n_source → n_target|``.

        Uses the stored per-edge count when the configuration allows it;
        otherwise falls back to stability: a B-stable edge contributes the
        whole target extent, an unstable edge apportions the target extent
        across its incoming edges proportionally to source sizes.
        """
        edge = self.graph.edge(source, target)
        if edge is None:
            return 0.0
        if self.config.store_edge_counts:
            return float(edge.child_count)
        target_size = self.graph.node(target).count
        if edge.backward_stable:
            return float(target_size)
        incoming = self.graph.parents_of(target)
        total_source = sum(self.graph.node(e.source).count for e in incoming)
        if total_source <= 0:
            return 0.0
        return target_size * self.graph.node(source).count / total_source

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Stored size of the synopsis under the DESIGN.md cost model."""
        total = sizing.graph_bytes(
            self.graph.node_count,
            self.graph.edge_count,
            self.config.store_edge_counts,
        )
        for histograms in self.edge_stats.values():
            total += sum(h.size_bytes() for h in histograms)
        for summary in self.value_stats.values():
            total += summary.size_bytes()
        for summaries in self.extended_stats.values():
            total += sum(s.size_bytes() for s in summaries)
        return total

    def size_kb(self) -> float:
        """Stored size in kilobytes (the Figure 9 x-axis)."""
        return sizing.as_kb(self.size_bytes())

    # ------------------------------------------------------------------
    # refinement support
    # ------------------------------------------------------------------
    def copy(self) -> "TwigXSketch":
        """Independent copy; the graph is shared copy-on-write.

        Both sketches keep one :class:`GraphSynopsis` until either splits
        a node: :meth:`split_node` copies the graph first.  A statistics-
        only refinement therefore never copies the graph.  The per-node
        statistics tuples are shared: every writer replaces a node's
        tuple, so only the three dicts are copied.
        """
        self._graph_shared = True
        duplicate = TwigXSketch(self.graph, self.config)
        duplicate._graph_shared = True
        duplicate.edge_stats = dict(self.edge_stats)
        duplicate.value_stats = dict(self.value_stats)
        duplicate.extended_stats = dict(self.extended_stats)
        return duplicate

    def split_node(self, node_id: int, part: set[int]) -> tuple[int, int]:
        """Split a node and migrate statistics.

        The two new nodes get fresh default statistics; histograms at other
        nodes whose scope references an edge incident to the split node are
        rebuilt with a remapped scope (same budget).  Both are derived from
        the retained counts at the cost of the smaller part, where that is
        exact (:meth:`_part_counts`, :meth:`_remapped_counts`).

        Returns the two new node ids.
        """
        if self._graph_shared:
            self.graph = self.graph.copy()
            self._graph_shared = False
        stale_refs_by_node = self._scopes_mentioning(node_id)
        old_histograms = self.edge_stats.get(node_id, [])
        inherited_edge_buckets = max(
            (h.budget for h in old_histograms),
            default=self.config.initial_edge_buckets,
        )
        old_value = self.value_stats.get(node_id)
        inherited_value_buckets = (
            old_value.budget if old_value is not None
            else self.config.initial_value_buckets
        )
        own_extended = self.extended_stats.get(node_id, [])
        first, second = self.graph.split_node(node_id, part)
        self.edge_stats.pop(node_id, None)
        self.value_stats.pop(node_id, None)
        self.extended_stats.pop(node_id, None)
        # Extended summaries at other nodes referencing the split node are
        # dropped (construction re-proposes them when still valuable).
        for other_id in list(self.extended_stats):
            kept = tuple(
                summary
                for summary in self.extended_stats[other_id]
                if not any(
                    ref.source == node_id or ref.target == node_id
                    for ref in summary.scope
                )
            )
            if kept:
                self.extended_stats[other_id] = kept
            else:
                del self.extended_stats[other_id]
        small, large = sorted(
            (self.graph.node(first), self.graph.node(second)),
            key=attrgetter("count"),
        )
        edge_counts, values = self._part_counts(
            node_id, small, large, old_histograms, old_value
        )
        for part_id in (first, second):
            self.install_default_stats(
                part_id,
                inherited_edge_buckets,
                inherited_value_buckets,
                edge_counts[part_id],
                values[part_id],
            )
        # The split node's own extended summaries are rebuilt per part
        # (remapping the count scope to the edges each part retains), so
        # value-expand work survives structural refinement.
        for part_id in (first, second):
            rebuilt: list[ExtendedValueSummary] = []
            for summary in own_extended:
                scope = tuple(
                    EdgeRef(part_id, ref.target)
                    for ref in summary.scope
                    if self.graph.edge(part_id, ref.target) is not None
                )
                if not scope:
                    continue
                rebuilt.append(
                    self.make_extended_summary(
                        part_id,
                        summary.value_tag,
                        scope,
                        summary.value_budget,
                        summary.count_budget,
                    )
                )
            if rebuilt:
                self.extended_stats[part_id] = tuple(rebuilt)
        small_parents = (
            _parents_by_node(small, self.graph.assignment)
            if stale_refs_by_node else {}
        )
        for other_id, histograms in stale_refs_by_node.items():
            if other_id == node_id or other_id not in self.edge_stats:
                continue
            rebuilt: list[EdgeHistogram] = []
            for histogram in self.edge_stats[other_id]:
                if histogram in histograms:
                    remapped = self._remap_scope(
                        other_id, histogram.scope, node_id, (first, second)
                    )
                    if remapped:
                        rebuilt.append(
                            self.make_edge_histogram(
                                other_id,
                                remapped,
                                histogram.budget,
                                self._remapped_counts(
                                    histogram,
                                    remapped,
                                    node_id,
                                    small,
                                    large,
                                    small_parents.get(other_id, {}),
                                ),
                            )
                        )
                else:
                    rebuilt.append(histogram)
            if rebuilt:
                self.edge_stats[other_id] = tuple(rebuilt)
            else:
                self.edge_stats.pop(other_id, None)
        return first, second

    def _part_counts(
        self,
        old_id: int,
        small: SynopsisNode,
        large: SynopsisNode,
        old_histograms: list[EdgeHistogram],
        old_value: Optional[ValueSummary],
    ) -> tuple[dict[int, dict[int, Counter]], dict[int, Optional[Counter]]]:
        """The counts of the default statistics of the parts of split node
        ``old_id``: per part, its edge counts by F-stable target and its
        value counts, scanning only the ``small`` part S.

        The ``large`` part L's counts over an edge are the old node's
        retained counts, marginalized onto that edge, minus S's; L's values
        are the old node's minus S's.  Where that is not exact, L's counts
        are left out, so :meth:`install_default_stats` scans them: an edge
        the old node's histograms do not cover (one that is F-stable only
        at L, or one into a part of a recursive node), and the values of a
        node that kept no value summary while its tag carries values.
        """
        graph = self.graph
        covered = {
            ref.target: (histogram.counts, dim)
            for histogram in old_histograms
            if histogram.counts is not None
            for dim, ref in enumerate(histogram.scope)
            if ref.source == old_id
        }
        small_id, large_id = small.node_id, large.node_id
        derived = [
            edge.target
            for edge in graph.children_of(large_id)
            if edge.forward_stable and edge.target in covered
        ]
        targets = list(dict.fromkeys([
            edge.target
            for edge in graph.children_of(small_id)
            if edge.forward_stable
        ] + derived))
        small_counts = {
            target: Counter(zip(column))
            for target, column in zip(
                targets, forward_columns(graph, small_id, targets)
            )
        }
        large_counts = {}
        for target in derived:
            known, dim = covered[target]
            large_counts[target] = counts_minus(
                marginal_counts(known, dim), small_counts[target]
            )

        small_values = value_counts(
            e.value for e in small.extent if e.value is not None
        )
        large_values: Optional[Counter] = None  # scanned
        if old_value is not None and old_value.counts is not None:
            large_values = counts_minus(old_value.counts, small_values)
        elif not small_values and small.tag not in graph.tree.valued_tags():
            large_values = Counter()
        return (
            {small_id: small_counts, large_id: large_counts},
            {small_id: small_values, large_id: large_values},
        )

    def _remapped_counts(
        self,
        histogram: EdgeHistogram,
        scope: tuple[EdgeRef, ...],
        old_id: int,
        small: SynopsisNode,
        large: SynopsisNode,
        small_parents: dict[int, int],
    ) -> Optional[Counter]:
        """The counts of ``histogram``, remapped to ``scope`` after
        ``old_id`` split into ``small`` (S) and ``large`` (L); None (scan
        instead) when the histogram has a backward ref or kept no counts.

        An element keeps its counts on every other edge.  The old counts
        are first mapped as though each element's children in the split
        node all lay in L.  Only the elements with a child in S are wrong
        then: ``small_parents`` counts, per such element, its children in
        S.  Each is corrected from its row in the document's child index,
        so neither L nor the histogram's node is scanned.
        """
        node_id, old_scope = histogram.node_id, histogram.scope
        if histogram.counts is None or any(
            ref.source != node_id for ref in old_scope
        ):
            return None
        split_dim = old_scope.index(EdgeRef(node_id, old_id))
        # each new dimension reads an old one (>= 0), S (-1) or L (-2)
        picks = [
            -1 if ref.target == small.node_id
            else -2 if ref.target == large.node_id
            else old_scope.index(ref)
            for ref in scope
        ]
        counts: Counter = Counter()
        for vector, count in histogram.counts.items():
            counts[_remap(vector, picks, split_dim, 0)] += count
        rows = zip(*child_counts(
            self.graph,
            list(small_parents),
            [
                (small.node_id, large.node_id) if ref.target == old_id
                else (ref.target,)
                for ref in old_scope
            ],
        ))
        for row, small_count in zip(rows, small_parents.values()):
            counts[_remap(row, picks, split_dim, 0)] -= 1
            counts[_remap(row, picks, split_dim, small_count)] += 1
        return +counts

    def changes_since(self, base: "TwigXSketch") -> SketchChanges:
        """The nodes and edges whose statistics differ from ``base``.

        Statistics objects are compared by identity: a refinement rebuilds
        every histogram it touches and keeps the others.  A graph shared
        with ``base`` (see :meth:`copy`) is not walked.
        """
        nodes: set[int] = set()
        for ours, theirs in (
            (self.edge_stats, base.edge_stats),
            (self.extended_stats, base.extended_stats),
        ):
            for node_id in ours.keys() | theirs.keys():
                mine, other = ours.get(node_id, ()), theirs.get(node_id, ())
                if len(mine) != len(other) or any(
                    a is not b for a, b in zip(mine, other)
                ):
                    nodes.add(node_id)
        for node_id in self.value_stats.keys() | base.value_stats.keys():
            if self.value_stats.get(node_id) is not base.value_stats.get(
                node_id
            ):
                nodes.add(node_id)
        edges: set[tuple[int, int]] = set()
        if self.graph is not base.graph:
            ours, theirs = self.graph.nodes, base.graph.nodes
            for node_id in ours.keys() | theirs.keys():
                mine, other = ours.get(node_id), theirs.get(node_id)
                if (
                    mine is None
                    or other is None
                    or (mine.count, mine.tag) != (other.count, other.tag)
                ):
                    nodes.add(node_id)
            ours, theirs = self.graph.edges, base.graph.edges
            edges.update(
                key
                for key in ours.keys() | theirs.keys()
                if ours.get(key) != theirs.get(key)
            )
        return SketchChanges(nodes, edges)

    def _scopes_mentioning(self, node_id: int) -> dict[int, list[EdgeHistogram]]:
        stale: dict[int, list[EdgeHistogram]] = {}
        for other_id, histograms in self.edge_stats.items():
            touched = [
                h
                for h in histograms
                if any(r.source == node_id or r.target == node_id for r in h.scope)
            ]
            if touched:
                stale[other_id] = touched
        return stale

    def _remap_scope(
        self,
        node_id: int,
        scope: tuple[EdgeRef, ...],
        old_id: int,
        new_ids: tuple[int, int],
    ) -> tuple[EdgeRef, ...]:
        """Replace refs to a split node with refs to its surviving pieces.

        A ref whose *target* was split maps to the piece(s) that still form
        an edge with the source, preferring the piece with the larger child
        count when the dimensionality cap forbids keeping both.  A ref
        whose *source* (anchor) was split is dropped — the anchor identity
        is ambiguous after the split and the construction algorithm will
        re-propose it if still valuable.
        """
        remapped: list[EdgeRef] = []
        for ref in scope:
            if ref.source == old_id:
                continue
            if ref.target != old_id:
                if self.graph.edge(ref.source, ref.target) is not None:
                    remapped.append(ref)
                continue
            candidates = [
                EdgeRef(ref.source, new_id)
                for new_id in new_ids
                if self.graph.edge(ref.source, new_id) is not None
            ]
            candidates.sort(
                key=lambda r: self.graph.edge(r.source, r.target).child_count,
                reverse=True,
            )
            room = self.config.max_histogram_dims - len(remapped) - (
                len(scope) - scope.index(ref) - 1
            )
            remapped.extend(candidates[: max(1, room)])
        deduped = tuple(dict.fromkeys(remapped))
        return deduped[: self.config.max_histogram_dims]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TwigXSketch nodes={self.graph.node_count} "
            f"edges={self.graph.edge_count} size={self.size_kb():.1f}KB>"
        )


def _parents_by_node(
    part: SynopsisNode, assignment: list[int]
) -> dict[int, dict[int, int]]:
    """Per synopsis node, how many children in ``part`` each of its
    elements has (only elements with at least one)."""
    counts = Counter([
        element.parent.node_id
        for element in part.extent
        if element.parent is not None
    ])
    grouped: dict[int, dict[int, int]] = {}
    for parent_id, count in counts.items():
        grouped.setdefault(assignment[parent_id], {})[parent_id] = count
    return grouped


def _remap(
    vector: tuple[int, ...],
    picks: list[int],
    split_dim: int,
    small_count: int,
) -> tuple[int, ...]:
    """``vector``, an element's old counts, over a remapped scope: each
    of ``picks`` reads an old dimension (>= 0), the element's
    ``small_count`` children in S (-1), or the rest of its children in the
    split node, at ``split_dim``, in L (-2)."""
    return tuple(
        vector[pick] if pick >= 0
        else small_count if pick == -1
        else vector[split_dim] - small_count
        for pick in picks
    )
