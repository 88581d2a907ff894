"""The XBUILD refinement operations (paper Section 5).

Each operation is a small frozen dataclass — hashable, so candidate sets
deduplicate naturally — with three methods:

* :meth:`apply` — return a *new* refined :class:`TwigXSketch`; the input
  sketch is never mutated (XBUILD evaluates many candidates against the
  same base summary).
* :meth:`region` — the synopsis nodes whose statistics the operation
  changes; XBUILD samples its gain-measurement queries around this region.
* :meth:`describe` — a human-readable label whose first word is the
  operation kind (the CLI and examples aggregate on it).

The paper's six operations are implemented, plus the :class:`ValueSplit`
extension (DESIGN.md E10): value-predicated partitioning that captures
value↔structure correlation with ordinary structural statistics.

Every precondition failure raises :class:`~repro.errors.BuildError`, so
the construction loop can probe candidates freely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from ..errors import BuildError, SynopsisError
from ..query.values import ValuePredicate
from ..synopsis.distributions import EdgeRef, child_counts
from ..synopsis.graph import GraphSynopsis
from ..synopsis.summary import TwigXSketch


class Refinement:
    """Common behaviour of all refinement operations.

    Every subclass's :meth:`apply` first checks that the sketch's graph
    has extents: a loaded synopsis (:mod:`repro.synopsis.persist`) has
    none, and refining it raises :class:`~repro.errors.BuildError`.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        apply = vars(cls).get("apply")
        if apply is not None:

            @functools.wraps(apply)
            def guarded(self, sketch: TwigXSketch) -> TwigXSketch:
                if not isinstance(sketch.graph, GraphSynopsis):
                    raise BuildError(
                        "a loaded synopsis has no extents; refinement "
                        "requires the original document"
                    )
                return apply(self, sketch)

            cls.apply = guarded

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:  # pragma: no cover
        raise NotImplementedError

    def region(self) -> set[int]:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:
        """Default label: the kind tag of the concrete class."""
        return type(self).__name__.lower()


def _live_node(sketch: TwigXSketch, node_id: int):
    """The synopsis node, or a BuildError when it does not exist."""
    try:
        return sketch.graph.node(node_id)
    except SynopsisError as error:
        raise BuildError(str(error)) from None


@dataclass(frozen=True)
class BStabilize(Refinement):
    """Make ``source → target`` Backward-stable by splitting the target.

    The target node is partitioned into the elements whose parent lies in
    the source node (for which the edge becomes B-stable) and the rest
    (paper: "b-stabilize splits n_j into the elements that have a parent
    in n_i and those that do not").
    """

    source: int
    target: int

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        edge = sketch.graph.edge(self.source, self.target)
        if edge is None:
            raise BuildError(
                f"no edge {self.source}->{self.target} to b-stabilize"
            )
        if edge.backward_stable:
            raise BuildError(
                f"edge {self.source}->{self.target} is already B-stable"
            )
        refined = sketch.copy()
        graph = refined.graph
        part = {
            element.node_id
            for element in graph.node(self.target).extent
            if element.parent is not None
            and graph.node_of(element.parent) == self.source
        }
        refined.split_node(self.target, part)
        return refined

    def region(self) -> set[int]:
        return {self.source, self.target}

    def describe(self) -> str:
        return f"b-stabilize {self.source}->{self.target}"


@dataclass(frozen=True)
class FStabilize(Refinement):
    """Make ``source → target`` Forward-stable by splitting the source.

    The source node is partitioned into the elements that own at least one
    child in the target node and those that own none.
    """

    source: int
    target: int

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        edge = sketch.graph.edge(self.source, self.target)
        if edge is None:
            raise BuildError(
                f"no edge {self.source}->{self.target} to f-stabilize"
            )
        if edge.forward_stable:
            raise BuildError(
                f"edge {self.source}->{self.target} is already F-stable"
            )
        refined = sketch.copy()
        graph = refined.graph
        element_ids = [e.node_id for e in graph.node(self.source).extent]
        (column,) = child_counts(graph, element_ids, [(self.target,)])
        part = {
            element_id
            for element_id, count in zip(element_ids, column)
            if count
        }
        refined.split_node(self.source, part)
        return refined

    def region(self) -> set[int]:
        return {self.source, self.target}

    def describe(self) -> str:
        return f"f-stabilize {self.source}->{self.target}"


@dataclass(frozen=True)
class EdgeRefine(Refinement):
    """Double the bucket budget of one stored edge histogram, rebuilt from
    the exact counts the histogram keeps.

    Applicable only while the histogram is actually compressed: once the
    engine stores fewer buckets than its budget allows, the distribution
    is represented exactly and more budget cannot help.
    """

    node_id: int
    index: int

    def _histogram(self, sketch: TwigXSketch):
        histograms = sketch.histograms_at(self.node_id)
        if not 0 <= self.index < len(histograms):
            raise BuildError(
                f"node #{self.node_id} has no edge histogram [{self.index}]"
            )
        return histograms[self.index]

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        histogram = self._histogram(sketch)
        if histogram.bucket_count() < histogram.budget:
            raise BuildError(
                f"histogram [{self.index}] at #{self.node_id} is already "
                f"exact ({histogram.bucket_count()} buckets under a budget "
                f"of {histogram.budget})"
            )
        refined = sketch.copy()
        rebuilt = refined.make_edge_histogram(
            self.node_id, histogram.scope, histogram.budget * 2,
            histogram.counts,
        )
        histograms = list(refined.histograms_at(self.node_id))
        histograms[self.index] = rebuilt
        refined.set_histograms(self.node_id, histograms)
        return refined

    def region(self) -> set[int]:
        return {self.node_id}

    def describe(self) -> str:
        return f"edge-refine @{self.node_id}[{self.index}]"


@dataclass(frozen=True)
class EdgeExpand(Refinement):
    """Add a count dimension to an edge histogram (joint information).

    The histogram at ``(node_id, index)`` absorbs ``new_ref``; when another
    histogram of the node already covers ``new_ref``, its whole scope is
    merged in and the donor disappears — scopes stay disjoint, as the
    summary model requires.  ``new_ref`` may be a backward count
    (``new_ref.source != node_id``) when the configuration enables the
    full model.
    """

    node_id: int
    index: int
    new_ref: EdgeRef

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        histograms = sketch.histograms_at(self.node_id)
        if not 0 <= self.index < len(histograms):
            raise BuildError(
                f"node #{self.node_id} has no edge histogram [{self.index}]"
            )
        histogram = histograms[self.index]
        if self.new_ref in histogram.scope:
            raise BuildError(
                f"histogram [{self.index}] at #{self.node_id} already "
                f"covers {self.new_ref}"
            )
        if sketch.graph.edge(self.new_ref.source, self.new_ref.target) is None:
            raise BuildError(
                f"edge-expand references missing edge "
                f"{self.new_ref.source}->{self.new_ref.target}"
            )
        donor_index: Optional[int] = None
        for position, other in enumerate(histograms):
            if position != self.index and self.new_ref in other.scope:
                donor_index = position
                break
        absorbed: tuple[EdgeRef, ...]
        budget = histogram.budget
        if donor_index is None:
            absorbed = (self.new_ref,)
        else:
            donor = histograms[donor_index]
            absorbed = tuple(
                ref for ref in donor.scope if ref not in histogram.scope
            )
            budget = max(budget, donor.budget)
        scope = histogram.scope + absorbed
        if len(scope) > sketch.config.max_histogram_dims:
            raise BuildError(
                f"edge-expand to {len(scope)} dims exceeds the configured "
                f"cap of {sketch.config.max_histogram_dims}"
            )
        refined = sketch.copy()
        merged = refined.make_edge_histogram(self.node_id, scope, budget)
        rebuilt = list(refined.histograms_at(self.node_id))
        rebuilt[self.index] = merged
        if donor_index is not None:
            del rebuilt[donor_index]
        refined.set_histograms(self.node_id, rebuilt)
        return refined

    def region(self) -> set[int]:
        return {self.node_id, self.new_ref.source, self.new_ref.target}

    def describe(self) -> str:
        kind = "forward" if self.new_ref.source == self.node_id else "backward"
        return (
            f"edge-expand @{self.node_id}[{self.index}] "
            f"+{kind} {self.new_ref.source}->{self.new_ref.target}"
        )


@dataclass(frozen=True)
class ValueRefine(Refinement):
    """Double the bucket budget of a node's value histogram, rebuilt from
    the value counts the summary keeps."""

    node_id: int

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        summary = sketch.value_summary(self.node_id)
        if summary is None:
            raise BuildError(
                f"node #{self.node_id} carries no values to refine"
            )
        if summary.bucket_count() < summary.budget:
            raise BuildError(
                f"value histogram at #{self.node_id} is already exact"
            )
        refined = sketch.copy()
        rebuilt = refined.make_value_summary(
            self.node_id, summary.budget * 2, summary.counts
        )
        if rebuilt is None:  # pragma: no cover - summary existed above
            raise BuildError(f"node #{self.node_id} lost its values")
        refined.set_value_summary(self.node_id, rebuilt)
        return refined

    def region(self) -> set[int]:
        return {self.node_id}

    def describe(self) -> str:
        return f"value-refine @{self.node_id}"


@dataclass(frozen=True)
class ValueExpand(Refinement):
    """Install an extended value histogram ``H^v(V, C1..Ck)`` at a node.

    ``value_tag`` selects the value dimension (None for the node's own
    values, a child tag otherwise); ``scope`` lists the count dimensions.
    One extended summary per (node, value source) — re-expanding the same
    source is rejected.
    """

    node_id: int
    value_tag: Optional[str]
    scope: tuple[EdgeRef, ...]

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        _live_node(sketch, self.node_id)
        for existing in sketch.extended_at(self.node_id):
            if existing.value_tag == self.value_tag:
                raise BuildError(
                    f"node #{self.node_id} already has an extended summary "
                    f"over {self.value_tag!r}"
                )
        refined = sketch.copy()
        try:
            summary = refined.make_extended_summary(
                self.node_id,
                self.value_tag,
                self.scope,
                refined.config.extended_value_buckets,
                refined.config.extended_count_buckets,
            )
        except SynopsisError as error:
            raise BuildError(str(error)) from None
        refined.set_extended(
            self.node_id, (*refined.extended_at(self.node_id), summary)
        )
        return refined

    def region(self) -> set[int]:
        region = {self.node_id}
        for ref in self.scope:
            region.update((ref.source, ref.target))
        return region

    def describe(self) -> str:
        source = self.value_tag or "own-value"
        return f"value-expand @{self.node_id} {source} ({len(self.scope)}d)"


@dataclass(frozen=True)
class ValueSplit(Refinement):
    """Partition a node's extent by a value predicate (DESIGN.md E10).

    With ``child_tag`` set, an element belongs to the first part when any
    of its ``child_tag`` children satisfies the predicate; without it, the
    element's own value is tested.  After the split, each part's ordinary
    edge histograms describe a value-conditioned population — structural
    statistics capture value↔structure correlation.

    A child-tag split also separates the value-carrying children by
    parentage, so each part's ``child_tag`` node gets a value histogram
    conditioned on the predicate — that is what turns the branch-predicate
    match fraction from a population average into (nearly) 0 or 1.
    """

    node_id: int
    predicate: ValuePredicate
    child_tag: Optional[str] = None

    def _matches(self, element, index: list) -> bool:
        """Whether ``element`` falls in the first part; ``index`` is the
        document's :meth:`~repro.doc.tree.DocumentTree.child_index`."""
        if self.child_tag is None:
            return self.predicate.matches(element.value)
        matches = self.predicate.matches
        return any(
            matches(child.value)
            for child in index[element.node_id].get(self.child_tag, ())
        )

    def apply(self, sketch: TwigXSketch) -> TwigXSketch:
        node = _live_node(sketch, self.node_id)
        index = sketch.graph.tree.child_index()
        part = {
            element.node_id
            for element in node.extent
            if self._matches(element, index)
        }
        if not part or len(part) == node.count:
            raise BuildError(
                f"value-split of #{self.node_id} on "
                f"{self.child_tag or 'value'}{_trail_text(self.predicate)} "
                f"is not a proper partition ({len(part)} of {node.count} "
                f"elements)"
            )
        refined = sketch.copy()
        first, _ = refined.split_node(self.node_id, part)
        if self.child_tag is not None:
            self._split_value_children(refined, first, index)
        return refined

    def _split_value_children(
        self, refined: TwigXSketch, first: int, index: list
    ) -> None:
        """Separate the ``child_tag`` children of the matching part."""
        part_children = {
            child.node_id
            for element in refined.graph.node(first).extent
            for child in index[element.node_id].get(self.child_tag, ())
        }
        for child_node in list(refined.graph.nodes_with_tag(self.child_tag)):
            inside = {
                element.node_id
                for element in child_node.extent
                if element.node_id in part_children
            }
            if inside and len(inside) < child_node.count:
                refined.split_node(child_node.node_id, inside)

    def region(self) -> set[int]:
        return {self.node_id}

    def describe(self) -> str:
        where = self.child_tag or "value"
        predicate = _trail_text(self.predicate)
        return f"value-split @{self.node_id} {where}{predicate}"


def _trail_text(predicate: ValuePredicate) -> str:
    """The predicate as build trails write it, bounds unquoted (recorded
    trails and checkpoints keep this form; query text quotes strings)."""
    if predicate.op == "range":
        return f"{{{predicate.value}..{predicate.high}}}"
    return f"{{{predicate.op}{predicate.value}}}"


#: Everything XBUILD may propose, in the paper's presentation order.
ALL_REFINEMENTS = (
    BStabilize,
    FStabilize,
    EdgeRefine,
    EdgeExpand,
    ValueRefine,
    ValueExpand,
    ValueSplit,
)
