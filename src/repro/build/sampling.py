"""Candidate generation and query sampling for XBUILD (paper Section 5).

XBUILD is a randomized greedy loop: each round draws a pool of applicable
refinement *candidates* (:func:`generate_candidates`) and measures each
one's marginal benefit on a handful of twig queries sampled around the
candidate's region (:class:`RegionSampler`).  Everything proposed here is
guaranteed applicable — the preconditions of the refinement operations are
checked at proposal time, so the construction loop never wastes an
evaluation on a candidate that raises.

The value-oriented proposal helpers (``_value_split_proposals``,
``_value_expand_proposals``) implement the DESIGN.md E10/E12 extensions:
they look for *discriminative* value sources — repeated string values or
numeric domains — and skip near-unique ones (titles, names), whose splits
could only shave single elements off an extent.  Both read a node's
:class:`ValueTally`, gathered once per node; XBUILD memoizes what it
yields by node id.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Optional

from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from ..query.ast import Path, Step, TwigNode, TwigQuery
from ..query.values import ValuePredicate
from ..synopsis.distributions import EdgeRef
from ..synopsis.summary import TwigXSketch
from ..synopsis.tsn import stable_count_edges
from .refinements import (
    BStabilize,
    EdgeExpand,
    EdgeRefine,
    FStabilize,
    Refinement,
    ValueExpand,
    ValueRefine,
    ValueSplit,
)

#: cap on the per-round candidate pool
DEFAULT_MAX_CANDIDATES = 16

#: at most this many distinct values per tag may ground equality splits
_SPLIT_VALUE_LIMIT = 3

#: a string value source is discriminative when its distinct-value count
#: stays below this fraction of the population (titles/names fail this)
_DISCRIMINATIVE_FRACTION = 0.5


def _structural_candidates(sketch: TwigXSketch) -> list[Refinement]:
    """B-/F-stabilize proposals: one per unstable synopsis edge."""
    proposals: list[Refinement] = []
    for edge in sketch.graph.iter_edges():
        if not edge.backward_stable:
            proposals.append(BStabilize(edge.source, edge.target))
        if not edge.forward_stable:
            proposals.append(FStabilize(edge.source, edge.target))
    return proposals


def _histogram_candidates(sketch: TwigXSketch) -> list[Refinement]:
    """Edge-refine and edge-expand proposals over the stored histograms."""
    proposals: list[Refinement] = []
    cap = sketch.config.max_histogram_dims
    for node_id, histograms in sketch.edge_stats.items():
        usable = {
            EdgeRef(source, target)
            for source, target in stable_count_edges(sketch.graph, node_id)
            if sketch.config.include_backward or source == node_id
        }
        for index, histogram in enumerate(histograms):
            if histogram.bucket_count() >= histogram.budget:
                proposals.append(EdgeRefine(node_id, index))
            for ref in sorted(usable - set(histogram.scope)):
                donor = next(
                    (
                        other
                        for position, other in enumerate(histograms)
                        if position != index and ref in other.scope
                    ),
                    None,
                )
                if donor is None:
                    merged = histogram.dimensions + 1
                else:
                    merged = histogram.dimensions + sum(
                        1 for r in donor.scope if r not in histogram.scope
                    )
                if merged <= cap:
                    proposals.append(EdgeExpand(node_id, index, ref))
    return proposals


def _value_refine_candidates(sketch: TwigXSketch) -> list[Refinement]:
    """Value-refine proposals for still-compressed value histograms."""
    return [
        ValueRefine(node_id)
        for node_id, summary in sketch.value_stats.items()
        if summary.bucket_count() >= summary.budget
    ]


class ValueTally:
    """The value sources of one synopsis node, from one pass over its extent.

    ``sources`` lists the node's value sources: ``None`` (the elements'
    own values) when any element has a value, then the tags of valued
    children, sorted.  ``groups[source]`` holds, in extent order, one list
    per element that has values from that source: its own value, or the
    values of its ``source`` children in document order.  Element values
    never change and a node id never names another extent, so what a
    tally yields serves its node for a whole build (DESIGN.md S28).
    """

    __slots__ = ("sources", "groups", "_strings")

    def __init__(self, node, index: list):
        own: list[list] = []
        by_tag: dict[str, list[list]] = {}
        for element in node.extent:
            if element.value is not None:
                own.append([element.value])
            for tag, children in index[element.node_id].items():
                values = [c.value for c in children if c.value is not None]
                if values:
                    by_tag.setdefault(tag, []).append(values)
        self.sources: list[Optional[str]] = [None] if own else []
        self.sources.extend(sorted(by_tag))
        self.groups: dict[Optional[str], list[list]] = {None: own, **by_tag}
        self._strings: dict[Optional[str], Counter] = {}

    def observations(self, source: Optional[str]) -> list:
        """The value population a split/expand over ``source`` would see:
        each element's first value from it."""
        return [values[0] for values in self.groups[source]]

    def part_size(self, source: Optional[str], predicate) -> int:
        """How many extent elements a ValueSplit on ``source`` with this
        predicate captures: those with a value that matches it
        (:meth:`ValuePredicate.matches`, so a number never equals a
        string bound)."""
        bound = predicate.value
        if predicate.op == "=" and isinstance(bound, str):
            return self._string_counts(source)[bound]
        matches = predicate.matches
        return sum(
            1 for values in self.groups[source] if any(map(matches, values))
        )

    def expand_sources(self) -> list[Optional[str]]:
        """The sources whose values are discriminative enough for a
        ValueExpand (DESIGN.md E12): at least two observations, and
        either all numeric or strings with far fewer distinct values
        than observations."""
        qualified: list[Optional[str]] = []
        for source in self.sources:
            values = self.observations(source)
            if len(values) < 2:
                continue
            numeric = [v for v in values if isinstance(v, (int, float))]
            if len(numeric) < len(values):
                distinct = len(set(str(v) for v in values))
                if distinct > len(values) * _DISCRIMINATIVE_FRACTION:
                    continue
            qualified.append(source)
        return qualified

    def _string_counts(self, source: Optional[str]) -> Counter:
        """Per string value, how many elements have it from ``source``."""
        counts = self._strings.get(source)
        if counts is None:
            counts = self._strings[source] = Counter(
                value
                for values in self.groups[source]
                for value in {v for v in values if isinstance(v, str)}
            )
        return counts


#: what XBUILD memoizes per node id: value-split proposals, expand sources
ValueProposals = tuple[list[Refinement], list[Optional[str]]]


def _tally(sketch: TwigXSketch, node_id: int) -> ValueTally:
    return ValueTally(
        sketch.graph.node(node_id), sketch.graph.tree.child_index()
    )


def _value_split_proposals(
    sketch: TwigXSketch, node_id: int, tally: Optional[ValueTally] = None
) -> list[Refinement]:
    """ValueSplit proposals for one synopsis node (DESIGN.md E10).

    String sources with repeated values ground equality splits on their
    most frequent values; numeric sources ground a median split with a
    ``<`` predicate.  Only proper partitions are proposed.
    """
    if tally is None:
        tally = _tally(sketch, node_id)
    count = sketch.graph.node(node_id).count
    proposals: list[Refinement] = []
    for child_tag in tally.sources:
        values = tally.observations(child_tag)
        if len(values) < 2:
            continue
        numeric = [v for v in values if isinstance(v, (int, float))]
        if len(numeric) == len(values):
            median = sorted(numeric)[len(numeric) // 2]
            predicate = ValuePredicate("<", median)
            if 0 < tally.part_size(child_tag, predicate) < count:
                proposals.append(ValueSplit(node_id, predicate, child_tag))
            continue
        frequency = Counter(str(v) for v in values)
        for value, occurrences in frequency.most_common(_SPLIT_VALUE_LIMIT):
            if occurrences < 2:
                continue  # near-unique strings: splits shave single elements
            predicate = ValuePredicate("=", value)
            if 0 < tally.part_size(child_tag, predicate) < count:
                proposals.append(ValueSplit(node_id, predicate, child_tag))
    return proposals


def _value_expand_proposals(
    sketch: TwigXSketch,
    node_id: int,
    sources: Optional[list[Optional[str]]] = None,
) -> list[Refinement]:
    """ValueExpand proposals for one synopsis node (DESIGN.md E12).

    A source qualifies when its values are discriminative
    (:meth:`ValueTally.expand_sources`, computed here unless given) and
    the node has no extended summary over it yet.  The count scope takes
    the node's heaviest forward edges (the dimensions most likely to
    correlate with the value).
    """
    forward = sorted(
        sketch.graph.children_of(node_id),
        key=lambda edge: edge.child_count,
        reverse=True,
    )
    scope = tuple(
        EdgeRef(node_id, edge.target)
        for edge in forward[: min(2, sketch.config.max_histogram_dims)]
    )
    if not scope:
        return []
    if sources is None:
        sources = _tally(sketch, node_id).expand_sources()
    existing = {summary.value_tag for summary in sketch.extended_at(node_id)}
    return [
        ValueExpand(node_id, value_tag, scope)
        for value_tag in sources
        if value_tag not in existing
    ]


def generate_candidates(
    sketch: TwigXSketch,
    rng: random.Random,
    value_memo: Optional[dict[int, ValueProposals]] = None,
) -> list[Refinement]:
    """One round's candidate pool: applicable refinements, deduplicated,
    shuffled, and capped at :data:`DEFAULT_MAX_CANDIDATES`.

    Backward edge-expansions (``new_ref.source != node_id``) are proposed
    only when the sketch configuration enables the full model
    (``include_backward``); the paper's measured prototype sticks to
    forward counts.

    ``value_memo`` caches, by node id, what the node's :class:`ValueTally`
    yields: its value-split proposals and its value-expand sources.  Both
    depend only on the node's extent, which never changes while its id
    lives, so one memo may serve every round of a build (the sketches of
    one refinement lineage never reuse an id for another extent).
    """
    memo = {} if value_memo is None else value_memo
    pool: list[Refinement] = []
    pool.extend(_structural_candidates(sketch))
    pool.extend(_histogram_candidates(sketch))
    pool.extend(_value_refine_candidates(sketch))
    index = sketch.graph.tree.child_index()
    for node in sketch.graph.iter_nodes():
        if node.node_id not in memo:
            tally = ValueTally(node, index)
            memo[node.node_id] = (
                _value_split_proposals(sketch, node.node_id, tally),
                tally.expand_sources(),
            )
        splits, expand_sources = memo[node.node_id]
        pool.extend(splits)
        pool.extend(
            _value_expand_proposals(sketch, node.node_id, expand_sources)
        )
    deduplicated = list(dict.fromkeys(pool))
    rng.shuffle(deduplicated)
    return deduplicated[:DEFAULT_MAX_CANDIDATES]


class RegionSampler:
    """Samples positive twig queries around a set of synopsis nodes.

    Queries are grown from concrete *witness* elements drawn from the
    region nodes' extents (the same positivity-by-construction trick as
    :class:`repro.workload.generator.WorkloadGenerator`), so every sampled
    query has at least one binding in the document.

    Args:
        tree: the source document.
        rng: randomness source (owned by the caller for determinism).
        value_probability: chance of attaching a value predicate taken
            from the witness to one query node.
    """

    def __init__(
        self,
        tree: DocumentTree,
        rng: random.Random,
        value_probability: float = 0.0,
    ):
        self.tree = tree
        self.rng = rng
        self.value_probability = value_probability

    def sample_for_regions(
        self,
        sketch: TwigXSketch,
        region_ids: Iterable[int],
        queries: int = 8,
    ) -> list[TwigQuery]:
        """Sample up to ``queries`` positive twigs touching the region.

        Synopsis ids with no live node are skipped; an entirely dead (or
        extent-less) region yields an empty list.
        """
        witnesses: list[DocumentNode] = []
        for node_id in region_ids:
            node = sketch.graph.nodes.get(node_id)
            if node is not None:
                witnesses.extend(node.extent)
        if not witnesses:
            return []
        sampled: list[TwigQuery] = []
        for _ in range(queries):
            witness = self.rng.choice(witnesses)
            sampled.append(self._query_around(witness))
        return sampled

    # ------------------------------------------------------------------
    def _query_around(self, witness: DocumentNode) -> TwigQuery:
        """A 1–4 node twig anchored at the witness (or its parent).

        Leaf witnesses are re-anchored at their parent so the query still
        exercises an edge distribution rather than a bare extent count.
        """
        anchor = witness
        if not anchor.children and anchor.parent is not None:
            anchor = anchor.parent
        counter = [0]

        def new_node(step: Step) -> TwigNode:
            node = TwigNode(f"s{counter[0]}", Path((step,)))
            counter[0] += 1
            return node

        root = new_node(Step(anchor.tag))
        children = list(anchor.children)
        self.rng.shuffle(children)
        used_tags: set[str] = set()
        for child in children[: self.rng.randint(1, 3)]:
            if child.tag in used_tags:
                continue
            used_tags.add(child.tag)
            predicate = None
            if (
                child.value is not None
                and self.rng.random() < self.value_probability
            ):
                predicate = self._predicate_for(child.value)
            root.add_child(new_node(Step(child.tag, value_pred=predicate)))
        return TwigQuery(root)

    def _predicate_for(self, value) -> ValuePredicate:
        """A predicate the witness value satisfies (keeps positivity)."""
        if isinstance(value, (int, float)):
            if self.rng.random() < 0.5:
                return ValuePredicate("<=", value)
            return ValuePredicate(">=", value)
        return ValuePredicate("=", value)
