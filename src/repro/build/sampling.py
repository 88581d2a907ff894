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
could only shave single elements off an extent.
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

#: default cap on the per-round candidate pool
DEFAULT_MAX_CANDIDATES = 16

#: at most this many distinct values per tag may ground equality splits
_SPLIT_VALUE_LIMIT = 3

#: a string value source is discriminative when its distinct-value count
#: stays below this fraction of the population (titles/names fail this)
_DISCRIMINATIVE_FRACTION = 0.5


def _structural_candidates(sketch: TwigXSketch) -> list[Refinement]:
    """B-/F-stabilize proposals: one per unstable synopsis edge."""
    proposals: list[Refinement] = []
    for edge in sketch.graph.edges.values():
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
        if summary.histogram.bucket_count() >= summary.budget
    ]


def _value_observations(
    node, child_tag: Optional[str]
) -> list[object]:
    """The value population a split/expand over ``child_tag`` would see."""
    if child_tag is None:
        return [e.value for e in node.extent if e.value is not None]
    values = []
    for element in node.extent:
        for child in element.children:
            if child.tag == child_tag and child.value is not None:
                values.append(child.value)
                break
    return values


def _value_sources(node) -> list[Optional[str]]:
    """Candidate value sources at a node: own values, then child tags."""
    sources: list[Optional[str]] = []
    if any(e.value is not None for e in node.extent):
        sources.append(None)
    child_tags: list[str] = []
    for element in node.extent:
        for child in element.children:
            if child.value is not None and child.tag not in child_tags:
                child_tags.append(child.tag)
    sources.extend(sorted(child_tags))
    return sources


def _matching_part_size(node, predicate, child_tag) -> int:
    """How many extent elements a ValueSplit with these settings captures."""
    probe = ValueSplit(node.node_id, predicate, child_tag)
    return sum(1 for element in node.extent if probe._matches(element))


def _value_split_proposals(
    sketch: TwigXSketch, node_id: int
) -> list[Refinement]:
    """ValueSplit proposals for one synopsis node (DESIGN.md E10).

    String sources with repeated values ground equality splits on their
    most frequent values; numeric sources ground a median split with a
    ``<`` predicate.  Only proper partitions are proposed.
    """
    node = sketch.graph.node(node_id)
    proposals: list[Refinement] = []
    for child_tag in _value_sources(node):
        values = _value_observations(node, child_tag)
        if len(values) < 2:
            continue
        numeric = [v for v in values if isinstance(v, (int, float))]
        if len(numeric) == len(values):
            median = sorted(numeric)[len(numeric) // 2]
            predicate = ValuePredicate("<", median)
            part = _matching_part_size(node, predicate, child_tag)
            if 0 < part < node.count:
                proposals.append(ValueSplit(node_id, predicate, child_tag))
            continue
        frequency = Counter(str(v) for v in values)
        for value, count in frequency.most_common(_SPLIT_VALUE_LIMIT):
            if count < 2:
                continue  # near-unique strings: splits shave single elements
            predicate = ValuePredicate("=", value)
            part = _matching_part_size(node, predicate, child_tag)
            if 0 < part < node.count:
                proposals.append(ValueSplit(node_id, predicate, child_tag))
    return proposals


def _value_expand_proposals(
    sketch: TwigXSketch, node_id: int
) -> list[Refinement]:
    """ValueExpand proposals for one synopsis node (DESIGN.md E12).

    A source qualifies when its values are discriminative: any numeric
    domain, or strings with far fewer distinct values than elements.  The
    count scope takes the node's heaviest forward edges (the dimensions
    most likely to correlate with the value).
    """
    node = sketch.graph.node(node_id)
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
    existing = {summary.value_tag for summary in sketch.extended_at(node_id)}
    proposals: list[Refinement] = []
    for value_tag in _value_sources(node):
        if value_tag in existing:
            continue
        values = _value_observations(node, value_tag)
        if len(values) < 2:
            continue
        numeric = [v for v in values if isinstance(v, (int, float))]
        if len(numeric) < len(values):
            distinct = len(set(str(v) for v in values))
            if distinct > len(values) * _DISCRIMINATIVE_FRACTION:
                continue
        proposals.append(ValueExpand(node_id, value_tag, scope))
    return proposals


def generate_candidates(
    sketch: TwigXSketch,
    rng: random.Random,
    max_candidates: Optional[int] = None,
    split_memo: Optional[dict[int, list[Refinement]]] = None,
) -> list[Refinement]:
    """One round's candidate pool: applicable refinements, deduplicated,
    shuffled, and capped at ``max_candidates``.

    Backward edge-expansions (``new_ref.source != node_id``) are proposed
    only when the sketch configuration enables the full model
    (``include_backward``); the paper's measured prototype sticks to
    forward counts.

    ``split_memo`` caches value-split proposals by node id.  They depend
    only on the node's extent, which never changes while its id lives, so
    one memo may serve every round of a build (the sketches of one
    refinement lineage never reuse an id for another extent).
    """
    memo = {} if split_memo is None else split_memo
    pool: list[Refinement] = []
    pool.extend(_structural_candidates(sketch))
    pool.extend(_histogram_candidates(sketch))
    pool.extend(_value_refine_candidates(sketch))
    for node in sketch.graph.iter_nodes():
        if node.node_id not in memo:
            memo[node.node_id] = _value_split_proposals(sketch, node.node_id)
        pool.extend(memo[node.node_id])
        pool.extend(_value_expand_proposals(sketch, node.node_id))
    deduplicated = list(dict.fromkeys(pool))
    rng.shuffle(deduplicated)
    cap = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    return deduplicated[:cap]


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
