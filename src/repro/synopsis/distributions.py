"""Exact edge distributions ``f_i(C_1, ..., C_k)`` (paper Section 3.2).

An edge distribution at synopsis node ``n_i`` is a fraction distribution
over the elements of ``n_i``; each dimension is an :class:`EdgeRef`:

* a **forward count** — an edge ``n_i → n_d``: the dimension value for
  element ``e`` is the number of ``e``'s children lying in ``n_d``;
* a **backward count** — an edge ``n_a → n_z`` where ``n_a`` is an
  ancestor node: the value is the number of children in ``n_z`` of ``e``'s
  nearest ancestor in ``n_a``.

This module computes the distribution exactly from the document (via the
synopsis extents); compression to a histogram happens in
:mod:`repro.synopsis.summary`.  The exact integer counts behind a
distribution (how many elements realize each count vector) are what
XBUILD keeps beside each histogram, so that a split can derive its parts'
and its parents' histograms instead of rescanning extents.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from ..errors import SynopsisError
from ..histogram.sparse import SparseDistribution
from .graph import GraphSynopsis


class EdgeRef(NamedTuple):
    """Identity of a count dimension: the synopsis edge it counts.

    At node ``n``, a ref with ``source == n`` is a forward count; any other
    source is a backward count anchored at that ancestor node.

    A tuple, so hashing, equality and ordering run in C: the hash is
    ``hash((source, target))`` and a ref equals the plain
    ``(source, target)`` pair, so TREEPARSE looks refs up in dicts keyed
    by edge pairs.
    """

    source: int
    target: int

    def is_forward_at(self, node_id: int) -> bool:
        """True when this ref is a forward count at ``node_id``."""
        return self.source == node_id


def exact_edge_distribution(
    synopsis: GraphSynopsis, node_id: int, scope: Sequence[EdgeRef]
) -> SparseDistribution:
    """The exact distribution of ``scope`` counts over node ``node_id``
    (:func:`exact_edge_counts`, normalized)."""
    return SparseDistribution(exact_edge_counts(synopsis, node_id, scope))


def exact_edge_counts(
    synopsis: GraphSynopsis, node_id: int, scope: Sequence[EdgeRef]
) -> Counter:
    """How many elements of node ``node_id`` realize each vector of
    ``scope`` counts, from a scan of the node's extent.

    Raises:
        SynopsisError: when ``scope`` is empty, names a missing edge, or a
            backward ref's anchor is unreachable for some element (the
            construction algorithm only proposes TSN edges, for which this
            cannot happen; a zero count is recorded when an anchor is
            missing for an element so that non-TSN scopes remain usable in
            tests).
    """
    if not scope:
        raise SynopsisError("edge-distribution scope must be non-empty")
    synopsis.node(node_id)  # raises for an unknown node
    for ref in scope:
        if synopsis.edge(ref.source, ref.target) is None:
            raise SynopsisError(
                f"scope references missing edge {ref.source}->{ref.target}"
            )

    if all(ref.is_forward_at(node_id) for ref in scope):
        targets = [ref.target for ref in scope]
        return Counter(zip(*forward_columns(synopsis, node_id, targets)))
    return _general_counts(synopsis, node_id, scope)


def _general_counts(
    synopsis: GraphSynopsis, node_id: int, scope: Sequence[EdgeRef]
) -> Counter:
    """:func:`exact_edge_counts` of any scope, one element at a time:
    its children tally for the forward refs, and each backward ref's
    anchor among its ancestors."""
    forward_targets = [r.target for r in scope if r.is_forward_at(node_id)]
    backward_refs = [r for r in scope if not r.is_forward_at(node_id)]

    observations: list[tuple[int, ...]] = []
    for element in synopsis.node(node_id).extent:
        values: dict[EdgeRef, int] = {}
        if forward_targets:
            tally: dict[int, int] = {}
            for child in element.children:
                child_node = synopsis.node_of(child)
                tally[child_node] = tally.get(child_node, 0) + 1
            for ref in scope:
                if ref.is_forward_at(node_id):
                    values[ref] = tally.get(ref.target, 0)
        for ref in backward_refs:
            anchor = (
                element
                if ref.source == node_id
                else synopsis.ancestor_in(element, ref.source)
            )
            if anchor is None:
                values[ref] = 0
                continue
            values[ref] = sum(
                1
                for child in anchor.children
                if synopsis.node_of(child) == ref.target
            )
        observations.append(tuple(values[ref] for ref in scope))
    return Counter(observations)


def counts_minus(total: Counter, part: Counter) -> Counter:
    """The counts of ``total`` less those of ``part``, a sub-multiset of
    it; keys that reach zero are dropped.  The work is ``part``'s keys
    plus a copy of ``total``."""
    rest = Counter(total)
    for key, count in part.items():
        left = rest[key] - count
        if left:
            rest[key] = left
        else:
            del rest[key]
    return rest


def marginal_counts(counts: Counter, dim: int) -> Counter:
    """The 1-D counts of dimension ``dim`` of the joint ``counts``."""
    marginal: Counter = Counter()
    for vector, count in counts.items():
        marginal[vector[dim],] += count
    return marginal


def forward_columns(
    synopsis: GraphSynopsis, node_id: int, targets: Sequence[int]
) -> list[list[int]]:
    """Per target, each element's number of children in that target, in
    extent order (:func:`child_counts` over the node's extent)."""
    return child_counts(
        synopsis,
        [element.node_id for element in synopsis.node(node_id).extent],
        [(target,) for target in targets],
    )


def child_counts(
    synopsis: GraphSynopsis,
    element_ids: Sequence[int],
    groups: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Per group of same-tag target nodes, each element's number of
    children in the group, in ``element_ids`` order (ids distinct).

    Each element counts among its children with the group's tag, read from
    the document's child index: the work is the elements plus those
    children, not the targets' extents.  A group that holds every element
    of its tag counts list lengths.
    """
    tree = synopsis.tree
    index = tree.child_index()
    assignment = synopsis.assignment
    nodes = synopsis.nodes
    rows = [index[element_id] for element_id in element_ids]
    columns = []
    for group in groups:
        tag = nodes[group[0]].tag
        if sum(nodes[target].count for target in group) == len(
            tree.extent(tag)
        ):
            columns.append([len(children.get(tag, ())) for children in rows])
            continue
        hits = Counter([
            element_id
            for element_id, children in zip(element_ids, rows)
            for child in children.get(tag, ())
            if assignment[child.node_id] in group
        ])
        columns.append([hits.get(element_id, 0) for element_id in element_ids])
    return columns


def mean_child_count(
    synopsis: GraphSynopsis, source: int, target: int
) -> float:
    """Average number of ``target`` children per ``source`` element.

    This is the Forward Uniformity value ``|n_i → n_j| / |n_i|``.
    """
    edge = synopsis.edge(source, target)
    if edge is None:
        return 0.0
    return edge.child_count / synopsis.node(source).count
