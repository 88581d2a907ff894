"""The generic graph-synopsis model (paper Section 3.1).

A :class:`GraphSynopsis` partitions the elements of a document tree into
*synopsis nodes* with a common tag; a synopsis edge ``u → v`` exists when
some document edge connects an element of ``u``'s extent to an element of
``v``'s extent.  Each edge stores two counts:

* ``child_count`` — the number of elements of ``v`` whose parent is in ``u``
  (the paper's ``|u → v|``); since documents are trees, each element has
  one parent and these counts partition ``|v|`` across incoming edges;
* ``parent_count`` — the number of elements of ``u`` with at least one child
  in ``v``.

Stability (Section 3.1) falls out of the counts:
``u → v`` is Backward-stable iff ``child_count == |v|`` and
Forward-stable iff ``parent_count == |u|``.

The synopsis keeps the element→node assignment, which construction
(splitting) and exact edge-distribution computation need; the assignment is
scaffolding and is *not* charged to the synopsis size budget (see
:mod:`repro.synopsis.size`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from ..errors import SynopsisError


@dataclass
class SynopsisNode:
    """One node of the synopsis: a set of same-tag document elements."""

    node_id: int
    tag: str
    extent: list[DocumentNode]

    @property
    def count(self) -> int:
        """Extent size — the paper's ``|u|``."""
        return len(self.extent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SynopsisNode #{self.node_id} {self.tag} |{self.count}|>"


@dataclass
class SynopsisEdge:
    """One synopsis edge with its counts and derived stabilities."""

    source: int
    target: int
    child_count: int
    parent_count: int
    source_size: int
    target_size: int

    @property
    def backward_stable(self) -> bool:
        """All elements of the target have a parent in the source."""
        return self.child_count == self.target_size

    @property
    def forward_stable(self) -> bool:
        """All elements of the source have a child in the target."""
        return self.parent_count == self.source_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("B" if self.backward_stable else "") + (
            "F" if self.forward_stable else ""
        )
        return f"<Edge {self.source}->{self.target} {flags or '-'}>"


class GraphSynopsis:
    """A partition of a document's elements plus the induced edge graph.

    Build one with :func:`label_split_synopsis` (the coarsest summary) or
    :meth:`from_partition`; refine it with :meth:`split_node`.
    """

    def __init__(self, tree: DocumentTree):
        self.tree = tree
        self.nodes: dict[int, SynopsisNode] = {}
        self.edges: dict[tuple[int, int], SynopsisEdge] = {}
        # assignment[element.node_id] -> synopsis node id
        self.assignment: list[int] = []
        self._next_id = 0
        # lazy adjacency index over ``edges`` — rebuilt after mutations
        self._adjacency: Optional[tuple[dict, dict]] = None
        # per edge key, where an extent scan first meets it (see _tally)
        self._witnesses: dict[tuple[int, int], tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partition(
        cls, tree: DocumentTree, groups: Iterable[list[DocumentNode]]
    ) -> "GraphSynopsis":
        """Create a synopsis from an explicit partition of the elements.

        Each extent is kept in document order, whatever the group order.

        Raises:
            SynopsisError: if a group mixes tags, or the groups do not
                exactly cover the document's elements.
        """
        synopsis = cls(tree)
        synopsis.assignment = [-1] * tree.element_count
        for group in groups:
            synopsis._add_node(group)
        uncovered = [i for i, nid in enumerate(synopsis.assignment) if nid < 0]
        if uncovered:
            raise SynopsisError(
                f"partition misses {len(uncovered)} elements "
                f"(first: id {uncovered[0]})"
            )
        synopsis._recompute_all_edges()
        return synopsis

    def _add_node(self, extent: list[DocumentNode]) -> SynopsisNode:
        if not extent:
            raise SynopsisError("synopsis node needs a non-empty extent")
        tags = {element.tag for element in extent}
        if len(tags) != 1:
            raise SynopsisError(f"extent mixes tags: {sorted(tags)}")
        node = SynopsisNode(
            self._next_id,
            tags.pop(),
            sorted(extent, key=lambda element: element.node_id),
        )
        self._next_id += 1
        self.nodes[node.node_id] = node
        for element in extent:
            if self.assignment[element.node_id] >= 0:
                raise SynopsisError(
                    f"element {element.node_id} assigned to two synopsis nodes"
                )
            self.assignment[element.node_id] = node.node_id
        return node

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def _recompute_all_edges(self) -> None:
        self._adjacency = None
        tallies = _tally(self.tree.iter_edges(), self.assignment)
        self.edges = {key: self._edge(key, t) for key, t in tallies.items()}
        self._witnesses = {key: tuple(t[2:]) for key, t in tallies.items()}

    def _edge(self, key: tuple[int, int], tally: list) -> SynopsisEdge:
        """The edge ``key`` with the counts of its :func:`_tally` entry."""
        source, target = key
        return SynopsisEdge(
            source,
            target,
            tally[0],
            len(tally[1]),
            self.nodes[source].count,
            self.nodes[target].count,
        )

    def _replace_split_edges(
        self,
        old_id: int,
        parts: tuple[SynopsisNode, SynopsisNode],
        affected: set[int],
    ) -> None:
        """Swap the edges of split node ``old_id`` for those of its parts.

        Only edges incident to the two parts change counts; they are
        counted from the parts' own extents (each element's children and
        its parent).  Every other edge with an endpoint in ``affected``
        keeps its counts but moves, with the parts' edges, to the end of
        ``edges``: in the order a rescan of every ``affected`` extent, in
        set iteration order, first meets the edge's document edges — each
        element's child pairs, then its parent pair.  That order is
        observable (candidate pools, default statistics and serialization
        all iterate ``edges``), so builds stay bit-identical to the rescan.
        """
        self._adjacency = None
        assignment = self.assignment
        split_ids = {part.node_id for part in parts}

        def pairs() -> Iterator[tuple[DocumentNode, DocumentNode]]:
            for part in parts:
                for element in part.extent:
                    for child in element.children:
                        yield element, child
                    parent = element.parent
                    if (
                        parent is not None
                        and assignment[parent.node_id] not in split_ids
                    ):
                        yield parent, element

        tallies = _tally(pairs(), assignment)
        moved = {key: self._edge(key, t) for key, t in tallies.items()}
        witnesses = {key: tuple(t[2:]) for key, t in tallies.items()}
        for key in [
            key for key in self.edges
            if key[0] in affected or key[1] in affected or old_id in key
        ]:
            edge = self.edges.pop(key)
            witness = self._witnesses.pop(key)
            if old_id not in key:
                moved[key] = edge
                witnesses[key] = witness
        rank = {node_id: index for index, node_id in enumerate(affected)}
        after_children = len(assignment)

        def scan_position(key: tuple[int, int]) -> tuple[int, int, int]:
            source, target = key
            parent_id, child_id, first_target = witnesses[key]
            positions = []
            if source in rank:
                positions.append((rank[source], parent_id, child_id))
            if target in rank:
                positions.append((rank[target], first_target, after_children))
            return min(positions)

        for key in sorted(moved, key=scan_position):
            self.edges[key] = moved[key]
            self._witnesses[key] = witnesses[key]

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> SynopsisNode:
        """The synopsis node with the given id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise SynopsisError(f"no synopsis node #{node_id}") from None

    def edge(self, source: int, target: int) -> Optional[SynopsisEdge]:
        """The edge source→target, or None when absent."""
        return self.edges.get((source, target))

    def node_of(self, element: DocumentNode) -> int:
        """The synopsis node id containing ``element``."""
        return self.assignment[element.node_id]

    def _adjacency_index(self) -> tuple[dict, dict]:
        """(children, parents) edge lists per node id, in ``edges`` order."""
        if self._adjacency is None:
            children: dict[int, list[SynopsisEdge]] = {}
            parents: dict[int, list[SynopsisEdge]] = {}
            for edge in self.edges.values():
                children.setdefault(edge.source, []).append(edge)
                parents.setdefault(edge.target, []).append(edge)
            self._adjacency = (children, parents)
        return self._adjacency

    def children_of(self, node_id: int) -> list[SynopsisEdge]:
        """Outgoing edges of a synopsis node."""
        return list(self._adjacency_index()[0].get(node_id, ()))

    def parents_of(self, node_id: int) -> list[SynopsisEdge]:
        """Incoming edges of a synopsis node."""
        return list(self._adjacency_index()[1].get(node_id, ()))

    def nodes_with_tag(self, tag: str) -> list[SynopsisNode]:
        """All synopsis nodes whose elements carry ``tag``."""
        return [node for node in self.nodes.values() if node.tag == tag]

    def iter_nodes(self) -> Iterator[SynopsisNode]:
        """All synopsis nodes (insertion order)."""
        return iter(self.nodes.values())

    @property
    def node_count(self) -> int:
        """Number of synopsis nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of synopsis edges."""
        return len(self.edges)

    # ------------------------------------------------------------------
    # nearest-ancestor lookup (used by backward counts)
    # ------------------------------------------------------------------
    def ancestor_in(self, element: DocumentNode, node_id: int) -> Optional[DocumentNode]:
        """The nearest ancestor of ``element`` lying in node ``node_id``."""
        for ancestor in element.iter_ancestors():
            if self.assignment[ancestor.node_id] == node_id:
                return ancestor
        return None

    # ------------------------------------------------------------------
    # refinement support
    # ------------------------------------------------------------------
    def split_node(
        self, node_id: int, part: set[int]
    ) -> tuple[int, int]:
        """Split node ``node_id`` into (elements in ``part``, the rest).

        Args:
            node_id: the node to split.
            part: document node ids selecting the first piece; must be a
                proper, non-empty subset of the extent.

        Returns:
            The ids of the two new synopsis nodes (part first).

        Raises:
            SynopsisError: when the subset is empty or not proper.
        """
        node = self.node(node_id)
        inside = [e for e in node.extent if e.node_id in part]
        outside = [e for e in node.extent if e.node_id not in part]
        if not inside or not outside:
            raise SynopsisError("split subset must be proper and non-empty")
        del self.nodes[node_id]
        first = SynopsisNode(self._next_id, node.tag, inside)
        self._next_id += 1
        second = SynopsisNode(self._next_id, node.tag, outside)
        self._next_id += 1
        self.nodes[first.node_id] = first
        self.nodes[second.node_id] = second
        for element in inside:
            self.assignment[element.node_id] = first.node_id
        for element in outside:
            self.assignment[element.node_id] = second.node_id
        # The parts and their neighbours, inserted in this exact sequence:
        # the set's iteration order fixes the order of the rebuilt edges.
        affected = {first.node_id, second.node_id}
        affected.update(
            self.assignment[e.parent.node_id]
            for e in node.extent
            if e.parent is not None
        )
        affected.update(
            self.assignment[c.node_id] for e in node.extent for c in e.children
        )
        self._replace_split_edges(node_id, (first, second), affected)
        return first.node_id, second.node_id

    def copy(self) -> "GraphSynopsis":
        """A structural copy sharing the document (cheap enough for XBUILD
        candidate evaluation: extent lists are copied shallowly)."""
        duplicate = GraphSynopsis(self.tree)
        duplicate.assignment = list(self.assignment)
        duplicate._next_id = self._next_id
        duplicate.nodes = {
            node_id: SynopsisNode(node.node_id, node.tag, list(node.extent))
            for node_id, node in self.nodes.items()
        }
        duplicate.edges = {
            key: SynopsisEdge(
                edge.source,
                edge.target,
                edge.child_count,
                edge.parent_count,
                edge.source_size,
                edge.target_size,
            )
            for key, edge in self.edges.items()
        }
        duplicate._witnesses = dict(self._witnesses)
        return duplicate

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the partition and edge-count invariants (test support)."""
        covered = 0
        for node in self.nodes.values():
            if any(
                earlier.node_id >= later.node_id
                for earlier, later in zip(node.extent, node.extent[1:])
            ):
                raise SynopsisError(
                    f"extent of node #{node.node_id} is not in document order"
                )
            for element in node.extent:
                if self.assignment[element.node_id] != node.node_id:
                    raise SynopsisError(
                        f"assignment mismatch for element {element.node_id}"
                    )
                if element.tag != node.tag:
                    raise SynopsisError("extent element tag mismatch")
            covered += node.count
        if covered != self.tree.element_count:
            raise SynopsisError(
                f"partition covers {covered} of {self.tree.element_count} elements"
            )
        for source, target in self.edges:
            if source not in self.nodes or target not in self.nodes:
                raise SynopsisError(
                    f"edge {source}->{target} references a missing node"
                )
        # Incoming child_counts partition each node's extent (tree data).
        for node_id, node in self.nodes.items():
            incoming = sum(e.child_count for e in self.parents_of(node_id))
            expected = node.count - (
                1 if self.assignment[self.tree.root.node_id] == node_id else 0
            )
            if incoming != expected:
                raise SynopsisError(
                    f"incoming counts of node #{node_id} sum to {incoming}, "
                    f"expected {expected}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GraphSynopsis nodes={self.node_count} edges={self.edge_count}>"


def _tally(
    pairs: Iterable[tuple[DocumentNode, DocumentNode]], assignment: list[int]
) -> dict[tuple[int, int], list]:
    """Tally (parent, child) document edges per synopsis edge key.

    Each tally is ``[child_count, parent ids, p, c, t]`` in first-seen key
    order.  ``(p, c, t)`` is the key's *witness*: ``p`` its smallest parent
    id, ``c`` the smallest id among ``p``'s children on the key, ``t`` its
    smallest child id.  Extents are in document order and children ids
    grow with their index, so a scan of the source's extent first meets
    the key at child pair ``(p, c)``, and one of the target's extent at
    element ``t``'s parent pair.
    """
    tallies: dict[tuple[int, int], list] = {}
    for parent, child in pairs:
        parent_id, child_id = parent.node_id, child.node_id
        key = (assignment[parent_id], assignment[child_id])
        tally = tallies.get(key)
        if tally is None:
            tallies[key] = [1, {parent_id}, parent_id, child_id, child_id]
            continue
        tally[0] += 1
        tally[1].add(parent_id)
        if parent_id < tally[2]:
            tally[2], tally[3] = parent_id, child_id
        elif parent_id == tally[2] and child_id < tally[3]:
            tally[3] = child_id
        if child_id < tally[4]:
            tally[4] = child_id
    return tallies


def label_split_synopsis(tree: DocumentTree) -> GraphSynopsis:
    """The coarsest synopsis: one node per distinct tag (paper Figure 3a).

    This is the ``S_0(G)`` starting point of XBUILD and the leftmost point
    of every error-vs-size curve in Figure 9.
    """
    return GraphSynopsis.from_partition(
        tree, (tree.extent(tag) for tag in tree.tags)
    )
