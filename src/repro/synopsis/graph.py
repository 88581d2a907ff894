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
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

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


@dataclass(frozen=True)
class SynopsisEdge:
    """One synopsis edge with its counts and derived stabilities.

    Immutable, so graph copies share edge records.
    """

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


class _Adjacency(NamedTuple):
    """The read indexes of a graph, each list in canonical order."""

    #: node id -> outgoing edges, by target id
    children: dict[int, list[SynopsisEdge]]
    #: node id -> incoming edges, by source id
    parents: dict[int, list[SynopsisEdge]]
    #: node id -> child tag -> target ids, ascending; a node's entry is
    #: filled from ``children`` on its first read
    #: (:meth:`IndexedGraph.child_ids_with_tag`)
    child_ids_by_tag: dict[int, dict[str, list[int]]]
    #: tag -> nodes with that tag, by id
    nodes_by_tag: dict[str, list]


class IndexedGraph:
    """The read API a graph synopsis shares with a loaded one.

    Subclasses hold ``nodes`` (id -> node with a ``tag``) and ``edges``
    ((source, target) -> :class:`SynopsisEdge`), and ``_adjacency``, the
    read indexes over both, built on the first read when None.

    Every ordered read is in the *canonical order*, which depends only on
    the current graph: nodes by id, a node's children by target id, its
    parents by source id, and all edges by (source, target).  The
    insertion order of ``nodes`` and ``edges`` means nothing.

    A change to ``nodes`` or ``edges`` either sets ``_adjacency`` to None
    or replaces it with an index patched to the lists a rebuild would
    give (:meth:`GraphSynopsis.split_node`).  The index is never edited
    in place, except that a node's ``child_ids_by_tag`` entry is filled
    on its first read: a graph copy shares it.
    """

    nodes: dict
    edges: dict[tuple[int, int], SynopsisEdge]
    _adjacency: Optional[_Adjacency]

    def _adjacency_index(self) -> _Adjacency:
        """The indexes over ``nodes`` and ``edges``, built on first use."""
        if self._adjacency is None:
            children: dict[int, list[SynopsisEdge]] = {}
            parents: dict[int, list[SynopsisEdge]] = {}
            for edge in self.iter_edges():
                children.setdefault(edge.source, []).append(edge)
                parents.setdefault(edge.target, []).append(edge)
            tags: dict[str, list] = {}
            for node in self.iter_nodes():
                tags.setdefault(node.tag, []).append(node)
            self._adjacency = _Adjacency(children, parents, {}, tags)
        return self._adjacency

    def node(self, node_id: int):
        """The node with the given id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise SynopsisError(f"no synopsis node #{node_id}") from None

    def edge(self, source: int, target: int) -> Optional[SynopsisEdge]:
        """The edge source→target, or None when absent."""
        return self.edges.get((source, target))

    def children_of(self, node_id: int) -> list[SynopsisEdge]:
        """Outgoing edges of a node, by target id."""
        return list(self._adjacency_index().children.get(node_id, ()))

    def parents_of(self, node_id: int) -> list[SynopsisEdge]:
        """Incoming edges of a node, by source id."""
        return list(self._adjacency_index().parents.get(node_id, ()))

    def child_ids_with_tag(self, node_id: int, tag: str) -> list[int]:
        """Targets of the node's outgoing edges whose tag is ``tag``,
        ascending.  The list is the index's own: do not mutate it.

        The node's entry is grouped from its outgoing edges on the first
        read.  Graphs sharing an index have equal nodes and edges, so the
        entry is right for every one of them."""
        index = self._adjacency_index()
        by_tag = index.child_ids_by_tag.get(node_id)
        if by_tag is None:
            nodes = self.nodes
            by_tag = {}
            for edge in index.children.get(node_id, ()):
                by_tag.setdefault(nodes[edge.target].tag, []).append(
                    edge.target
                )
            index.child_ids_by_tag[node_id] = by_tag
        return by_tag.get(tag, [])

    def nodes_with_tag(self, tag: str) -> list:
        """All nodes whose elements carry ``tag``, by id."""
        return list(self._adjacency_index().nodes_by_tag.get(tag, ()))

    def iter_nodes(self) -> Iterator:
        """All nodes, by id."""
        return map(self.nodes.__getitem__, sorted(self.nodes))

    def iter_edges(self) -> Iterator[SynopsisEdge]:
        """All edges, by (source, target)."""
        return map(self.edges.__getitem__, sorted(self.edges))

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self.edges)


class GraphSynopsis(IndexedGraph):
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
        # read indexes over ``nodes`` and ``edges``, built on first read
        self._adjacency: Optional[_Adjacency] = None

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
        self.edges = self._tallied(tallies)

    def _edge(
        self, key: tuple[int, int], child_count: int, parent_count: int
    ) -> SynopsisEdge:
        """The edge ``key`` with the given counts."""
        source, target = key
        return SynopsisEdge(
            source,
            target,
            child_count,
            parent_count,
            self.nodes[source].count,
            self.nodes[target].count,
        )

    def _tallied(self, tallies: dict[tuple[int, int], list]) -> dict:
        """The edges of :func:`_tally` entries."""
        return {
            key: self._edge(key, child_count, len(parent_ids))
            for key, (child_count, parent_ids) in tallies.items()
        }

    def _replace_split_edges(
        self,
        old_id: int,
        parts: tuple[SynopsisNode, SynopsisNode],
        index: _Adjacency,
    ) -> None:
        """Swap the edges of split node ``old_id`` for those of its parts
        (:meth:`_part_edges`), and replace ``index``, the adjacency index
        before the split, with one patched to match.  Every other edge
        keeps its record."""
        added = self._part_edges(old_id, parts, index)
        edges = self.edges
        for edge in (
            *index.children.get(old_id, ()), *index.parents.get(old_id, ())
        ):
            edges.pop((edge.source, edge.target), None)
        edges.update(added)
        self._adjacency = self._patched_adjacency(index, old_id, parts, added)

    @staticmethod
    def _patched_adjacency(
        index: _Adjacency,
        old_id: int,
        parts: tuple[SynopsisNode, SynopsisNode],
        added: dict[tuple[int, int], SynopsisEdge],
    ) -> _Adjacency:
        """``index`` after split node ``old_id`` gave way to ``parts``,
        whose edges are ``added``: the lists a rebuild would give.

        The parts hold the two largest ids, so a neighbour of the old node
        keeps its other edges in order and takes its edges to or from the
        parts at the end.  Every other list is shared with ``index``; new
        lists and dicts replace the old ones, which a graph copy may
        share.  A node whose children changed loses its
        ``child_ids_by_tag`` entry, to be grouped again on its next read.
        """
        children, parents = dict(index.children), dict(index.parents)
        by_tag = dict(index.child_ids_by_tag)
        for table in (children, parents, by_tag):
            table.pop(old_id, None)
        for edge in index.parents.get(old_id, ()):
            source = edge.source
            if source != old_id:
                children[source] = [
                    kept for kept in children[source] if kept.target != old_id
                ]
                by_tag.pop(source, None)
        for edge in index.children.get(old_id, ()):
            target = edge.target
            if target != old_id:
                parents[target] = [
                    kept for kept in parents[target] if kept.source != old_id
                ]
        for key in sorted(added):
            edge = added[key]
            children.setdefault(edge.source, []).append(edge)
            parents.setdefault(edge.target, []).append(edge)
        tag = parts[0].tag
        tag_nodes = dict(index.nodes_by_tag)
        tag_nodes[tag] = [
            node for node in tag_nodes[tag] if node.node_id != old_id
        ] + list(parts)
        return _Adjacency(children, parents, by_tag, tag_nodes)

    def _part_edges(
        self,
        old_id: int,
        parts: tuple[SynopsisNode, SynopsisNode],
        index: _Adjacency,
    ) -> dict[tuple[int, int], SynopsisEdge]:
        """The edges incident to the parts of split node ``old_id``;
        ``index`` still holds the old node's edges.

        Only the smaller part S is tallied (Hopcroft's rule, as Paige &
        Tarjan apply it to partition refinement): each S element's child
        pairs and its parent pair.  The larger part L's counts are the old
        node's minus S's.  Child counts subtract.  Parent counts of L's
        outgoing edges subtract too, since the old node's elements
        partition into S and L.  An incoming parent that has a child in S
        keeps one in L when some same-tag child of it lies in L.  A
        recursive node (an ``old -> old`` edge) has pairs inside itself,
        so both parts are tallied.
        """
        assignment = self.assignment
        recursive = (old_id, old_id) in self.edges
        small, large = sorted(parts, key=attrgetter("count"))
        tallies = _tally(
            _part_pairs(
                parts if recursive else (small,),
                assignment,
                {part.node_id for part in parts},
            ),
            assignment,
        )
        edges = self._tallied(tallies)
        if recursive:
            return edges
        small_id, large_id = small.node_id, large.node_id
        child_index = self.tree.child_index()
        for edge in (
            *index.children.get(old_id, ()), *index.parents.get(old_id, ())
        ):
            source, target = edge.source, edge.target
            if source == old_id:
                key, small_key = (large_id, target), (small_id, target)
            else:
                key, small_key = (source, large_id), (source, small_id)
            tally = tallies.get(small_key)
            child_count, parent_count = edge.child_count, edge.parent_count
            if tally is not None:
                child_count -= tally[0]
                parent_count -= len(tally[1])
                if target == old_id:
                    parent_count += sum(
                        1
                        for parent_id in tally[1]
                        if any(
                            assignment[child.node_id] == large_id
                            for child in child_index[parent_id].get(
                                large.tag, ()
                            )
                        )
                    )
            if child_count:
                edges[key] = self._edge(key, child_count, parent_count)
        return edges

    # ------------------------------------------------------------------
    # accessors (the rest are IndexedGraph's)
    # ------------------------------------------------------------------
    def node_of(self, element: DocumentNode) -> int:
        """The synopsis node id containing ``element``."""
        return self.assignment[element.node_id]

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
            The ids of the two new synopsis nodes (part first), the two
            largest in the graph.

        Raises:
            SynopsisError: when the subset is empty or not proper.
        """
        node = self.node(node_id)
        inside = [e for e in node.extent if e.node_id in part]
        outside = [e for e in node.extent if e.node_id not in part]
        if not inside or not outside:
            raise SynopsisError("split subset must be proper and non-empty")
        index = self._adjacency_index()
        del self.nodes[node_id]
        first = SynopsisNode(self._next_id, node.tag, inside)
        second = SynopsisNode(self._next_id + 1, node.tag, outside)
        self._next_id += 2
        self.nodes[first.node_id] = first
        self.nodes[second.node_id] = second
        for element in inside:
            self.assignment[element.node_id] = first.node_id
        for element in outside:
            self.assignment[element.node_id] = second.node_id
        self._replace_split_edges(node_id, (first, second), index)
        return first.node_id, second.node_id

    def copy(self) -> "GraphSynopsis":
        """A structural copy sharing the document, the nodes, the edges
        and the adjacency index.

        No code mutates a :class:`SynopsisNode` or its extent once built
        (a split replaces the node), edges are immutable, and a split
        replaces the index rather than editing it, so the copy shares all
        three; only the assignment and the two dicts are copied.
        """
        duplicate = GraphSynopsis(self.tree)
        duplicate.assignment = list(self.assignment)
        duplicate._next_id = self._next_id
        duplicate.nodes = dict(self.nodes)
        duplicate.edges = dict(self.edges)
        duplicate._adjacency = self._adjacency
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GraphSynopsis nodes={self.node_count} edges={self.edge_count}>"


def _part_pairs(
    parts: Iterable[SynopsisNode], assignment: list[int], split_ids: set[int]
) -> Iterator[tuple[DocumentNode, DocumentNode]]:
    """The (parent, child) document edges incident to ``parts``: each
    element's child pairs, then its parent pair unless that parent lies in
    a node of ``split_ids`` (whose own child pairs hold it)."""
    for part in parts:
        for element in part.extent:
            for child in element.children:
                yield element, child
            parent = element.parent
            if parent is not None and assignment[parent.node_id] not in split_ids:
                yield parent, element


def _tally(
    pairs: Iterable[tuple[DocumentNode, DocumentNode]], assignment: list[int]
) -> dict[tuple[int, int], list]:
    """Tally (parent, child) document edges per synopsis edge key: each
    tally is ``[child_count, parent ids]``."""
    tallies: dict[tuple[int, int], list] = {}
    for parent, child in pairs:
        parent_id = parent.node_id
        key = (assignment[parent_id], assignment[child.node_id])
        tally = tallies.get(key)
        if tally is None:
            tallies[key] = [1, {parent_id}]
        else:
            tally[0] += 1
            tally[1].add(parent_id)
    return tallies


def label_split_synopsis(tree: DocumentTree) -> GraphSynopsis:
    """The coarsest synopsis: one node per distinct tag (paper Figure 3a).

    This is the ``S_0(G)`` starting point of XBUILD and the leftmost point
    of every error-vs-size curve in Figure 9.
    """
    return GraphSynopsis.from_partition(
        tree, (tree.extent(tag) for tag in tree.tags)
    )
