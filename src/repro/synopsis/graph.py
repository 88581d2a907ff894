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

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from ..errors import SynopsisError

_element_id = attrgetter("node_id")


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

    Immutable, so graph copies share edge records.  ``witness`` is where
    an extent scan first meets the edge (see :func:`_tally`); like
    extents it is construction scaffolding: left out of equality, never
    persisted, and None on a loaded graph.
    """

    source: int
    target: int
    child_count: int
    parent_count: int
    source_size: int
    target_size: int
    witness: Optional[tuple[int, int, int]] = field(
        default=None, compare=False
    )

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
    """The read indexes of a graph, all built in one pass."""

    #: node id -> outgoing edges, in ``edges`` order
    children: dict[int, list[SynopsisEdge]]
    #: node id -> incoming edges, in ``edges`` order
    parents: dict[int, list[SynopsisEdge]]
    #: node id -> child tag -> target ids, in ``edges`` order
    child_ids_by_tag: dict[int, dict[str, list[int]]]
    #: tag -> nodes with that tag, in ``nodes`` order
    nodes_by_tag: dict[str, list]


class IndexedGraph:
    """The read API a graph synopsis shares with a loaded one.

    Subclasses hold ``nodes`` (id -> node with a ``tag``) and ``edges``
    ((source, target) -> :class:`SynopsisEdge`), and set ``_adjacency``
    to None whenever either changes; the indexes are rebuilt on the next
    read.
    """

    nodes: dict
    edges: dict[tuple[int, int], SynopsisEdge]
    _adjacency: Optional[_Adjacency]

    def _adjacency_index(self) -> _Adjacency:
        """The indexes over ``nodes`` and ``edges``, built on first use."""
        if self._adjacency is None:
            nodes = self.nodes
            children: dict[int, list[SynopsisEdge]] = {}
            parents: dict[int, list[SynopsisEdge]] = {}
            by_tag: dict[int, dict[str, list[int]]] = {}
            for edge in self.edges.values():
                children.setdefault(edge.source, []).append(edge)
                parents.setdefault(edge.target, []).append(edge)
                by_tag.setdefault(edge.source, {}).setdefault(
                    nodes[edge.target].tag, []
                ).append(edge.target)
            tags: dict[str, list] = {}
            for node in nodes.values():
                tags.setdefault(node.tag, []).append(node)
            self._adjacency = _Adjacency(children, parents, by_tag, tags)
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
        """Outgoing edges of a node."""
        return list(self._adjacency_index().children.get(node_id, ()))

    def parents_of(self, node_id: int) -> list[SynopsisEdge]:
        """Incoming edges of a node."""
        return list(self._adjacency_index().parents.get(node_id, ()))

    def child_ids_with_tag(self, node_id: int, tag: str) -> list[int]:
        """Targets of the node's outgoing edges whose tag is ``tag``, in
        ``edges`` order.  The list is the index's own: do not mutate it."""
        by_tag = self._adjacency_index().child_ids_by_tag.get(node_id)
        return by_tag.get(tag, []) if by_tag is not None else []

    def nodes_with_tag(self, tag: str) -> list:
        """All nodes whose elements carry ``tag``, in ``nodes`` order."""
        return list(self._adjacency_index().nodes_by_tag.get(tag, ()))

    def iter_nodes(self) -> Iterator:
        """All nodes (insertion order)."""
        return iter(self.nodes.values())

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
        # lazy adjacency index over ``edges`` — rebuilt after mutations
        self._adjacency: Optional[tuple[dict, dict]] = None

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
        self,
        key: tuple[int, int],
        child_count: int,
        parent_count: int,
        witness: tuple[int, int, int],
    ) -> SynopsisEdge:
        """The edge ``key`` with the given counts and witness."""
        source, target = key
        return SynopsisEdge(
            source,
            target,
            child_count,
            parent_count,
            self.nodes[source].count,
            self.nodes[target].count,
            witness,
        )

    def _tallied(self, tallies: dict[tuple[int, int], list]) -> dict:
        """The edges of :func:`_tally` entries, in their order."""
        return {
            key: self._edge(key, t[0], len(t[1]), (t[2], t[3], t[4]))
            for key, t in tallies.items()
        }

    def _replace_split_edges(
        self,
        old_id: int,
        parts: tuple[SynopsisNode, SynopsisNode],
        affected: set[int],
    ) -> None:
        """Swap the edges of split node ``old_id`` for those of its parts.

        Only edges incident to the two parts change counts (see
        :meth:`_part_edges`).  Every other edge with an endpoint in
        ``affected`` keeps its counts but moves, with the parts' edges, to
        the end of ``edges``: in the order a rescan of every ``affected``
        extent, in set iteration order, first meets the edge's document
        edges — each element's child pairs, then its parent pair.  That
        order is observable (candidate pools, default statistics and
        serialization all iterate ``edges``), so builds stay bit-identical
        to the rescan.
        """
        self._adjacency = None
        moved = self._part_edges(old_id, parts)
        for key in [
            key for key in self.edges
            if key[0] in affected or key[1] in affected or old_id in key
        ]:
            edge = self.edges.pop(key)
            if old_id not in key:
                moved[key] = edge
        rank = {node_id: index for index, node_id in enumerate(affected)}
        after_children = len(self.assignment)

        def scan_position(edge: SynopsisEdge) -> tuple[int, int, int]:
            parent_id, child_id, first_target = edge.witness
            positions = []
            if edge.source in rank:
                positions.append((rank[edge.source], parent_id, child_id))
            if edge.target in rank:
                positions.append(
                    (rank[edge.target], first_target, after_children)
                )
            return min(positions)

        for edge in sorted(moved.values(), key=scan_position):
            self.edges[edge.source, edge.target] = edge

    def _part_edges(
        self, old_id: int, parts: tuple[SynopsisNode, SynopsisNode]
    ) -> dict[tuple[int, int], SynopsisEdge]:
        """The edges incident to the parts of split node ``old_id``;
        ``edges`` still holds the old node's edges.

        Only the smaller part S is tallied (Hopcroft's rule, as Paige &
        Tarjan apply it to partition refinement): each S element's child
        pairs and its parent pair.  The larger part L's counts are the old
        node's minus S's.  Child counts subtract.  Parent counts of L's
        outgoing edges subtract too, since the old node's elements
        partition into S and L.  An incoming parent that has a child in S
        keeps one in L when some same-tag child of it lies in L.  L's witnesses come from
        the old node's when those lie in L, else from a scan of L in
        document order that stops at the first hit.  A recursive node (an
        ``old -> old`` edge) has pairs inside itself, so both parts are
        tallied.
        """
        assignment = self.assignment
        recursive = (old_id, old_id) in self.edges
        small, large = sorted(parts, key=lambda part: part.count)
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
        for (source, target), edge in self.edges.items():
            if source == old_id:
                key, small_key = (large_id, target), (small_id, target)
            elif target == old_id:
                key, small_key = (source, large_id), (source, small_id)
            else:
                continue
            tally = tallies.get(small_key)
            child_count, parent_count = edge.child_count, edge.parent_count
            if tally is not None:
                child_count -= tally[0]
                parent_count -= len(tally[1])
            if not child_count:
                continue
            if source == old_id:
                witness = self._outgoing_witness(large, target, edge.witness)
            else:
                if tally is not None:
                    parent_count += sum(
                        1 for parent_id in tally[1]
                        if self._first_child_in(parent_id, large_id) is not None
                    )
                witness = self._incoming_witness(source, large, edge.witness)
            edges[key] = self._edge(key, child_count, parent_count, witness)
        return edges

    def _first_child_in(
        self, element_id: int, node_id: int
    ) -> Optional[DocumentNode]:
        """The first child of element ``element_id`` in node ``node_id``."""
        assignment = self.assignment
        tag = self.nodes[node_id].tag
        for child in self.tree.child_index()[element_id].get(tag, ()):
            if assignment[child.node_id] == node_id:
                return child
        return None

    def _outgoing_witness(
        self, part: SynopsisNode, target: int, witness: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        """The witness of ``part -> target`` from the split node's
        ``witness`` on its edge to ``target``: its elements where those lie
        in ``part``, else a scan of ``part`` in document order."""
        parent_id, child_id, first_target = witness
        assignment, extent = self.assignment, part.extent
        if assignment[parent_id] == part.node_id:
            start = bisect_left(extent, parent_id, key=_element_id)
        else:
            for start, element in enumerate(extent):
                child = self._first_child_in(element.node_id, target)
                if child is not None:
                    parent_id, child_id = element.node_id, child.node_id
                    break
        parent = self.tree.node_by_id(first_target).parent
        if assignment[parent.node_id] != part.node_id:
            # Only a part element nested between the first parent and its
            # first child can parent a smaller child.
            first_target = child_id
            for position in range(start + 1, len(extent)):
                element_id = extent[position].node_id
                if element_id > first_target:
                    break
                child = self._first_child_in(element_id, target)
                if child is not None and child.node_id < first_target:
                    first_target = child.node_id
        return parent_id, child_id, first_target

    def _incoming_witness(
        self, source: int, part: SynopsisNode, witness: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        """The witness of ``source -> part`` from the split node's
        ``witness`` on its edge from ``source``, like
        :meth:`_outgoing_witness`."""
        parent_id, child_id, first_target = witness
        assignment = self.assignment
        if assignment[first_target] != part.node_id:
            first_target = next(
                element.node_id
                for element in part.extent
                if element.parent is not None
                and assignment[element.parent.node_id] == source
            )
        if assignment[child_id] != part.node_id:
            # A smaller parent of a part element precedes the first one's
            # parent, so it is an ancestor of it: the outermost one wins.
            ancestor = self.tree.node_by_id(first_target).parent
            while ancestor is not None:
                if assignment[ancestor.node_id] == source:
                    child = self._first_child_in(ancestor.node_id, part.node_id)
                    if child is not None:
                        parent_id, child_id = ancestor.node_id, child.node_id
                ancestor = ancestor.parent
        return parent_id, child_id, first_target

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
        # The parts and their neighbours, inserted in the sequence a scan of
        # the old extent first meets them: each parent node at the first
        # element it parents, then each child node at its first pair.  The
        # set's iteration order fixes the order of the rebuilt edges.
        parents, children = [], []
        for (source, target), edge in self.edges.items():
            if target == node_id and source != node_id:
                parents.append((edge.witness[2], source))
            elif source == node_id and target != node_id:
                children.append((edge.witness[:2], target))
        affected = {first.node_id, second.node_id}
        affected.update(source for _, source in sorted(parents))
        affected.update(target for _, target in sorted(children))
        self._replace_split_edges(node_id, (first, second), affected)
        return first.node_id, second.node_id

    def copy(self) -> "GraphSynopsis":
        """A structural copy sharing the document, the nodes and the edges.

        No code mutates a :class:`SynopsisNode` or its extent once built
        (a split replaces the node), and edges are immutable, so the copy
        shares both; only the assignment and the two dicts are copied.
        """
        duplicate = GraphSynopsis(self.tree)
        duplicate.assignment = list(self.assignment)
        duplicate._next_id = self._next_id
        duplicate.nodes = dict(self.nodes)
        duplicate.edges = dict(self.edges)
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
