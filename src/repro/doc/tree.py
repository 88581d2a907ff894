"""The XML data tree ``T(V, E)`` of the paper's Section 2.

A :class:`DocumentTree` wraps a root :class:`~repro.doc.node.DocumentNode`
and maintains the derived structures the rest of the library needs
constantly: stable node ids, per-tag extents, and summary counts.  Trees are
conceptually immutable once frozen — all generators and parsers finish by
calling :meth:`DocumentTree.freeze` (done automatically by the constructor
unless ``freeze=False``), and mutation afterwards is a usage error.  The
lazily built indexes (:meth:`DocumentTree.subtree_end`,
:meth:`DocumentTree.child_index`) rely on it: no children list changes
after ``freeze``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

from ..errors import DocumentError
from .node import DocumentNode


class DocumentTree:
    """A rooted, node-labelled XML document tree.

    Args:
        root: the document root element.
        name: optional human-readable name (data-set name, file name, ...).
        freeze: assign node ids and build tag extents immediately.

    Raises:
        DocumentError: if the structure under ``root`` is not a tree
            (a cycle or a shared child would surface as an id clash or an
            inconsistent parent pointer).
    """

    def __init__(self, root: DocumentNode, name: str = "", freeze: bool = True):
        if root.parent is not None:
            raise DocumentError("document root must not have a parent")
        self.root = root
        self.name = name
        self._nodes: list[DocumentNode] = []
        self._extents: dict[str, list[DocumentNode]] = {}
        # largest id in each node's subtree, built on first use
        self._subtree_ends: Optional[list[int]] = None
        # each node's children grouped by tag, built on first use
        self._child_index: Optional[list[dict[str, list[DocumentNode]]]] = None
        # tags of which some element carries a value, built on first use
        self._valued_tags: Optional[frozenset[str]] = None
        self._frozen = False
        if freeze:
            self.freeze()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def freeze(self) -> "DocumentTree":
        """Assign pre-order node ids and build per-tag extents.

        Idempotent; returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        nodes: list[DocumentNode] = []
        extents: dict[str, list[DocumentNode]] = {}
        seen: set[int] = set()
        for node in self.root.iter_subtree():
            if id(node) in seen:
                raise DocumentError("document graph is not a tree (shared node)")
            seen.add(id(node))
            node.node_id = len(nodes)
            nodes.append(node)
            extents.setdefault(node.tag, []).append(node)
        self._nodes = nodes
        self._extents = extents
        self._frozen = True
        return self

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise DocumentError("document tree must be frozen first")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def element_count(self) -> int:
        """Total number of nodes in the tree (the paper's "Element Count")."""
        self._require_frozen()
        return len(self._nodes)

    @property
    def tags(self) -> list[str]:
        """All distinct tags, in first-appearance (document) order."""
        self._require_frozen()
        return list(self._extents)

    def nodes(self) -> list[DocumentNode]:
        """All nodes in pre-order; index in this list == ``node_id``."""
        self._require_frozen()
        return self._nodes

    def node_by_id(self, node_id: int) -> DocumentNode:
        """Return the node with the given id."""
        self._require_frozen()
        try:
            return self._nodes[node_id]
        except IndexError:
            raise DocumentError(f"no node with id {node_id}") from None

    def extent(self, tag: str) -> list[DocumentNode]:
        """All nodes with tag ``tag`` (document order); empty list if none."""
        self._require_frozen()
        return self._extents.get(tag, [])

    def subtree_end(self, node: DocumentNode) -> int:
        """The largest node id in ``node``'s subtree.

        Ids are pre-order, so the subtree is exactly the id interval
        ``[node.node_id, subtree_end(node)]``.  The ends are computed on
        first use, which keeps parsing and :meth:`freeze` at their cost.
        """
        self._require_frozen()
        if self._subtree_ends is None:
            ends = list(range(len(self._nodes)))
            for element in reversed(self._nodes):
                if element.children:
                    ends[element.node_id] = ends[element.children[-1].node_id]
            self._subtree_ends = ends
        return self._subtree_ends[node.node_id]

    def child_index(self) -> list[dict[str, list[DocumentNode]]]:
        """Each node's children grouped by tag, indexed by ``node_id``.

        ``child_index()[e.node_id][tag]`` lists the children of ``e`` with
        that tag in document order; a tag without such children is absent.
        Childless nodes share one empty dict.  The index is built on first
        use, like :meth:`subtree_end`, and is shared: callers must not
        mutate it.
        """
        self._require_frozen()
        if self._child_index is None:
            no_children: dict[str, list[DocumentNode]] = {}
            index = [no_children] * len(self._nodes)
            for element in self._nodes:
                if element.children:
                    groups: dict[str, list[DocumentNode]] = {}
                    for child in element.children:
                        groups.setdefault(child.tag, []).append(child)
                    index[element.node_id] = groups
            self._child_index = index
        return self._child_index

    def valued_tags(self) -> frozenset[str]:
        """The tags of which at least one element carries a value, built
        on first use like :meth:`child_index`."""
        self._require_frozen()
        if self._valued_tags is None:
            self._valued_tags = frozenset(
                tag
                for tag, extent in self._extents.items()
                if any(element.value is not None for element in extent)
            )
        return self._valued_tags

    def tag_counts(self) -> Counter:
        """Multiset of tags — how many elements carry each tag."""
        self._require_frozen()
        return Counter({tag: len(nodes) for tag, nodes in self._extents.items()})

    def iter_nodes(self) -> Iterator[DocumentNode]:
        """Iterate all nodes in pre-order."""
        self._require_frozen()
        return iter(self._nodes)

    def iter_edges(self) -> Iterator[tuple[DocumentNode, DocumentNode]]:
        """Iterate all (parent, child) containment edges."""
        self._require_frozen()
        for node in self._nodes:
            for child in node.children:
                yield node, child

    def max_depth(self) -> int:
        """Depth of the deepest node (root is depth 0)."""
        self._require_frozen()
        best = 0
        stack: list[tuple[DocumentNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > best:
                best = depth
            stack.extend((child, depth + 1) for child in node.children)
        return best

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`DocumentError` if broken.

        Verified invariants: parent pointers match child lists, node ids are
        a 0..n-1 pre-order numbering, extents partition the node set.
        """
        self._require_frozen()
        total = 0
        for expected_id, node in enumerate(self._nodes):
            if node.node_id != expected_id:
                raise DocumentError(
                    f"node id mismatch: stored {node.node_id}, position {expected_id}"
                )
            for child in node.children:
                if child.parent is not node:
                    raise DocumentError(
                        f"child <{child.tag}> of <{node.tag}> has wrong parent pointer"
                    )
        for tag, nodes in self._extents.items():
            for node in nodes:
                if node.tag != tag:
                    raise DocumentError(f"extent {tag!r} contains <{node.tag}>")
            total += len(nodes)
        if total != len(self._nodes):
            raise DocumentError(
                f"extents cover {total} nodes, tree has {len(self._nodes)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.root.tag
        size = len(self._nodes) if self._frozen else "?"
        return f"<DocumentTree {label!r} nodes={size}>"


def subtree_size(node: DocumentNode) -> int:
    """Number of nodes in the subtree rooted at ``node`` (including it)."""
    return sum(1 for _ in node.iter_subtree())


def build_tree(spec, name: str = "") -> DocumentTree:
    """Build a :class:`DocumentTree` from a nested-tuple specification.

    A spec is ``(tag, value, [child_spec, ...])`` or the shorthand
    ``(tag, [children])`` / ``tag`` for value-less nodes.  Intended for
    tests and small hand-written documents (e.g. the paper's Figure 1)::

        build_tree(("a", [("b", 1, []), "c"]))

    Returns:
        A frozen :class:`DocumentTree`.
    """
    return DocumentTree(_make_node(spec), name=name)


def _make_node(node_spec) -> DocumentNode:
    """One :func:`build_tree` spec entry as a fresh subtree."""
    if isinstance(node_spec, str):
        return DocumentNode(node_spec)
    if not isinstance(node_spec, tuple):
        raise DocumentError(f"bad tree spec entry: {node_spec!r}")
    if len(node_spec) == 3:
        tag, value, children = node_spec
    elif len(node_spec) == 2:
        tag, second = node_spec
        if isinstance(second, list):
            value, children = None, second
        else:
            value, children = second, []
    elif len(node_spec) == 1:
        tag, value, children = node_spec[0], None, []
    else:
        raise DocumentError(f"bad tree spec entry: {node_spec!r}")
    node = DocumentNode(tag, value)
    for child_spec in children:
        node.add_child(_make_node(child_spec))
    return node
