"""Suffix path tries: the substrate of the CST baseline.

A :class:`PathTrie` indexes every *suffix* of every root-to-element label
path in a document.  A trie node reached by the tag sequence
``(t_1, ..., t_k)`` counts the document elements whose label path ends
with exactly that sequence — i.e. the occurrences of the sequence as a
sub-path.  The trie supports greedy low-frequency pruning down to a byte
budget; lookups then fall back to the longest stored suffix, which is what
the maximal-overlap estimator builds on.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from ..doc.tree import DocumentTree

#: Stored bytes per trie node: tag id (2), count (4), parent/child link (4).
TRIE_NODE_BYTES = 10


class TrieNode:
    """One node of the path trie."""

    __slots__ = ("tag", "count", "children", "parent", "pruned_children")

    def __init__(self, tag: str, parent: Optional["TrieNode"]):
        self.tag = tag
        self.count = 0
        self.children: dict[str, TrieNode] = {}
        self.parent = parent
        #: True when at least one child subtree was pruned away — lookups
        #: below this node must fall back to shorter suffixes.
        self.pruned_children = False


class PathTrie:
    """A suffix trie over the label paths of one document."""

    def __init__(self):
        self.root = TrieNode("", None)
        self._node_count = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_document(cls, tree: DocumentTree, max_suffix: int = 8) -> "PathTrie":
        """Index all suffixes (up to ``max_suffix`` tags) of all paths."""
        trie = cls()
        for element in tree.iter_nodes():
            path = element.label_path()
            longest = min(len(path), max_suffix)
            for start in range(len(path) - longest, len(path)):
                trie._insert(path[start:])
        return trie

    def _insert(self, sequence: Sequence[str]) -> None:
        node = self.root
        for tag in sequence:
            child = node.children.get(tag)
            if child is None:
                child = TrieNode(tag, node)
                node.children[tag] = child
                self._node_count += 1
            node = child
        node.count += 1

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of stored trie nodes (excluding the synthetic root)."""
        return self._node_count

    def size_bytes(self) -> int:
        """Stored size under the DESIGN.md cost model."""
        return self._node_count * TRIE_NODE_BYTES

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def count(self, sequence: Sequence[str]) -> Optional[float]:
        """Occurrence count of the sequence, or None when pruned away.

        A zero count is authoritative only when no ancestor on the lookup
        path lost children to pruning; in the pruned case None is returned
        so the estimator falls back to a shorter suffix.
        """
        node = self.root
        for tag in sequence:
            child = node.children.get(tag)
            if child is None:
                return None if node.pruned_children else 0.0
            node = child
        return float(node.count)

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def prune_to_bytes(self, budget_bytes: int) -> None:
        """Greedily remove the lowest-count deepest leaves until the trie
        fits ``budget_bytes`` (the CST construction of Chen et al.)."""
        target_nodes = max(1, budget_bytes // TRIE_NODE_BYTES)
        if self._node_count <= target_nodes:
            return
        heap: list[tuple[float, int, int, TrieNode]] = []
        order = 0

        def push_if_leaf(node: TrieNode) -> None:
            nonlocal order
            if not node.children and node.parent is not None:
                depth = 0
                walk = node
                while walk.parent is not None:
                    depth += 1
                    walk = walk.parent
                heapq.heappush(heap, (node.count, -depth, order, node))
                order += 1

        stack = [self.root]
        all_nodes = []
        while stack:
            node = stack.pop()
            all_nodes.append(node)
            stack.extend(node.children.values())
        for node in all_nodes:
            push_if_leaf(node)

        while self._node_count > target_nodes and heap:
            _, _, _, node = heapq.heappop(heap)
            parent = node.parent
            if parent is None or node.children:
                continue  # stale heap entry
            if parent.children.get(node.tag) is not node:
                continue
            del parent.children[node.tag]
            parent.pruned_children = True
            self._node_count -= 1
            push_if_leaf(parent)
