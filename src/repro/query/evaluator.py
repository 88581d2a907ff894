"""Exact evaluation of twig queries over document trees.

This is the ground-truth oracle of the reproduction: it computes the
paper's selectivity ``s(T_Q)`` — the number of binding tuples — exactly
(Example 2.1).  The evaluator also materializes the tuples themselves for
small results, which the tests use to check the example tables.

Semantics (Section 2 of the paper):

* a binding tuple assigns one document element to every twig node;
* a twig node's element must be in the result of the node's path evaluated
  from the parent node's element (the root path is evaluated from the
  document root);
* intermediate elements of multi-step paths, branch matches, and value
  tests do not contribute variables — they only restrict the result sets.

Because documents are trees, each element is reached by a path through a
unique chain of intermediates, so result *sets* suffice (no bag semantics
needed) and the binding count factorizes over twig subtrees::

    count(t, e) = sum over e' in eval_path(P_t, e) of
                  product over children c of t of count(c, e')

which the evaluator computes without ever materializing tuples.

:func:`count_bindings` answers ``//tag`` steps from the tree's tag
extents: node ids are pre-order, so an element's descendants with a tag
are the slice of ``tree.extent(tag)`` inside the id interval of its
subtree (the tag-extent jumping of structural XML indexes).
:func:`eval_path`, :func:`path_exists` and :func:`enumerate_bindings`
walk the subtree; they are the reference the indexed counts are tested
against.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Iterator, Optional

from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from .ast import DESCENDANT, Path, Step, TwigNode, TwigQuery


class _VirtualRoot:
    """A super-root above the document root.

    The root twig node's path is absolute: ``bib`` must match the document
    root element itself (XPath ``/bib``), and ``//keyword`` must match
    keywords anywhere, including the root.  Evaluating from this shim
    instead of from the root element gives both behaviours.
    """

    __slots__ = ("children",)

    #: below every element id, so the whole document is its subtree
    node_id = -1

    def __init__(self, root: DocumentNode):
        self.children = [root]

    def iter_descendants(self) -> Iterator[DocumentNode]:
        return self.children[0].iter_subtree()


def virtual_root(tree: DocumentTree) -> _VirtualRoot:
    """Evaluation context for absolute (root twig node) paths."""
    return _VirtualRoot(tree.root)


def absolute_path(path: Path) -> Path:
    """Rewrite a root twig node's path for evaluation from the virtual root.

    The paper writes ``for t0 in A`` to mean *all* elements with tag A (the
    extent of synopsis node A), so the first step of an absolute path uses
    descendant-or-self semantics: its axis becomes :data:`DESCENDANT`.
    """
    first = path.steps[0]
    if first.axis == DESCENDANT:
        return path
    rewritten = Step(first.tag, DESCENDANT, first.value_pred, first.branches)
    return Path((rewritten,) + path.steps[1:])


def _step_candidates(context: DocumentNode, step: Step) -> Iterator[DocumentNode]:
    """Elements reachable from ``context`` via the step's axis and tag."""
    if step.axis == DESCENDANT:
        for node in context.iter_descendants():
            if node.tag == step.tag:
                yield node
    else:
        for child in context.children:
            if child.tag == step.tag:
                yield child


def _step_matches(node: DocumentNode, step: Step) -> bool:
    """Apply the step's value predicate and branching predicates."""
    if step.value_pred is not None and not step.value_pred.matches(node.value):
        return False
    for branch in step.branches:
        if not path_exists(branch, node):
            return False
    return True


def eval_path(path: Path, context: DocumentNode) -> list[DocumentNode]:
    """All elements in the result of ``path`` evaluated from ``context``.

    The result is duplicate-free and in document order.
    """
    frontier = [context]
    for step in path.steps:
        seen: dict[int, DocumentNode] = {}
        for element in frontier:
            for candidate in _step_candidates(element, step):
                if id(candidate) in seen:
                    continue
                if _step_matches(candidate, step):
                    seen[id(candidate)] = candidate
        frontier = sorted(seen.values(), key=lambda n: n.node_id)
    return frontier


def path_exists(path: Path, context: DocumentNode) -> bool:
    """True when ``path`` has at least one match from ``context``.

    Short-circuits; used for branching predicates where only existence
    matters.
    """
    frontier: list[DocumentNode] = [context]
    for index, step in enumerate(path.steps):
        is_last = index == len(path.steps) - 1
        next_frontier: list[DocumentNode] = []
        seen: set[int] = set()
        for element in frontier:
            for candidate in _step_candidates(element, step):
                if id(candidate) in seen:
                    continue
                seen.add(id(candidate))
                if _step_matches(candidate, step):
                    if is_last:
                        return True
                    next_frontier.append(candidate)
        frontier = next_frontier
        if not frontier:
            return False
    return bool(frontier)


_NODE_ID = attrgetter("node_id")


def _indexed_step(
    frontier: list, step: Step, tree: DocumentTree
) -> list[DocumentNode]:
    """The step's tag/axis candidates from a document-ordered frontier,
    duplicate-free and in document order, via the tag extents."""
    if step.axis != DESCENDANT:
        candidates = [
            child
            for element in frontier
            for child in element.children
            if child.tag == step.tag
        ]
        if len(frontier) > 1:
            candidates.sort(key=_NODE_ID)
        return candidates
    extent = tree.extent(step.tag)
    candidates = []
    covered = -2  # end id of the last subtree sliced; below the virtual root
    for element in frontier:
        if element.node_id <= covered:
            continue  # nested in an earlier element's subtree
        covered = (
            tree.subtree_end(element)
            if element.node_id >= 0
            else tree.element_count - 1
        )
        low = bisect_right(extent, element.node_id, key=_NODE_ID)
        high = bisect_right(extent, covered, lo=low, key=_NODE_ID)
        candidates.extend(extent[low:high])
    return candidates


def _indexed_path(
    path: Path, context, tree: DocumentTree
) -> list[DocumentNode]:
    """:func:`eval_path` over the tag extents of ``tree``."""
    frontier = [context]
    for step in path.steps:
        frontier = _indexed_step(frontier, step, tree)
        if step.value_pred is not None:
            frontier = [
                candidate
                for candidate in frontier
                if step.value_pred.matches(candidate.value)
            ]
        for branch in step.branches:
            frontier = [
                candidate
                for candidate in frontier
                if _indexed_path(branch, candidate, tree)
            ]
        if not frontier:
            break
    return frontier


def _count_from(node: TwigNode, path: Path, context, tree: DocumentTree) -> int:
    matches = _indexed_path(path, context, tree)
    if not node.children:
        return len(matches)
    total = 0
    for element in matches:
        product = 1
        for child in node.children:
            product *= _count_from(child, child.path, element, tree)
            if product == 0:
                break
        total += product
    return total


def count_bindings(query: TwigQuery, tree: DocumentTree) -> int:
    """Exact selectivity ``s(T_Q)``: the number of binding tuples."""
    return _count_from(
        query.root, absolute_path(query.root.path), virtual_root(tree), tree
    )


def enumerate_bindings(
    query: TwigQuery, tree: DocumentTree, limit: Optional[int] = None
) -> list[dict[str, DocumentNode]]:
    """Materialize binding tuples as ``{var: element}`` dicts.

    Intended for tests and examples; raises no error on large results but
    stops after ``limit`` tuples when given.  Tuples are produced in
    document order of the root binding, then recursively of each child.
    """
    def subtree_bindings(
        node: TwigNode, context: DocumentNode, path: Optional[Path] = None
    ) -> Iterator[dict[str, DocumentNode]]:
        for element in eval_path(path if path is not None else node.path, context):
            for child_binding in children_product(node.children, element):
                yield {node.var: element, **child_binding}

    def children_product(
        children: list[TwigNode], element: DocumentNode
    ) -> Iterator[dict[str, DocumentNode]]:
        if not children:
            yield {}
            return
        head, rest = children[0], children[1:]
        for head_binding in subtree_bindings(head, element):
            for rest_binding in children_product(rest, element):
                yield {**head_binding, **rest_binding}

    results: list[dict[str, DocumentNode]] = []
    for binding in subtree_bindings(
        query.root, virtual_root(tree), absolute_path(query.root.path)
    ):
        results.append(binding)
        if limit is not None and len(results) >= limit:
            break
    return results
