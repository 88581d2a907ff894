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

:func:`count_bindings` reads the tree's indexes instead of walking:

* a ``//tag`` step takes a slice of ``tree.extent(tag)``: node ids are
  pre-order, so an element's descendants with a tag are the extent's
  elements inside the id interval of its subtree (the tag-extent jumping
  of structural XML indexes);
* a child step reads :meth:`~repro.doc.tree.DocumentTree.child_index`,
  the element's children grouped by tag;
* a leaf twig node whose path is one predicate-free child step counts
  the length of its index list and builds no result list at all.

:func:`eval_path`, :func:`path_exists` and :func:`enumerate_bindings`
walk the subtree; they are the reference the indexed counts are tested
against.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod
from operator import attrgetter
from typing import Iterator, Optional, Sequence

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


def _descendant_step(
    frontier, tag: str, tree: DocumentTree
) -> list[DocumentNode]:
    """Elements with ``tag`` below a document-ordered frontier,
    duplicate-free and in document order: one slice of the tag extent per
    outermost frontier element."""
    extent = tree.extent(tag)
    candidates = []
    covered = -1  # end id of the last subtree sliced
    for element in frontier:
        if element.node_id <= covered:
            continue  # nested in an earlier element's subtree
        covered = tree.subtree_end(element)
        low = bisect_right(extent, element.node_id, key=_NODE_ID)
        high = bisect_right(extent, covered, lo=low, key=_NODE_ID)
        candidates.extend(extent[low:high])
    return candidates


def _child_step(frontier, tag: str, index: list):
    """Children with ``tag`` of a document-ordered frontier, duplicate-free
    and in document order.  A single context's list is the index's own."""
    if len(frontier) == 1:
        return index[frontier[0].node_id].get(tag, ())
    candidates = []
    for element in frontier:
        candidates.extend(index[element.node_id].get(tag, ()))
    candidates.sort(key=_NODE_ID)  # nested contexts interleave children
    return candidates


def _filter(candidates, step: Step, tree: DocumentTree, index: list):
    """The candidates that pass the step's value and branch predicates."""
    if step.value_pred is not None:
        matches = step.value_pred.matches
        candidates = [c for c in candidates if matches(c.value)]
    for branch in step.branches:
        candidates = [
            c for c in candidates
            if _path_matches([c], branch.steps, tree, index)
        ]
    return candidates


def _path_matches(frontier, steps, tree: DocumentTree, index: list):
    """:func:`eval_path` from a document-ordered frontier, over the tag
    extents and the child index.  The result may be a list the tree owns:
    read it, never mutate it."""
    for step in steps:
        if step.axis == DESCENDANT:
            frontier = _descendant_step(frontier, step.tag, tree)
        else:
            frontier = _child_step(frontier, step.tag, index)
        frontier = _filter(frontier, step, tree, index)
        if not frontier:
            break
    return frontier


def _leaf_tag(node: TwigNode) -> Optional[str]:
    """The tag of a leaf twig node whose path is one predicate-free child
    step (its count under ``e`` is the length of an index list), else None."""
    if node.children or len(node.path.steps) != 1:
        return None
    step = node.path.steps[0]
    if step.axis == DESCENDANT or step.value_pred is not None or step.branches:
        return None
    return step.tag


def _count(node: TwigNode, matches, tree: DocumentTree, index: list) -> int:
    """Binding tuples of ``node``'s subtree, given the node's matches."""
    if not node.children:
        return len(matches)
    groups = [index[element.node_id] for element in matches]
    columns, inner = [], []
    for child in node.children:
        tag = _leaf_tag(child)
        if tag is None:
            inner.append(child)
        else:  # the leaf's count under each match
            columns.append([len(group.get(tag, ())) for group in groups])
    if columns:
        products = [prod(counts) for counts in zip(*columns)]
    else:
        products = [1] * len(matches)
    for child in inner:
        steps = child.path.steps
        products = [
            product and product * _count(
                child, _path_matches([element], steps, tree, index),
                tree, index,
            )
            for product, element in zip(products, matches)
        ]
    return sum(products)


def count_bindings(query: TwigQuery, tree: DocumentTree) -> int:
    """Exact selectivity ``s(T_Q)``: the number of binding tuples."""
    # the root path is absolute: its first step matches anywhere in the
    # document (see absolute_path), i.e. the whole tag extent
    first, *rest = query.root.path.steps
    index = tree.child_index()
    matches = _filter(tree.extent(first.tag), first, tree, index)
    return _count(query.root, _path_matches(matches, rest, tree, index),
                  tree, index)


def enumerate_bindings(
    query: TwigQuery, tree: DocumentTree, limit: Optional[int] = None
) -> list[dict[str, DocumentNode]]:
    """Materialize binding tuples as ``{var: element}`` dicts.

    Intended for tests and examples; raises no error on large results but
    stops after ``limit`` tuples when given.  Tuples are produced in
    document order of the root binding, then recursively of each child.
    """
    results: list[dict[str, DocumentNode]] = []
    for binding in _subtree_bindings(
        query.root, virtual_root(tree), absolute_path(query.root.path)
    ):
        results.append(binding)
        if limit is not None and len(results) >= limit:
            break
    return results


def _subtree_bindings(
    node: TwigNode, context: DocumentNode, path: Optional[Path] = None
) -> Iterator[dict[str, DocumentNode]]:
    """The binding tuples of ``node``'s subtree below ``context``."""
    for element in eval_path(path if path is not None else node.path, context):
        for child_binding in _children_bindings(node.children, element):
            yield {node.var: element, **child_binding}


def _children_bindings(
    children: Sequence[TwigNode], element: DocumentNode
) -> Iterator[dict[str, DocumentNode]]:
    """Every combination of the children's binding tuples below ``element``."""
    if not children:
        yield {}
        return
    head, rest = children[0], children[1:]
    for head_binding in _subtree_bindings(head, element):
        for rest_binding in _children_bindings(rest, element):
            yield {**head_binding, **rest_binding}
