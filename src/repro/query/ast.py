"""Abstract syntax for twig queries (the paper's Section 2).

A twig query is a node-labelled tree: each :class:`TwigNode` carries a
:class:`Path` describing the structural relationship between the elements it
binds and the elements bound by its parent node.  A :class:`Path` is a chain
of :class:`Step` objects, each of the paper's form ``l{σ}[branch]...`` — a
tag test with an optional value predicate and any number of *branching
predicates* (existential sub-paths).

``axis`` distinguishes child steps (``/``) from descendant steps (``//``).

A :class:`TwigQuery` is built once, from a finished tree of nodes, and its
:attr:`~TwigQuery.key` is its identity: two queries with equal keys have
the same selectivity.  Text is for people; :meth:`TwigQuery.text` renders
a ``for`` clause that :func:`~repro.query.forclause.parse_for_clause`
reads back to a query with an equal key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import QueryError
from .values import ValuePredicate

CHILD = "child"
DESCENDANT = "descendant"


@dataclass(frozen=True)
class Step:
    """One navigation step ``l{σ}[branch]...``.

    Attributes:
        tag: the element tag matched by the step.
        axis: :data:`CHILD` or :data:`DESCENDANT` — how the step relates to
            the previous context (``//`` is the descendant axis).
        value_pred: optional predicate on the value of the reached element.
        branches: existential sub-paths evaluated from the reached element;
            all must have at least one match.
    """

    tag: str
    axis: str = CHILD
    value_pred: Optional[ValuePredicate] = None
    branches: tuple["Path", ...] = ()

    def __post_init__(self):
        if self.axis not in (CHILD, DESCENDANT):
            raise QueryError(f"unknown axis {self.axis!r}")
        if not self.tag:
            raise QueryError("step tag must be non-empty")

    def text(self) -> str:
        """Render the step in the library's query syntax."""
        parts = [self.tag]
        if self.value_pred is not None:
            parts.append(self.value_pred.text())
        for branch in self.branches:
            parts.append(f"[{branch.text()}]")
        return "".join(parts)

    def key(self) -> tuple:
        """The step's structure: tag, axis, predicate and branch keys."""
        return (
            self.tag,
            self.axis,
            None if self.value_pred is None else self.value_pred.key(),
            tuple(branch.key() for branch in self.branches),
        )


@dataclass(frozen=True)
class Path:
    """A chain of steps, e.g. ``movie[/type{=Action}]/actor``."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        if not self.steps:
            raise QueryError("a path must contain at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def last(self) -> Step:
        """The step binding the result elements of the path."""
        return self.steps[-1]

    @property
    def is_single_step(self) -> bool:
        """True when the path is a single navigational step (maximal form)."""
        return len(self.steps) == 1

    def text(self) -> str:
        """Render the path in the library's query syntax."""
        pieces: list[str] = []
        for index, step in enumerate(self.steps):
            if step.axis == DESCENDANT:
                pieces.append("//")
            elif index > 0:
                pieces.append("/")
            pieces.append(step.text())
        return "".join(pieces)

    def key(self) -> tuple:
        """The path's structure: its step keys, in order."""
        return tuple(step.key() for step in self.steps)

    def tags(self) -> tuple[str, ...]:
        """The sequence of tags along the path."""
        return tuple(step.tag for step in self.steps)

    @staticmethod
    def of(*tags: str) -> "Path":
        """Build a simple child-axis path from tag names (test helper)."""
        return Path(tuple(Step(tag) for tag in tags))


class TwigNode:
    """A node of the twig-query tree: a variable bound by a path.

    The paper writes ``t_i : P_i``; here ``var`` is the variable name and
    ``path`` is ``P_i``.  Children are the twig nodes whose paths are
    evaluated from this node's binding.

    A node is edited only while its tree is a draft.  Building a
    :class:`TwigQuery` over the tree freezes every node: ``children``
    becomes a tuple, and assigning an attribute or adding a child raises
    :class:`QueryError`, so a query's :attr:`~TwigQuery.key` always
    describes its tree.  Nodes hold no parent link (a parent/child pair
    would be a reference cycle); walks that need parents carry them.
    """

    __slots__ = ("var", "path", "children", "_attached", "_frozen")

    def __init__(self, var: str, path: Path):
        object.__setattr__(self, "_frozen", False)
        self.var = var
        self.path = path
        self.children: list[TwigNode] = []
        self._attached = False

    def __setattr__(self, name: str, value) -> None:
        self._check_draft()
        object.__setattr__(self, name, value)

    def _check_draft(self) -> None:
        if self._frozen:
            raise QueryError(
                f"twig node {self.var!r} belongs to a built query; "
                "build a new tree instead"
            )

    def add_child(self, child: "TwigNode") -> "TwigNode":
        """Attach ``child`` and return it (for chaining)."""
        self._check_draft()
        child._check_draft()
        if child._attached:
            raise QueryError(f"twig node {child.var!r} already has a parent")
        child._attached = True
        self.children.append(child)
        return child

    def _freeze(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "_frozen", True)

    def __setstate__(self, state) -> None:
        # pickle and copy restore slots by assignment, which a frozen
        # node refuses; ``state`` is ``(None, {slot: value})``
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def iter_subtree(self) -> Iterator["TwigNode"]:
        """Depth-first pre-order iteration, matching the paper's convention."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def key(self) -> tuple:
        """The subtree's structure: path key and child keys, in order
        (variable names are left out)."""
        return (
            self.path.key(),
            tuple(child.key() for child in self.children),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwigNode {self.var}:{self.path.text()}>"


class TwigQuery:
    """A complete twig query — a tree of :class:`TwigNode` variables.

    The root node's path is evaluated from the document root; every other
    node's path is evaluated from its parent's binding.  ``s(T_Q)`` — the
    paper's selectivity — is the number of binding tuples, computed exactly
    by :func:`repro.query.evaluator.count_bindings` and estimated by
    :class:`repro.estimation.estimator.TwigEstimator`.

    A query is built from a finished node tree, which it freezes (see
    :class:`TwigNode`): :attr:`key`, computed here, is its identity.  It
    holds every tag, axis, typed value predicate and branch, with children
    and branches in their order (the order fixes an estimate's float sum),
    and leaves out the variable names.  Every cache of queries keys by it.
    """

    def __init__(self, root: TwigNode):
        for node in root.iter_subtree():
            node._freeze()
        self.root = root
        self.key = root.key()

    # ------------------------------------------------------------------
    def nodes(self) -> list[TwigNode]:
        """All twig nodes, depth-first pre-order (t_0, t_1, ..., t_m)."""
        return list(self.root.iter_subtree())

    @property
    def size(self) -> int:
        """Number of twig nodes (variables) in the query."""
        return len(self.nodes())

    def structural_node_count(self) -> int:
        """Total navigation steps across all node paths, including branch
        predicates — the paper's "total number of twig nodes per query"
        counts every node of the pattern tree, which is what the 4–8
        workload bound constrains."""
        return sum(_path_steps(node.path) for node in self.nodes())

    def internal_fanouts(self) -> list[int]:
        """Child counts of internal twig nodes (Table 2's "Avg. Fanout")."""
        return [len(n.children) for n in self.nodes() if n.children]

    def has_value_predicates(self) -> bool:
        """True when any step anywhere (including branches) tests a value."""
        return any(_path_has_value(node.path) for node in self.nodes())

    def text(self) -> str:
        """The query as one ``for`` clause, for people to read.

        For example ``t0 in movie, t1 in t0/actor{="Lee"}``.
        :func:`~repro.query.forclause.parse_for_clause` reads it back to a
        query with an equal :attr:`key`, given distinct ``\\w+`` variable
        names, tags the parser can read and no string value that holds
        both kinds of quote.
        """
        clauses = []
        # depth-first pre-order, each node with its parent's variable
        stack: list[tuple[TwigNode, Optional[str]]] = [(self.root, None)]
        while stack:
            node, parent_var = stack.pop()
            path = node.path.text()
            if parent_var is not None:
                axis = "" if path.startswith("//") else "/"
                path = f"{parent_var}{axis}{path}"
            clauses.append(f"{node.var} in {path}")
            stack.extend((child, node.var) for child in reversed(node.children))
        return ", ".join(clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwigQuery {self.size} nodes>"


def _path_steps(path: Path) -> int:
    """Steps of ``path``, counting its branch predicates' steps too."""
    total = 0
    for step in path.steps:
        total += 1
        total += sum(_path_steps(branch) for branch in step.branches)
    return total


def _path_has_value(path: Path) -> bool:
    """True when a step of ``path`` or of its branches tests a value."""
    for step in path.steps:
        if step.value_pred is not None:
            return True
        if any(_path_has_value(branch) for branch in step.branches):
            return True
    return False


def twig(root_path: Path, *child_specs) -> TwigQuery:
    """Convenience constructor for small twigs.

    ``child_specs`` are :class:`Path` objects (direct children of the root)
    or nested ``(Path, [child_specs...])`` tuples.  Variables are named
    ``t0, t1, ...`` in depth-first order, matching the paper's notation.
    """
    counter = [1]
    root = TwigNode("t0", root_path)
    for spec in child_specs:
        _attach_spec(root, spec, counter)
    return TwigQuery(root)


def _attach_spec(parent: TwigNode, spec, counter: list[int]) -> None:
    """Add :func:`twig`'s ``spec`` below ``parent``, naming variables
    from ``counter``."""
    path, subspecs = (spec, ()) if isinstance(spec, Path) else spec
    node = parent.add_child(TwigNode(f"t{counter[0]}", path))
    counter[0] += 1
    for subspec in subspecs:
        _attach_spec(node, subspec, counter)
