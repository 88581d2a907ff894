"""Abstract syntax for twig queries (the paper's Section 2).

A twig query is a node-labelled tree: each :class:`TwigNode` carries a
:class:`Path` describing the structural relationship between the elements it
binds and the elements bound by its parent node.  A :class:`Path` is a chain
of :class:`Step` objects, each of the paper's form ``l{σ}[branch]...`` — a
tag test with an optional value predicate and any number of *branching
predicates* (existential sub-paths).

``axis`` distinguishes child steps (``/``) from descendant steps (``//``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    #: the rendering, memoised by :meth:`text` (the step is frozen)
    _text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.axis not in (CHILD, DESCENDANT):
            raise QueryError(f"unknown axis {self.axis!r}")
        if not self.tag:
            raise QueryError("step tag must be non-empty")

    def text(self) -> str:
        """Render the step in the library's query syntax."""
        text = self._text
        if text is None:
            parts = [self.tag]
            if self.value_pred is not None:
                parts.append(self.value_pred.text())
            for branch in self.branches:
                parts.append(f"[{branch.text()}]")
            text = "".join(parts)
            self.__dict__["_text"] = text  # past the frozen __setattr__
        return text

    def without_predicates(self) -> "Step":
        """The bare structural step (used when matching against a synopsis)."""
        return Step(self.tag, self.axis)


@dataclass(frozen=True)
class Path:
    """A chain of steps, e.g. ``movie[/type{=Action}]/actor``."""

    steps: tuple[Step, ...]
    #: the rendering, memoised by :meth:`text` (the path is frozen)
    _text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

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
        text = self._text
        if text is None:
            pieces: list[str] = []
            for index, step in enumerate(self.steps):
                if step.axis == DESCENDANT:
                    pieces.append("//")
                elif index > 0:
                    pieces.append("/")
                pieces.append(step.text())
            text = "".join(pieces)
            self.__dict__["_text"] = text  # past the frozen __setattr__
        return text

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
    """

    __slots__ = ("var", "path", "children", "parent")

    def __init__(self, var: str, path: Path):
        self.var = var
        self.path = path
        self.children: list[TwigNode] = []
        self.parent: Optional[TwigNode] = None

    def add_child(self, child: "TwigNode") -> "TwigNode":
        """Attach ``child`` and return it (for chaining)."""
        if child.parent is not None:
            raise QueryError(f"twig node {child.var!r} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    def iter_subtree(self) -> Iterator["TwigNode"]:
        """Depth-first pre-order iteration, matching the paper's convention."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def text(self) -> str:
        """Render as ``var in path`` plus child clauses, one per line.

        Each child clause is indented two spaces per level; a line break
        inside a clause (a string value) starts an indented line of its
        own, as ``str.splitlines`` splits it.
        """
        lines = [f"{self.var} in {self.path.text()}"]
        for child in self.children:
            child._indented_lines("  ", lines)
        return "\n".join(lines)

    def _indented_lines(self, indent: str, lines: list[str]) -> None:
        """Append this subtree's lines, each prefixed by ``indent``."""
        clause = f"{self.var} in {self.path.text()}"
        if self.children:
            # a trailing line break before the first child line leaves an
            # empty line, which splitting the clause alone would drop
            clause += "\n"
        lines += [indent + line for line in clause.splitlines()]
        for child in self.children:
            child._indented_lines(indent + "  ", lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwigNode {self.var}:{self.path.text()}>"


class TwigQuery:
    """A complete twig query — a tree of :class:`TwigNode` variables.

    The root node's path is evaluated from the document root; every other
    node's path is evaluated from its parent's binding.  ``s(T_Q)`` — the
    paper's selectivity — is the number of binding tuples, computed exactly
    by :func:`repro.query.evaluator.count_bindings` and estimated by
    :class:`repro.estimation.estimator.TwigEstimator`.
    """

    def __init__(self, root: TwigNode):
        self.root = root

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

        def path_steps(path: Path) -> int:
            total = 0
            for step in path.steps:
                total += 1
                total += sum(path_steps(branch) for branch in step.branches)
            return total

        return sum(path_steps(node.path) for node in self.nodes())

    def internal_fanouts(self) -> list[int]:
        """Child counts of internal twig nodes (Table 2's "Avg. Fanout")."""
        return [len(n.children) for n in self.nodes() if n.children]

    def has_value_predicates(self) -> bool:
        """True when any step anywhere (including branches) tests a value."""

        def path_has(path: Path) -> bool:
            for step in path.steps:
                if step.value_pred is not None:
                    return True
                if any(path_has(branch) for branch in step.branches):
                    return True
            return False

        return any(path_has(node.path) for node in self.nodes())

    def text(self) -> str:
        """Multi-line rendering: the root clause plus indented children."""
        return self.root.text()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwigQuery {self.size} nodes>"


def twig(root_path: Path, *child_specs) -> TwigQuery:
    """Convenience constructor for small twigs.

    ``child_specs`` are :class:`Path` objects (direct children of the root)
    or nested ``(Path, [child_specs...])`` tuples.  Variables are named
    ``t0, t1, ...`` in depth-first order, matching the paper's notation.
    """
    counter = [0]

    def next_var() -> str:
        name = f"t{counter[0]}"
        counter[0] += 1
        return name

    def attach(parent: TwigNode, spec) -> None:
        if isinstance(spec, Path):
            parent.add_child(TwigNode(next_var(), spec))
            return
        path, subspecs = spec
        node = parent.add_child(TwigNode(next_var(), path))
        for subspec in subspecs:
            attach(node, subspec)

    root = TwigNode(next_var(), root_path)
    for spec in child_specs:
        attach(root, spec)
    return TwigQuery(root)
