"""Maximal twig expansion and synopsis embeddings (paper Section 4).

The estimation framework first rewrites a twig query into *maximal* form —
every twig node carries a single navigational step — by (a) expanding each
``//`` operator into the valid synopsis paths it can traverse and
(b) splitting multi-step paths into chains of twig nodes.  Both rewrites
preserve selectivity on tree data because every element is reached through
a unique chain of intermediates.

A maximal twig is then matched onto concrete synopsis nodes, giving an
*embedding*: a tree of :class:`EmbeddingNode` objects, each naming one
synopsis node and carrying the step's value predicate and branch
predicates (themselves embedded as alternative chains).  The selectivity
of the query is the sum of the selectivities of its embeddings, which
:mod:`repro.estimation.estimator` evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..errors import EstimationError
from ..query.ast import DESCENDANT, Path, Step, TwigNode, TwigQuery
from ..query.values import ValuePredicate
from ..synopsis.graph import GraphSynopsis

#: Default cap on the length of a ``//`` expansion (synopsis hops).
DEFAULT_MAX_DESCENDANT_DEPTH = 12

#: Default cap on the number of embeddings enumerated per query.  When the
#: cap is hit the remaining embeddings are dropped (documented truncation;
#: the estimator reports it via :class:`EmbeddingBudget`).
DEFAULT_MAX_EMBEDDINGS = 4096

#: Safety cap on the number of synopsis walks explored per ``//`` step.
MAX_DESCENDANT_EXPLORATION = 20_000

#: Safety cap on the number of chains *yielded* per ``//`` step; on dense
#: cyclic synopses (adversarial inputs) the walk space is exponential and
#: the longest expansions carry vanishing selectivity anyway.  A walk cut
#: by either cap marks the enumeration's budget as truncated.
MAX_DESCENDANT_CHAINS = 256


class EmbeddingBudget:
    """Enumeration budget shared across one query's expansion.

    The limit caps the number of partial embeddings kept per twig node
    (and thus the number of complete embeddings); hitting it anywhere, or
    cutting a ``//`` walk at :data:`MAX_DESCENDANT_CHAINS` or
    :data:`MAX_DESCENDANT_EXPLORATION`, marks the enumeration as
    truncated.
    """

    def __init__(self, limit: int = DEFAULT_MAX_EMBEDDINGS):
        self.limit = limit
        self.truncated = False

    def full(self, collected: int) -> bool:
        """True (and mark truncated) when ``collected`` reached the limit."""
        if collected >= self.limit:
            self.truncated = True
            return True
        return False


@dataclass(slots=True)
class EmbeddingNode:
    """One node of a twig embedding.

    Attributes:
        node_id: the synopsis node this twig node is matched to.
        value_pred: the step's value predicate, if any.
        branches: branch predicates — each entry is the list of alternative
            existential chains (EmbeddingNode trees with at most one child
            each) the branch path can embed into.
        children: embeddings of the twig node's children (plus chain
            intermediates created by maximal expansion).
    """

    node_id: int
    value_pred: Optional[ValuePredicate] = None
    branches: list[list["EmbeddingNode"]] = field(default_factory=list)
    children: list["EmbeddingNode"] = field(default_factory=list)
    #: :meth:`signature`, once computed (not part of equality)
    _signature: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def iter_subtree(self) -> Iterator["EmbeddingNode"]:
        """Depth-first pre-order over the embedding (not into branches)."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def signature(self) -> tuple:
        """Hashable structural identity of the subtree.

        Deduplicates roots when a ``//`` walk can repeat one, and matches
        a derived estimator's embeddings to its base's records.  Cached
        on first call: embedding nodes are only mutated while enumeration
        assembles them, and nothing asks for a signature until a root is
        complete, so every consumer sees the same frozen structure and
        the cache turns the ancestor-recomputes-descendants recursion
        linear.
        """
        sig = self._signature
        if sig is None:
            sig = (
                self.node_id,
                self.value_pred,
                tuple(
                    tuple(chain.signature() for chain in alternative)
                    for alternative in self.branches
                ),
                tuple(child.signature() for child in self.children),
            )
            self._signature = sig
        return sig


@dataclass(frozen=True)
class Embedding:
    """A complete twig embedding: one way the query maps onto the synopsis."""

    root: EmbeddingNode

    def nodes(self) -> list[EmbeddingNode]:
        """All embedding nodes, depth-first pre-order."""
        return list(self.root.iter_subtree())


def _chain_expansions(
    synopsis: GraphSynopsis,
    context: Optional[int],
    path: Path,
    max_depth: int,
    budget: Optional[EmbeddingBudget] = None,
) -> Iterator[list[tuple[int, Step]]]:
    """Enumerate synopsis chains matching ``path`` from ``context``.

    Yields lists of ``(synopsis node id, step)`` pairs; ``//`` steps insert
    intermediate pairs whose step is a bare tag step (no predicates), and
    the matched step itself lands on the chain's last pair.  A ``context``
    of None means the absolute position: the first step matches any
    synopsis node with its tag (extent semantics, mirroring the exact
    evaluator).  A ``//`` walk cut by a cap marks ``budget`` truncated.
    """
    return _chains(synopsis, context, path.steps, max_depth, budget)


def _chains(
    synopsis: GraphSynopsis,
    current: Optional[int],
    steps: Sequence[Step],
    max_depth: int,
    budget: Optional[EmbeddingBudget],
) -> Iterator[list[tuple[int, Step]]]:
    """The chains of ``steps`` from ``current``: each continuation of the
    first step, extended by every chain of the rest from its end."""
    head, rest = steps[0], steps[1:]
    for prefix in _continuations(synopsis, current, head, max_depth, budget):
        if not rest:
            yield prefix
            continue
        for suffix in _chains(
            synopsis, prefix[-1][0], rest, max_depth, budget
        ):
            yield prefix + suffix


def _continuations(
    synopsis: GraphSynopsis,
    current: Optional[int],
    step: Step,
    max_depth: int,
    budget: Optional[EmbeddingBudget],
) -> Iterator[list[tuple[int, Step]]]:
    """The chains of one step from ``current``; a ``//`` walk cut by a cap
    marks ``budget`` (when given) truncated."""
    if current is None:
        for node in synopsis.nodes_with_tag(step.tag):
            yield [(node.node_id, step)]
        return
    if step.axis != DESCENDANT:
        for target in synopsis.child_ids_with_tag(current, step.tag):
            yield [(target, step)]
        return
    # Descendant axis: DFS over synopsis *walks* of length >= 1.  Walks
    # may revisit nodes (recursive tags like section/section produce
    # legitimate repeated synopsis nodes); termination comes from the
    # depth cap plus a global exploration guard.
    explored = 0
    yielded = 0
    # breadth-first so shorter (higher-selectivity) chains come first
    # when the yield cap truncates the enumeration
    queue: list[list[int]] = [
        [edge.target] for edge in synopsis.children_of(current)
    ]
    position = 0
    while position < len(queue):
        chain = queue[position]
        position += 1
        tail = chain[-1]
        if synopsis.node(tail).tag == step.tag:
            yielded += 1
            if yielded > MAX_DESCENDANT_CHAINS:
                if budget is not None:
                    budget.truncated = True
                return
            yield [
                (node_id, Step(synopsis.node(node_id).tag))
                for node_id in chain[:-1]
            ] + [(tail, step)]
        if len(chain) < max_depth:
            for edge in synopsis.children_of(tail):
                explored += 1
                if explored > MAX_DESCENDANT_EXPLORATION:
                    if budget is not None:
                        budget.truncated = True
                    return
                queue.append(chain + [edge.target])


def _embed_step(
    synopsis: GraphSynopsis,
    node_id: int,
    step: Step,
    max_depth: int,
    budget: Optional[EmbeddingBudget],
) -> Optional[EmbeddingNode]:
    """``step`` matched at ``node_id``, with its branch predicates
    embedded; None when a branch predicate cannot embed there."""
    embedded = EmbeddingNode(node_id, step.value_pred)
    for branch in step.branches:
        alternatives = _embed_branch(
            synopsis, node_id, branch, max_depth, budget
        )
        if not alternatives:
            return None
        embedded.branches.append(alternatives)
    return embedded


def _embed_chain(
    synopsis: GraphSynopsis,
    chain: list[tuple[int, Step]],
    max_depth: int,
    budget: Optional[EmbeddingBudget],
) -> Optional[tuple[EmbeddingNode, EmbeddingNode]]:
    """A chain expansion as linked embedding nodes: (head, tail), or None
    when a branch predicate along it cannot embed."""
    head = tail = None
    for node_id, step in chain:
        embedded = _embed_step(synopsis, node_id, step, max_depth, budget)
        if embedded is None:
            return None
        if head is None:
            head = embedded
        else:
            tail.children.append(embedded)
        tail = embedded
    return head, tail


def _embed_branch(
    synopsis: GraphSynopsis,
    context: int,
    branch: Path,
    max_depth: int,
    budget: Optional[EmbeddingBudget] = None,
) -> list[EmbeddingNode]:
    """All alternative existential chains for a branch predicate.

    The alternatives are not budgeted, but a ``//`` walk cut by a cap
    marks ``budget`` (when given) truncated."""
    steps = branch.steps
    if len(steps) == 1 and steps[0].axis != DESCENDANT:
        # one child step: its targets are the chains
        step = steps[0]
        alternatives = []
        for target in synopsis.child_ids_with_tag(context, step.tag):
            embedded = _embed_step(synopsis, target, step, max_depth, budget)
            if embedded is not None:
                alternatives.append(embedded)
        return alternatives
    alternatives = []
    for chain in _chain_expansions(
        synopsis, context, branch, max_depth, budget
    ):
        built = _embed_chain(synopsis, chain, max_depth, budget)
        if built is not None:
            alternatives.append(built[0])
    return alternatives


def enumerate_embeddings(
    query: TwigQuery,
    synopsis: GraphSynopsis,
    max_depth: int = DEFAULT_MAX_DESCENDANT_DEPTH,
    budget: Optional[EmbeddingBudget] = None,
) -> list[Embedding]:
    """All (deduplicated) embeddings of ``query`` over ``synopsis``.

    Branch predicates that cannot be embedded anywhere make the candidate
    embedding invalid (its estimate would be zero).  Enumeration stops at
    the budget's limit; check ``budget.truncated`` afterwards when you
    supplied one (a ``//`` walk cut by its caps, in a twig path or a
    branch predicate, sets it too).

    A twig node whose path is one child step (or the root's absolute
    first step) takes its synopsis targets straight from the graph's
    indexes; other paths go through :func:`_chain_expansions`.  A chain
    is extended in place unless its children combine in more than one
    way, and roots are deduplicated only when a ``//`` walk can build one
    root twice (:func:`_roots_may_repeat`).
    """
    budget = budget or EmbeddingBudget()
    roots = _embed_twig(query.root, None, synopsis, max_depth, budget)
    if not _roots_may_repeat(query.root):
        return [Embedding(root) for root in roots]
    unique: dict[tuple, Embedding] = {}
    for root in roots:
        unique.setdefault(root.signature(), Embedding(root))
    return list(unique.values())


def _embed_twig(
    node: TwigNode,
    context: Optional[int],
    synopsis: GraphSynopsis,
    max_depth: int,
    budget: EmbeddingBudget,
) -> list[EmbeddingNode]:
    """The roots of ``node``'s subtree embedded below ``context``.

    :func:`_embed_twig` and :func:`_attach` recurse into each other at
    module level, taking their shared state as arguments: nested closures
    would refer to each other and leave a reference cycle per query.
    """
    results: list[EmbeddingNode] = []
    steps = node.path.steps
    step = steps[0]
    if len(steps) == 1 and (context is None or step.axis != DESCENDANT):
        if context is None:
            targets = [
                n.node_id for n in synopsis.nodes_with_tag(step.tag)
            ]
        else:
            targets = synopsis.child_ids_with_tag(context, step.tag)
        for target in targets:
            if budget.full(len(results)):
                return results
            head = _embed_step(synopsis, target, step, max_depth, budget)
            if head is not None and not _attach(
                node, head, head, results, synopsis, max_depth, budget
            ):
                return results
        return results
    for chain in _chain_expansions(
        synopsis, context, node.path, max_depth, budget
    ):
        if budget.full(len(results)):
            return results
        built = _embed_chain(synopsis, chain, max_depth, budget)
        if built is not None and not _attach(
            node, *built, results, synopsis, max_depth, budget
        ):
            return results
    return results


def _attach(
    node: TwigNode,
    head: EmbeddingNode,
    tail: EmbeddingNode,
    results: list[EmbeddingNode],
    synopsis: GraphSynopsis,
    max_depth: int,
    budget: EmbeddingBudget,
) -> bool:
    """Append one root per combination of the twig node's children
    embedded below ``tail``; False once the budget stops enumeration.

    The caller checked the budget for the first root.
    """
    if not node.children:
        results.append(head)
        return True
    child_sets: list[list[EmbeddingNode]] = []
    single = True
    for child in node.children:
        embedded_children = _embed_twig(
            child, tail.node_id, synopsis, max_depth, budget
        )
        if not embedded_children:
            return True
        child_sets.append(embedded_children)
        single = single and len(embedded_children) == 1
    if single:
        # one combination: the freshly built chain is the root
        tail.children.extend([only for (only,) in child_sets])
        results.append(head)
        return True
    for combination in _product(child_sets):
        if budget.full(len(results)):
            return False
        clone = _clone_chain(head)
        clone_tail = clone
        while clone_tail.children:
            clone_tail = clone_tail.children[0]
        clone_tail.children.extend(combination)
        results.append(clone)
    return True


def _roots_may_repeat(root: TwigNode) -> bool:
    """True when two chain expansions of the twig may build one root.

    Child steps reach distinct targets, children combine distinctly, and
    the root's first step matches each synopsis node once whatever its
    axis; only a ``//`` walk elsewhere (walks of different lengths can
    run over the same synopsis nodes) can repeat a root.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        steps = node.path.steps[1:] if node is root else node.path.steps
        if any(step.axis == DESCENDANT for step in steps):
            return True
        stack.extend(node.children)
    return False


def _product(sets: list[list[EmbeddingNode]]) -> Iterator[list[EmbeddingNode]]:
    if not sets:
        yield []
        return
    head, rest = sets[0], sets[1:]
    for choice in head:
        for remainder in _product(rest):
            yield [choice] + remainder


def _clone_chain(node: EmbeddingNode) -> EmbeddingNode:
    clone = EmbeddingNode(node.node_id, node.value_pred, list(node.branches))
    if node.children:
        clone.children = [_clone_chain(node.children[0])]
    return clone


def maximal_twigs(
    query: TwigQuery,
    synopsis: GraphSynopsis,
    max_depth: int = DEFAULT_MAX_DESCENDANT_DEPTH,
) -> list[TwigQuery]:
    """The set of maximal twig queries of ``query`` over ``synopsis``.

    Every node of a maximal twig carries a single-step path (paper
    Figure 5).  Distinct embeddings that share tag structure collapse to
    one maximal twig.
    """
    embeddings = enumerate_embeddings(query, synopsis, max_depth)
    unique: dict[tuple, TwigQuery] = {}
    for embedding in embeddings:
        candidate = TwigQuery(_to_twig(synopsis, embedding.root, [0]))
        unique.setdefault(candidate.key, candidate)
    return list(unique.values())


def _to_twig(
    synopsis: GraphSynopsis, node: EmbeddingNode, counter: list[int]
) -> TwigNode:
    """The single-step twig of an embedding subtree, variables numbered
    depth-first from ``counter``."""
    step = Step(
        synopsis.node(node.node_id).tag,
        value_pred=node.value_pred,
        branches=tuple(
            _branch_path(synopsis, alternatives[0])
            for alternatives in node.branches
        ),
    )
    twig_node = TwigNode(f"t{counter[0]}", Path((step,)))
    counter[0] += 1
    for child in node.children:
        twig_node.add_child(_to_twig(synopsis, child, counter))
    return twig_node


def _branch_path(synopsis: GraphSynopsis, chain: EmbeddingNode) -> Path:
    steps: list[Step] = []
    current: Optional[EmbeddingNode] = chain
    while current is not None:
        steps.append(
            Step(synopsis.node(current.node_id).tag, value_pred=current.value_pred)
        )
        current = current.children[0] if current.children else None
    return Path(tuple(steps))


def validate_embedding(embedding: Embedding, synopsis: GraphSynopsis) -> None:
    """Check that every embedding edge exists in the synopsis (tests):
    edges to children and to branch chain heads, along every branch
    chain and inside nested branches."""
    stack = [embedding.root]
    while stack:
        node = stack.pop()
        heads = [head for chains in node.branches for head in chains]
        for child in node.children + heads:
            if synopsis.edge(node.node_id, child.node_id) is None:
                raise EstimationError(
                    f"embedding uses missing edge "
                    f"{node.node_id}->{child.node_id}"
                )
            stack.append(child)
