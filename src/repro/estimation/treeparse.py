"""The TREEPARSE algorithm (paper Figure 7).

TREEPARSE walks a twig embedding depth-first and decides, per embedding
node, how the selectivity expression uses the node's histograms:

* the **expansion set** ``E_i`` — count dimensions that expand binding
  tuples toward the node's children (forward counts covered by a stored
  histogram);
* the **uncovered set** ``U_i`` — child edges covered by no histogram;
  their contribution falls back to the Forward Uniformity assumption;
* the **correlation set** ``D_i`` — backward-count dimensions whose edges
  were already counted at an ancestor ("covered"); they condition the
  node's distribution on the ancestor's expansion (Correlation Scope
  Independence).

Because a node may store several disjoint-scope histograms (see
:mod:`repro.synopsis.summary`), the plan groups the node's children by the
histogram covering their edge; dimensions of a histogram that are neither
expanded nor conditioned on are marginalized away, which is exactly the
paper's Forward Independence assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..query.values import ValuePredicate
from ..synopsis.distributions import EdgeRef
from ..synopsis.summary import EdgeHistogram, ExtendedValueSummary, TwigXSketch
from .embeddings import Embedding, EmbeddingNode


@dataclass
class HistogramUse:
    """How one stored histogram participates at one embedding node.

    Attributes:
        histogram: the stored histogram.
        expansion: dimension index → list of embedding children expanded by
            that dimension (the ``E_i`` part owned by this histogram).
        conditions: dimension index → the EdgeRef it conditions on (``D_i``);
            the concrete value comes from the ancestor context at
            estimation time.
        branch_conditions: dimension index → the branch chain whose
            existence that dimension witnesses.  A single-alternative
            branch predicate whose first edge is covered by this histogram
            is folded into the histogram factor — per point, the branch
            holds with probability ``1 − (1 − r)^c`` where ``c`` is the
            dimension's count and ``r`` the per-child satisfaction
            probability — so branch existence correlates with the sibling
            expansion counts instead of being assumed independent.
    """

    histogram: EdgeHistogram
    expansion: dict[int, list[EmbeddingNode]] = field(default_factory=dict)
    conditions: dict[int, EdgeRef] = field(default_factory=dict)
    branch_conditions: dict[int, EmbeddingNode] = field(default_factory=dict)

    #: the dimensions that survive marginalization (E ∪ D ∪ branches),
    #: ascending; computed from the three maps when not given
    kept: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kept is None:
            self.kept = tuple(sorted(
                set(self.expansion)
                | set(self.conditions)
                | set(self.branch_conditions)
            ))

    def kept_dimensions(self) -> list[int]:
        """Dimensions that survive marginalization (E ∪ D ∪ branches)."""
        return list(self.kept)


@dataclass
class ExtendedUse:
    """How one extended value histogram ``H^v(V, C...)`` participates.

    The value dimension absorbs either the node's own value predicate or a
    value-testing branch predicate (``[type = "Action"]``); the count
    dimensions expand the node's children *conditioned on that predicate*,
    which is exactly the value↔structure correlation the paper's extended
    histograms exist to capture.
    """

    summary: ExtendedValueSummary
    predicate: Optional[ValuePredicate]
    expansion: dict[int, list[EmbeddingNode]] = field(default_factory=dict)
    absorbed_branch: Optional[int] = None
    consumed_value_pred: bool = False


@dataclass
class NodePlan:
    """The per-node output of TREEPARSE.

    Attributes:
        node: the embedding node (None in :data:`LEAF_PLAN`).
        uses: one entry per histogram that covers at least one child edge
            or usable backward count.
        uncovered: children whose edge no histogram covers (``U_i``).
        covered_refs: the edge refs this node adds to the traversal's
            ``covered`` set (its expansion dimensions).
        absorbed_branches: indexes into ``node.branches`` that were folded
            into a histogram use; the estimator's independent branch
            handling must skip them.
        needed: the backward refs the uses of this node's subtree condition
            on; the estimator memoizes a subtree on just that part of its
            ancestor context.
    """

    node: Optional[EmbeddingNode]
    uses: list[HistogramUse] = field(default_factory=list)
    extended_uses: list[ExtendedUse] = field(default_factory=list)
    uncovered: list[EmbeddingNode] = field(default_factory=list)
    covered_refs: set[EdgeRef] = field(default_factory=set)
    absorbed_branches: set[int] = field(default_factory=set)
    value_pred_absorbed: bool = False
    needed: frozenset[EdgeRef] = frozenset()


#: The plan of every leaf (a node without children or branches): nothing
#: expands, nothing is absorbed.  One object serves every leaf, so its
#: containers are immutable.
LEAF_PLAN = NodePlan(None, (), (), (), frozenset(), frozenset())


def tree_parse(
    embedding: Embedding,
    sketch: TwigXSketch,
    branch_conditioning: bool = True,
) -> dict[int, NodePlan]:
    """Run TREEPARSE over ``embedding``; returns plans keyed by ``id(node)``.

    Mirrors the paper's Figure 7: a depth-first traversal maintaining the
    set of covered edge refs; leaf nodes share :data:`LEAF_PLAN`.  With
    ``branch_conditioning`` (default), single-alternative branch
    predicates whose edge is covered by a histogram are absorbed into the
    histogram factor (see :class:`HistogramUse`); disabling it reproduces
    the pure independence treatment of branches.  Each plan's ``needed``
    set is collected on the way back up.
    """
    plans: dict[int, NodePlan] = {}
    _visit(
        embedding.root, plans, set(), sketch, sketch.extended_stats,
        branch_conditioning,
    )
    return plans


def _visit(
    node: EmbeddingNode,
    plans: dict[int, NodePlan],
    covered: set[EdgeRef],
    sketch: TwigXSketch,
    extended_stats: dict,
    branch_conditioning: bool,
) -> frozenset[EdgeRef]:
    """Plan ``node``'s subtree into ``plans``; returns its ``needed`` set.

    ``covered`` holds the refs expanded on the way down, in visit order.
    A module-level function, so no closure refers to itself and a finished
    parse leaves no reference cycle behind.
    """
    children = node.children
    if not children and not node.branches:
        plans[id(node)] = LEAF_PLAN
        return LEAF_PLAN.needed
    node_id = node.node_id
    plan = NodePlan(node)
    plans[id(node)] = plan
    # keyed by the plain (source, target) pair, which equals the
    # EdgeRef of a histogram dimension
    child_edges: dict[tuple[int, int], list[EmbeddingNode]] = {}
    for child in children:
        key = (node_id, child.node_id)
        group = child_edges.get(key)
        if group is None:
            child_edges[key] = [child]
        else:
            group.append(child)
    # single-alternative branch predicates, keyed by their first
    # edge: candidates for conditioning inside a histogram
    branch_edges: dict[tuple[int, int], tuple[int, EmbeddingNode]] = {}
    if branch_conditioning:
        for index, alternatives in enumerate(node.branches):
            if len(alternatives) == 1:
                head = alternatives[0]
                branch_edges.setdefault(
                    (node_id, head.node_id), (index, head)
                )

    assigned: set[EdgeRef] = set()
    if node_id in extended_stats:
        _plan_extended_uses(sketch, node, plan, child_edges, assigned)
    absorbed_branches = plan.absorbed_branches
    needed: set[EdgeRef] = set()
    for histogram in sketch.histograms_at(node_id):
        scope = histogram.scope
        if child_edges.keys().isdisjoint(scope) and (
            not branch_edges or branch_edges.keys().isdisjoint(scope)
        ):
            # expands no child and absorbs no branch: no use
            continue
        expansion = conditions = branch_conditions = None
        kept = []
        for dim, ref in enumerate(scope):
            if ref.source != node_id:
                if ref in covered:
                    if conditions is None:
                        conditions = {}
                    conditions[dim] = ref
                    kept.append(dim)
            elif ref in child_edges and ref not in assigned:
                if expansion is None:
                    expansion = {}
                expansion[dim] = child_edges[ref]
                assigned.add(ref)
                kept.append(dim)
            elif (
                ref in branch_edges
                and branch_edges[ref][0] not in absorbed_branches
            ):
                branch_index, head = branch_edges[ref]
                if branch_conditions is None:
                    branch_conditions = {}
                branch_conditions[dim] = head
                absorbed_branches.add(branch_index)
                kept.append(dim)
        if expansion is not None or branch_conditions is not None:
            plan.uses.append(HistogramUse(
                histogram,
                expansion or {},
                conditions or {},
                branch_conditions or {},
                tuple(kept),
            ))
            if conditions is not None:
                needed.update(conditions.values())
    for key, group in child_edges.items():
        if key not in assigned:
            plan.uncovered.extend(group)
    plan.covered_refs = assigned
    covered.update(assigned)
    for child in children:
        child_needed = _visit(
            child, plans, covered, sketch, extended_stats,
            branch_conditioning,
        )
        if child_needed:
            needed.update(child_needed)
    plan.needed = frozenset(needed)
    return plan.needed


def _plan_extended_uses(
    sketch: TwigXSketch,
    node: EmbeddingNode,
    plan: NodePlan,
    child_edges: dict[tuple[int, int], list[EmbeddingNode]],
    assigned: set[EdgeRef],
) -> None:
    """Match the node's extended value histograms against its predicates.

    An extended summary participates when its value dimension can absorb a
    predicate: the node's own value predicate (``value_ref`` None), or a
    single-alternative, single-step, value-testing branch whose node is the
    summary's ``value_ref`` target.  Count dimensions then claim the child
    edges they cover, taking precedence over plain edge histograms (they
    carry strictly more information for the predicated population).
    """
    for summary in sketch.extended_at(node.node_id):
        predicate = None
        absorbed_branch = None
        consumed_value_pred = False
        if (
            summary.value_tag is None
            and node.value_pred is not None
            and not plan.value_pred_absorbed
        ):
            predicate = node.value_pred
            consumed_value_pred = True
        elif summary.value_tag is not None:
            for index, alternatives in enumerate(node.branches):
                if index in plan.absorbed_branches or len(alternatives) != 1:
                    continue
                chain = alternatives[0]
                if (
                    sketch.graph.node(chain.node_id).tag == summary.value_tag
                    and chain.value_pred is not None
                    and not chain.children
                    and not chain.branches
                ):
                    predicate = chain.value_pred
                    absorbed_branch = index
                    break
        if predicate is None:
            continue
        use = ExtendedUse(
            summary, predicate,
            absorbed_branch=absorbed_branch,
            consumed_value_pred=consumed_value_pred,
        )
        for dim, ref in enumerate(summary.scope):
            if ref in child_edges and ref not in assigned:
                use.expansion[dim] = child_edges[ref]
                assigned.add(ref)
        plan.extended_uses.append(use)
        if absorbed_branch is not None:
            plan.absorbed_branches.add(absorbed_branch)
        if consumed_value_pred:
            plan.value_pred_absorbed = True
