"""Twig-query workload generation (paper Section 6.1 "Workload").

The paper evaluates against workloads of 1000 *positive* twig queries
(non-zero selectivity) whose total twig-node count is uniform in [4, 8];
the P workload adds branching predicates, the P+V workload additionally
puts 1–2 value predicates (covering a random 10% slice of the value
domain) on half the queries.  "Negative" workloads (true count zero) are
used for the robustness remark in 6.1.

Positivity is guaranteed by construction: every query is grown around a
concrete *witness* assignment sampled from the document, so at least one
binding tuple exists.  True selectivities are computed with the exact
evaluator once per workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from ..errors import WorkloadError
from ..query.ast import Path, Step, TwigNode, TwigQuery
from ..query.evaluator import count_bindings
from ..query.values import ValuePredicate


@dataclass
class WorkloadQuery:
    """One workload entry: the query and its exact selectivity."""

    query: TwigQuery
    true_count: int


@dataclass
class Workload:
    """A named list of workload queries plus Table 2 statistics."""

    name: str
    queries: list[WorkloadQuery] = field(default_factory=list)

    def average_result(self) -> float:
        """Table 2's "Avg. Result": mean true selectivity."""
        if not self.queries:
            return 0.0
        return sum(q.true_count for q in self.queries) / len(self.queries)

    def average_fanout(self) -> float:
        """Table 2's "Avg. Fanout": mean child count of internal twig nodes."""
        fanouts: list[int] = []
        for entry in self.queries:
            fanouts.extend(entry.query.internal_fanouts())
        return sum(fanouts) / len(fanouts) if fanouts else 0.0

    def true_counts(self) -> list[int]:
        """The exact selectivities, in workload order."""
        return [entry.true_count for entry in self.queries]


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of the generator.

    ``min_nodes``/``max_nodes`` bound the *total* number of navigation
    steps per query (the paper's 4–8).  ``branch_probability`` converts
    some expansions into branching predicates (P workload);
    ``value_predicates`` enables the P+V behaviour: half the queries get
    1–2 value predicates covering ``value_range_fraction`` of the domain.
    """

    min_nodes: int = 4
    max_nodes: int = 8
    branch_probability: float = 0.3
    descendant_probability: float = 0.1
    value_predicates: bool = False
    value_range_fraction: float = 0.1
    seed: int = 7
    #: maximum children per twig node; 1 produces pure chain (path) queries
    max_children: int = 2


class WorkloadGenerator:
    """Generates positive/negative twig workloads over one document."""

    def __init__(self, tree: DocumentTree, spec: Optional[WorkloadSpec] = None):
        self.tree = tree
        self.spec = spec or WorkloadSpec()
        self.rng = random.Random(self.spec.seed)
        # (parent tag, child tag) pairs realized by some document edge
        self._tag_pairs = {
            (node.tag, child.tag)
            for node in tree.iter_nodes()
            for child in node.children
        }
        self._internal = [
            node for node in tree.iter_nodes() if len(node.children) >= 2
        ]
        if not self._internal:
            raise WorkloadError("document has no internal elements to seed twigs")
        # value domain (min, max) per tag with numeric values
        self._domains: dict[str, tuple[float, float]] = {}
        for tag in tree.tags:
            numeric = [
                e.value
                for e in tree.extent(tag)
                if isinstance(e.value, (int, float))
            ]
            if numeric:
                self._domains[tag] = (min(numeric), max(numeric))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def positive_workload(self, count: int, name: str = "") -> Workload:
        """Generate ``count`` positive queries with exact selectivities."""
        workload = Workload(name or ("P+V" if self.spec.value_predicates else "P"))
        attempts = 0
        while len(workload.queries) < count:
            attempts += 1
            if attempts > 50 * count:
                raise WorkloadError(
                    f"could not generate {count} positive queries "
                    f"(got {len(workload.queries)})"
                )
            draft = self._draft_query()
            if draft is None:
                continue
            query = TwigQuery(draft)
            true_count = count_bindings(query, self.tree)
            if true_count <= 0:
                continue  # defensive; witnesses should prevent this
            workload.queries.append(WorkloadQuery(query, true_count))
        return workload

    def negative_workload(self, count: int, name: str = "negative") -> Workload:
        """Generate ``count`` queries with true selectivity zero.

        Each query takes a positive skeleton and retargets one leaf step at
        a tag that never appears under its parent tag (verified against the
        document's parent/child tag pairs), so the zero count needs no
        evaluation.
        """
        workload = Workload(name)
        all_tags = list(self.tree.tags)
        attempts = 0
        while len(workload.queries) < count:
            attempts += 1
            if attempts > 100 * count:
                raise WorkloadError(f"could not generate {count} negative queries")
            draft = self._draft_query()
            if draft is not None and self._break_leaf(draft, all_tags):
                workload.queries.append(WorkloadQuery(TwigQuery(draft), 0))
        return workload

    # ------------------------------------------------------------------
    # positive query construction
    # ------------------------------------------------------------------
    def _draft_query(self) -> Optional[TwigNode]:
        """The root of a finished query tree, or None when the growth
        stalled below ``min_nodes``; the caller builds the query."""
        spec = self.spec
        target = self.rng.randint(spec.min_nodes, spec.max_nodes)
        witness_root = self.rng.choice(self._internal)

        counter = [0]

        def new_node(path: Path) -> TwigNode:
            node = TwigNode(f"t{counter[0]}", path)
            counter[0] += 1
            return node

        root = new_node(Path((Step(witness_root.tag),)))
        size = 1
        # open list of (twig node, witness element) pairs we may expand
        frontier: list[tuple[TwigNode, DocumentNode]] = [(root, witness_root)]
        witnesses: dict[int, DocumentNode] = {id(root): witness_root}

        stall = 0
        while size < target and frontier and stall < 40:
            # Depth bias: half the time continue from the most recent node,
            # which keeps the average internal fanout near the paper's ~2.
            if self.rng.random() < 0.5:
                position = len(frontier) - 1
            else:
                position = self.rng.randrange(len(frontier))
            twig_node, element = frontier[position]
            used_tags = {c.path.steps[0].tag for c in twig_node.children}
            used_tags.update(b.steps[0].tag for b in twig_node.path.last.branches)
            candidates = [
                c for c in element.children if c.tag not in used_tags
            ]
            if not candidates or len(twig_node.children) >= spec.max_children:
                frontier.pop(position)
                continue
            pick = self.rng.choice(candidates)
            roll = self.rng.random()
            if roll < spec.branch_probability:
                if self._add_branch(twig_node, pick):
                    size += 1
                else:
                    stall += 1
                continue
            if (
                roll < spec.branch_probability + spec.descendant_probability
                and pick.children
            ):
                grand = self.rng.choice(pick.children)
                step = Step(grand.tag, axis="descendant")
                node = new_node(Path((step,)))
                twig_node.add_child(node)
                witnesses[id(node)] = grand
                frontier.append((node, grand))
                size += 1
                continue
            node = new_node(Path((Step(pick.tag),)))
            twig_node.add_child(node)
            witnesses[id(node)] = pick
            frontier.append((node, pick))
            size += 1

        if size < self.spec.min_nodes:
            return None
        if spec.value_predicates and self.rng.random() < 0.5:
            self._add_value_predicates(root, witnesses)
        return root

    def _add_branch(self, twig_node: TwigNode, witness_child: DocumentNode) -> bool:
        """Turn a child expansion into a branching predicate on the node."""
        last = twig_node.path.last
        branch_tags = {b.steps[0].tag for b in last.branches}
        child_tags = {c.path.steps[0].tag for c in twig_node.children}
        if witness_child.tag in branch_tags or witness_child.tag in child_tags:
            return False
        patched = Step(
            last.tag,
            last.axis,
            last.value_pred,
            last.branches + (Path((Step(witness_child.tag),)),),
        )
        twig_node.path = Path(twig_node.path.steps[:-1] + (patched,))
        return True

    def _add_value_predicates(
        self, root: TwigNode, witnesses: dict[int, DocumentNode]
    ) -> None:
        """Attach 1–2 value predicates on nodes whose witness has a value.

        Numeric witnesses get a closed range covering ``value_range_fraction``
        of the tag's domain and containing the witness value (positivity);
        string witnesses get an equality predicate.
        """
        candidates = [
            node
            for node in root.iter_subtree()
            if witnesses.get(id(node)) is not None
            and witnesses[id(node)].value is not None
            and node.path.last.value_pred is None
        ]
        self.rng.shuffle(candidates)
        for node in candidates[: self.rng.randint(1, 2)]:
            witness = witnesses[id(node)]
            predicate = self._predicate_for(witness)
            last = node.path.last
            patched = Step(last.tag, last.axis, predicate, last.branches)
            node.path = Path(node.path.steps[:-1] + (patched,))

    def _predicate_for(self, witness: DocumentNode) -> ValuePredicate:
        value = witness.value
        if isinstance(value, (int, float)) and witness.tag in self._domains:
            low, high = self._domains[witness.tag]
            width = (high - low) * self.spec.value_range_fraction
            if width <= 0:
                return ValuePredicate("=", value)
            offset = self.rng.uniform(0, width)
            range_low = value - offset
            range_high = range_low + width
            if isinstance(value, int):
                range_low, range_high = int(range_low), int(range_high) + 1
            return ValuePredicate.between(range_low, range_high)
        return ValuePredicate("=", value)

    # ------------------------------------------------------------------
    # negative query construction
    # ------------------------------------------------------------------
    def _break_leaf(self, root: TwigNode, all_tags: list[str]) -> bool:
        """Retarget one leaf of the draft at a tag its parent's tag never
        has as a child; False when no leaf can be broken."""
        leaves = [node for node in root.iter_subtree() if not node.children]
        self.rng.shuffle(leaves)
        for leaf in leaves:
            if leaf.parent is None:
                continue
            parent_tag = leaf.parent.path.last.tag
            impossible = [
                tag
                for tag in all_tags
                if (parent_tag, tag) not in self._tag_pairs
            ]
            if not impossible:
                continue
            bad_tag = self.rng.choice(impossible)
            last = leaf.path.last
            if len(leaf.path) == 1 and last.axis == "child":
                leaf.path = Path((Step(bad_tag),))
                return True
        return False
