"""DAG-aware extraction: price shared subterms once.

The greedy (tree-cost) extractor charges a class every time a chosen
parent references it, so a subexpression shared by two parents — the
overlapping windows of the ``jacobi1d``/``blur1d`` stencils, the
``A·B`` factor reused inside ``2mm`` — is paid for twice even though a
real backend computes it once.  This extractor evaluates solutions as
DAGs instead:

* every class in the solution closure contributes its **local cost**
  exactly once, where ``local = enode_cost(child DAG costs) − Σ child
  DAG costs`` (the node's marginal cost given its children are already
  available).  Multiplicative models keep their semantics: a
  ``build N f`` still charges ``(N−1)·cost(f)`` locally because the
  loop body *executes* N times regardless of sharing;
* the cost of a candidate e-node is its local cost plus the cost of
  the **union** of its children's reachable-class sets — a class two
  children share is counted once.

Optimal DAG extraction is NP-hard (it is weighted-set-cover shaped);
this implementation is the standard greedy fixpoint over reach sets
(extraction-gym's ``greedy-dag``), seeded from the greedy extractor's
choices so it can only improve on the tree solution — which is what
makes the CI assertion "DAG best cost ≤ greedy best cost" hold by
construction.  Cyclic candidates (an e-node whose children reach back
to its own class) are rejected, so the chosen graph is always acyclic
and term building terminates.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple as TupleT

from ..egraph.enode import ENode, enode_to_term_shallow
from ..ir.terms import Term
from .base import (
    INFINITY,
    CostModel,
    ExtractionError,
    ExtractionResult,
    Extractor,
    checked_enode_cost,
    fixpoint_passes,
)
from .greedy import GreedyExtractor

__all__ = ["DagExtractor"]

#: Minimum improvement for a choice update; guarantees the relaxation
#: terminates (costs are bounded below by zero and strictly decrease).
_EPS = 1e-9

#: DAG refinement converges in a handful of passes from the greedy
#: seed; the cap only exists to turn a pathological cost model into a
#: diagnostic instead of a hang.
_MAX_PASSES = 1_000


class DagExtractor(Extractor):
    """Extracts minimum-DAG-cost terms from an e-graph."""

    name = "dag"

    def __init__(self, egraph, cost_model: CostModel) -> None:
        super().__init__(egraph, cost_model)
        #: Greedy (tree) table: used to seed choices and to skip
        #: e-nodes that have no finite derivation at all.
        self.tree = GreedyExtractor(egraph, cost_model)
        #: class id → (dag cost, chosen e-node, reach map).  The reach
        #: map assigns each class in the solution closure its local
        #: cost; the dag cost is the sum of the reach map's values.
        self._choices: Dict[int, TupleT[float, ENode, Dict[int, float]]] = {}
        self._seed()
        self._refine()

    # ------------------------------------------------------------------
    # seeding: the greedy solution, re-priced as a DAG
    # ------------------------------------------------------------------

    def _seed(self) -> None:
        egraph = self.egraph
        for class_id in egraph.class_ids():
            self._seed_class(egraph.find(class_id))

    def _seed_class(self, class_id: int) -> Optional[TupleT[float, ENode, Dict[int, float]]]:
        existing = self._choices.get(class_id)
        if existing is not None:
            return existing
        node = self.tree.best_node(class_id)
        if node is None:
            return None
        # The greedy choice graph is acyclic (strict cost monotonicity),
        # so a post-order walk over argmin nodes terminates.
        reach: Dict[int, float] = {}
        child_costs = []
        for child in node.children:
            entry = self._seed_class(self.egraph.find(child))
            assert entry is not None  # finite parent ⇒ finite children
            reach.update(entry[2])
            child_costs.append(entry[0])
        local = self._local_cost(class_id, node, child_costs)
        reach[class_id] = local
        choice = (sum(reach.values()), node, reach)
        self._choices[class_id] = choice
        return choice

    def _local_cost(self, class_id: int, node: ENode, child_costs) -> float:
        total = checked_enode_cost(
            self.cost_model, self.egraph, class_id, node, list(child_costs)
        )
        # The same strict-monotonicity floor the greedy extractor
        # applies, expressed on the local share.
        return max(total - sum(child_costs), 1e-6)

    # ------------------------------------------------------------------
    # refinement: relax choices until no class improves
    # ------------------------------------------------------------------

    def _refine(self) -> None:
        fixpoint_passes(self.egraph, self._relax, _MAX_PASSES, self.name)

    def _relax(self, eclass) -> bool:
        """Move the class to its cheapest candidate if that beats its
        current choice by more than ``_EPS``."""
        class_id = eclass.class_id
        current = self._choices.get(class_id)
        best_cost = current[0] if current is not None else INFINITY
        best: Optional[TupleT[float, ENode, Dict[int, float]]] = None
        for node in eclass.nodes:
            candidate = self._evaluate(class_id, node)
            if candidate is not None and candidate[0] < best_cost - _EPS:
                best_cost, best = candidate[0], candidate
        if best is None:
            return False
        self._choices[class_id] = best
        return True

    def _evaluate(
        self, class_id: int, node: ENode
    ) -> Optional[TupleT[float, ENode, Dict[int, float]]]:
        find = self.egraph.find
        reach: Dict[int, float] = {}
        child_costs = []
        for child in node.children:
            entry = self._choices.get(find(child))
            if entry is None:
                return None
            if class_id in entry[2]:
                return None  # cycle: the child's solution needs us
            reach.update(entry[2])
            child_costs.append(entry[0])
        reach[class_id] = self._local_cost(class_id, node, child_costs)
        return (sum(reach.values()), node, reach)

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------

    def cost_of(self, class_id: int) -> float:
        """Minimum DAG cost of any term represented by the class."""
        entry = self._choices.get(self.egraph.find(class_id))
        return entry[0] if entry is not None else INFINITY

    def tree_cost_of(self, class_id: int) -> float:
        """The greedy (tree) cost, for tree-vs-DAG comparisons."""
        return self.tree.cost_of(class_id)

    def extract(self, class_id: int) -> ExtractionResult:
        class_id = self.egraph.find(class_id)
        entry = self._choices.get(class_id)
        if entry is None:
            return ExtractionResult(None, INFINITY)
        memo: Dict[int, Term] = {}
        chosen: Dict[int, ENode] = {}
        term = self._build(class_id, memo, chosen, set())
        return ExtractionResult(term, entry[0], chosen)

    def _build(
        self,
        class_id: int,
        memo: Dict[int, Term],
        chosen: Dict[int, ENode],
        on_path: set,
    ) -> Term:
        class_id = self.egraph.find(class_id)
        cached = memo.get(class_id)
        if cached is not None:
            return cached
        if class_id in on_path:
            # Reach maps are transitive, so cycles can only arise from
            # a stale map captured before a descendant's choice moved;
            # fail loudly rather than recursing forever.
            raise ExtractionError(
                f"dag extraction chose a cyclic derivation through class "
                f"{class_id}; this indicates stale reach bookkeeping"
            )
        on_path.add(class_id)
        _, node, _ = self._choices[class_id]
        chosen[class_id] = node
        children = tuple(
            self._build(child, memo, chosen, on_path) for child in node.children
        )
        on_path.discard(class_id)
        term = enode_to_term_shallow(node.op, node.payload, children)
        memo[class_id] = term
        return term
