"""The default (tree-cost) extractor: a Bellman-Ford-style fixpoint.

This is the seed extractor ported verbatim from
``repro.egraph.extract`` (§V-C): each e-class is assigned the cost of
its cheapest e-node, where an e-node's cost is computed by the
:class:`~repro.extraction.base.CostModel` from its children's class
costs — the "local cost model" the paper adopts from egg.  The
per-class table is computed as a fixpoint (necessary because saturated
e-graphs are cyclic) and the final term is read off top-down by picking
each class's argmin e-node.

The fixpoint runs on :func:`~repro.extraction.base.fixpoint_passes`:
Gauss-Seidel passes in class order, where a class is re-priced only
after one of its children's costs dropped since its last visit.  A
class none of whose children moved would price every e-node exactly as
before and keep its choice (a strictly lower cost is needed to move
it), so the costs, the chosen e-nodes and the
:class:`~repro.extraction.base.FixpointDivergence` condition are those
of the all-classes Bellman-Ford loop — at a fraction of its e-node
pricings once the first pass has settled most classes.

The tree cost double-counts shared subterms (a class referenced by two
chosen parents is priced twice); :mod:`repro.extraction.dag` prices
sharing once.  Greedy remains the default because the paper's cost
listings — and hence every canonical solution artifact — are stated in
tree-cost terms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as TupleT

from ..egraph.enode import ENode, enode_to_term_shallow
from ..ir.terms import Term
from .base import (
    DEFAULT_MAX_ITERATIONS,
    INFINITY,
    CostModel,
    ExtractionResult,
    Extractor,
    checked_enode_cost,
    fixpoint_passes,
)

__all__ = ["GreedyExtractor"]


class GreedyExtractor(Extractor):
    """Extracts minimum-tree-cost terms from an e-graph."""

    name = "greedy"

    def __init__(
        self,
        egraph,
        cost_model: CostModel,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        super().__init__(egraph, cost_model)
        self.max_iterations = max_iterations
        self._costs: Dict[int, TupleT[float, Optional[ENode]]] = {}
        self._compute()

    def _compute(self) -> None:
        costs = self._costs
        for class_id in self.egraph.class_ids():
            costs[class_id] = (INFINITY, None)
        # Each pass can only lower class costs; termination is
        # guaranteed (for monotone cost models) because every class's
        # cost is bounded below by the cost of its cheapest finite
        # derivation (acyclic term).
        fixpoint_passes(self.egraph, self._visit, self.max_iterations, self.name)

    def _visit(self, eclass) -> bool:
        """Price every e-node of the class; keep the first cheapest one
        if it beats the class's cost (ties keep the old choice)."""
        class_id = eclass.class_id
        best_cost, best_node = self._costs[class_id]
        changed = False
        for enode in eclass.nodes:
            cost = self._enode_cost(class_id, enode)
            if cost < best_cost:
                best_cost, best_node = cost, enode
                changed = True
        if changed:
            self._costs[class_id] = (best_cost, best_node)
        return changed

    def _enode_cost(self, class_id: int, enode: ENode) -> float:
        child_costs: List[float] = []
        for child in enode.children:
            cost, _ = self._costs.get(self.egraph.find(child), (INFINITY, None))
            if cost == INFINITY:
                return INFINITY
            child_costs.append(cost)
        cost = checked_enode_cost(
            self.cost_model, self.egraph, class_id, enode, child_costs
        )
        # Enforce strict monotonicity (node strictly dearer than its
        # children): guarantees the per-class argmin selection is
        # acyclic, so top-down term building terminates even on cyclic
        # e-graphs with degenerate (e.g. zero-size) dimensions.
        return max(cost, sum(child_costs) + 1e-6)

    def cost_of(self, class_id: int) -> float:
        """Minimum cost of any term represented by the class."""
        return self._costs.get(self.egraph.find(class_id), (INFINITY, None))[0]

    def best_node(self, class_id: int) -> Optional[ENode]:
        """The argmin e-node of the class, or ``None`` without a finite
        derivation (used by the DAG extractor to seed its choices)."""
        return self._costs.get(self.egraph.find(class_id), (INFINITY, None))[1]

    def extract(self, class_id: int) -> ExtractionResult:
        """The minimum-cost term of the class (``term=None`` when the
        class has no finite-cost derivation)."""
        class_id = self.egraph.find(class_id)
        cost, _ = self._costs.get(class_id, (INFINITY, None))
        if cost == INFINITY:
            return ExtractionResult(None, INFINITY)
        chosen: Dict[int, ENode] = {}
        term = self._build(class_id, chosen)
        return ExtractionResult(term, cost, chosen)

    def _build(self, class_id: int, chosen: Dict[int, ENode]) -> Term:
        class_id = self.egraph.find(class_id)
        cost, node = self._costs[class_id]
        assert node is not None
        chosen[class_id] = node
        children = tuple(self._build(child, chosen) for child in node.children)
        return enode_to_term_shallow(node.op, node.payload, children)
