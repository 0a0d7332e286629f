"""Top-k extraction: the k cheapest *distinct* terms of a class.

The static cost model is a proxy; the paper's own evaluation shows it
occasionally mis-ranks close alternatives (a `dot`-based and an
`axpy`-based form of the same kernel can land within a few percent).
Enumerating the k cheapest terms lets downstream tooling measure the
candidates empirically and keep the fastest
(:func:`repro.analysis.coverage.pick_fastest`) instead of trusting the
model's argmin — the ``--top-k`` path through the pipeline.

The algorithm is the k-best hypergraph fixpoint (Bellman-Ford lifted
to sorted k-lists): each class keeps its k cheapest derivations
``(cost, node, child ranks)``, and a pass recomputes every class's
list from its children's current lists, combining children rank
vectors best-first per e-node.  The same strict-monotonicity floor the
greedy extractor applies makes every derivation strictly dearer than
each of its children, so lists converge and rank references can never
form a cycle (materialization always recurses to strictly cheaper
entries).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple as TupleT

from ..egraph.enode import ENode, enode_to_term_shallow
from ..ir.terms import Term
from .base import (
    DEFAULT_MAX_ITERATIONS,
    INFINITY,
    CostModel,
    ExtractionResult,
    checked_enode_cost,
    fixpoint_passes,
)

__all__ = ["TopKEnumerator", "extract_topk"]

#: A derivation: (cost, node position within the class, the node, the
#: rank chosen in each child's list).  Node position — the node's
#: index in the class's canonical insertion order — makes sort keys
#: process-stable without comparing ENode payloads.
_Entry = TupleT[float, int, ENode, TupleT[int, ...]]


def _entry_key(entry: _Entry) -> TupleT[float, int, TupleT[int, ...]]:
    """Deterministic order: cost, then canonical node position, then
    child ranks — never the (unorderable) ENode itself."""
    return (entry[0], entry[1], entry[3])


class TopKEnumerator:
    """Per-class k-best derivation lists over an e-graph."""

    def __init__(
        self,
        egraph,
        cost_model: CostModel,
        k: int,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        if k < 1:
            raise ValueError(f"top-k extraction needs k >= 1, got {k}")
        self.egraph = egraph
        self.cost_model = cost_model
        self.k = k
        self.max_iterations = max_iterations
        self._lists: Dict[int, TupleT[_Entry, ...]] = {}
        self._compute()

    # ------------------------------------------------------------------
    # fixpoint
    # ------------------------------------------------------------------

    def _compute(self) -> None:
        for class_id in self.egraph.class_ids():
            self._lists[class_id] = ()
        fixpoint_passes(self.egraph, self._visit, self.max_iterations, "topk")

    def _visit(self, eclass) -> bool:
        class_id = eclass.class_id
        fresh = self._class_list(class_id, eclass)
        if fresh == self._lists.get(class_id, ()):
            return False
        self._lists[class_id] = fresh
        return True

    def _class_list(self, class_id: int, eclass) -> TupleT[_Entry, ...]:
        candidates: List[_Entry] = []
        for position, node in enumerate(eclass.nodes):
            candidates.extend(self._node_entries(class_id, position, node))
        candidates.sort(key=_entry_key)
        return tuple(candidates[: self.k])

    def _node_entries(
        self, class_id: int, position: int, node: ENode
    ) -> List[_Entry]:
        """Up to k cheapest derivations through one e-node, explored
        best-first over the children's rank lattice."""
        find = self.egraph.find
        child_lists = [self._lists.get(find(child), ()) for child in node.children]
        if any(not lst for lst in child_lists):
            return []
        arity = len(child_lists)
        results: List[_Entry] = []
        start = (0,) * arity
        heap: List[TupleT[float, TupleT[int, ...]]] = [
            (self._cost_at(class_id, node, child_lists, start), start)
        ]
        seen = {start}
        while heap and len(results) < self.k:
            cost, ranks = heapq.heappop(heap)
            if cost < INFINITY:
                results.append((cost, position, node, ranks))
            for axis in range(arity):
                if ranks[axis] + 1 >= len(child_lists[axis]):
                    continue
                bumped = ranks[:axis] + (ranks[axis] + 1,) + ranks[axis + 1:]
                if bumped in seen:
                    continue
                seen.add(bumped)
                heapq.heappush(
                    heap,
                    (self._cost_at(class_id, node, child_lists, bumped), bumped),
                )
        return results

    def _cost_at(
        self,
        class_id: int,
        node: ENode,
        child_lists: List[TupleT[_Entry, ...]],
        ranks: TupleT[int, ...],
    ) -> float:
        child_costs = [
            child_lists[axis][rank][0] for axis, rank in enumerate(ranks)
        ]
        cost = checked_enode_cost(
            self.cost_model, self.egraph, class_id, node, child_costs
        )
        # Strict monotonicity, as in the greedy extractor: a derivation
        # is strictly dearer than each child entry it references.
        return max(cost, sum(child_costs) + 1e-6)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def results(self, class_id: int) -> List[ExtractionResult]:
        """The ≤ k cheapest distinct terms of the class, cheapest
        first.  Distinctness is by term equality: two derivations that
        materialize to the same expression collapse to one result."""
        class_id = self.egraph.find(class_id)
        out: List[ExtractionResult] = []
        seen_terms = set()
        for rank in range(len(self._lists.get(class_id, ()))):
            chosen: Dict[int, ENode] = {}
            term = self._materialize(class_id, rank, chosen)
            if term in seen_terms:
                continue
            seen_terms.add(term)
            out.append(
                ExtractionResult(term, self._lists[class_id][rank][0], chosen)
            )
        return out

    def _materialize(
        self, class_id: int, rank: int, chosen: Dict[int, ENode]
    ) -> Term:
        class_id = self.egraph.find(class_id)
        cost, _, node, ranks = self._lists[class_id][rank]
        chosen.setdefault(class_id, node)
        children = tuple(
            self._materialize(self.egraph.find(child), child_rank, chosen)
            for child, child_rank in zip(node.children, ranks)
        )
        return enode_to_term_shallow(node.op, node.payload, children)


def extract_topk(
    egraph, cost_model: CostModel, class_id: int, k: int
) -> List[ExtractionResult]:
    """The ≤ k cheapest distinct terms represented by ``class_id``.

    The first result always matches the greedy extractor's choice (its
    cost table is the k=1 slice of this one).  Returns an empty list
    when the class has no finite-cost derivation.
    """
    return TopKEnumerator(egraph, cost_model, k).results(class_id)
