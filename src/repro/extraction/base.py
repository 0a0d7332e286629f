"""Extraction-engine foundations: the cost-model seam, the extractor
protocol, and the result type every extractor returns.

The paper's §V-C extraction is a *local* cost model (adopted from egg):
an e-node's cost is a function of its children's class costs, and an
extractor selects one e-node per class to minimize the root's cost.
This module fixes the vocabulary shared by all extractors:

* :class:`CostModel` — prices one e-node from its children's costs
  (subclasses live in :mod:`repro.targets.cost`);
* :class:`Extractor` — the protocol concrete extractors implement
  (:mod:`repro.extraction.greedy`, :mod:`repro.extraction.dag`);
* :class:`ExtractionResult` — term, cost, and the per-class chosen
  e-nodes, which is what rule provenance walks
  (:mod:`repro.extraction.provenance`).

Every extractor's cost fixpoint runs on one schedule,
:func:`fixpoint_passes`: Gauss-Seidel passes over the classes that
revisit only the classes with a child whose entry changed since their
last visit.  It is guarded by an explicit iteration cap: a cost model
that keeps lowering costs (non-monotone, NaN-happy, or unbounded-below)
raises :class:`FixpointDivergence` with the offending classes instead
of looping forever.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple as TupleT

from ..egraph.enode import ENode
from ..ir.terms import Term

__all__ = [
    "INFINITY",
    "CostModel",
    "AstSizeCost",
    "ExtractionError",
    "FixpointDivergence",
    "CostModelArityError",
    "ExtractionResult",
    "Extractor",
    "checked_enode_cost",
    "fixpoint_passes",
]

INFINITY = math.inf

#: Default cap on cost-fixpoint passes; generous (the deepest tier-1
#: graphs converge in tens of passes) but finite, so a pathological
#: cost model fails with a diagnostic instead of spinning.
DEFAULT_MAX_ITERATIONS = 10_000


class ExtractionError(RuntimeError):
    """Base class for extraction-engine failures."""


class FixpointDivergence(ExtractionError):
    """The extraction cost fixpoint failed to converge within its
    iteration cap.

    Converging is guaranteed for any cost model that is monotone in its
    children's costs (every model in :mod:`repro.targets.cost` is);
    hitting this error means the cost model keeps lowering some class's
    cost on every pass — typically a model returning ``NaN``, a
    negative-cost feedback loop, or state that changes between calls.
    """

    def __init__(self, extractor: str, iterations: int, classes) -> None:
        sample = ", ".join(str(c) for c in list(classes)[:8])
        suffix = "…" if len(classes) > 8 else ""
        super().__init__(
            f"{extractor} extraction did not reach a cost fixpoint after "
            f"{iterations} passes; {len(classes)} class(es) still changing "
            f"(e.g. {sample}{suffix}).  This indicates a non-monotone or "
            f"unstable cost model — enode_cost must not lower a class's "
            f"cost indefinitely."
        )
        self.iterations = iterations
        self.classes = tuple(classes)


class CostModelArityError(TypeError):
    """``child_costs`` does not match the e-node's child count.

    Raised instead of silently mis-pricing: a cost model indexing
    ``child_costs[1]`` of a one-child node would otherwise read a
    neighbouring value (or crash with a bare ``IndexError`` far from
    the offending call site).
    """

    def __init__(self, enode: ENode, got: int) -> None:
        super().__init__(
            f"cost model called with {got} child cost(s) for e-node "
            f"{enode.op!r} (payload {enode.payload!r}) which has "
            f"{len(enode.children)} child(ren)"
        )
        self.enode = enode
        self.got = got


class CostModel:
    """Computes the cost of one e-node given its children's costs.

    ``egraph`` and the e-node's own class id are provided so models can
    consult the shape analysis (array dims) of both operands and the
    node's own class.
    """

    def enode_cost(
        self,
        egraph,
        class_id: int,
        enode: ENode,
        child_costs: List[float],
    ) -> float:
        raise NotImplementedError


class AstSizeCost(CostModel):
    """Plain AST-size cost (every node costs 1); useful for tests."""

    def enode_cost(
        self,
        egraph,
        class_id: int,
        enode: ENode,
        child_costs: List[float],
    ) -> float:
        return 1.0 + sum(child_costs)


def checked_enode_cost(
    model: CostModel,
    egraph,
    class_id: int,
    enode: ENode,
    child_costs: List[float],
) -> float:
    """Invoke ``model.enode_cost`` with the arity validated first."""
    if len(child_costs) != len(enode.children):
        raise CostModelArityError(enode, len(child_costs))
    return model.enode_cost(egraph, class_id, enode, child_costs)


def fixpoint_passes(
    egraph, visit: Callable[[object], bool], max_iterations: int, name: str
) -> None:
    """Run ``visit`` over the canonical classes in ``classes()`` order,
    pass after pass, until a pass changes nothing; raise
    :class:`FixpointDivergence` (``name``, the classes the last pass
    changed) when pass ``max_iterations`` still changed something.

    ``visit(eclass)`` re-evaluates one class from its children's
    entries and returns whether its own entry changed.  The passes are
    Gauss-Seidel — a visit sees the changes earlier visits of the same
    pass made — and semi-naive: the first pass visits every class, and
    later visits happen only for classes with a child whose entry
    changed since their own last visit.  A change at position ``p``
    queues the parents after ``p`` into this pass and the rest (``p``
    itself included, for a class that is its own child) into the next.
    A skipped visit would have changed nothing — every e-node would be
    priced from the same child entries as at the class's last visit,
    which kept the best of them — so the passes, the changes each makes
    and the divergence condition are those of visiting every class in
    every pass.  The parents come from ``egraph.parents_of``, which
    lists every class holding an e-node over the class (parent-list
    completeness, EG105; extra entries would only add visits that
    change nothing).
    """
    order = list(egraph.classes())
    # class id -> position in ``order``.
    position = [0] * (max([eclass.class_id for eclass in order], default=-1) + 1)
    for p, eclass in enumerate(order):
        position[eclass.class_id] = p
    now = list(range(len(order)))  # this pass's positions (a heap)
    queued_now = bytearray(b"\x01") * len(order)
    later: List[int] = []
    queued_later = bytearray(len(order))
    changed: List[int] = []
    for _ in range(max_iterations):
        changed = []
        while now:
            p = heapq.heappop(now)
            queued_now[p] = 0
            eclass = order[p]
            if not visit(eclass):
                continue
            changed.append(eclass.class_id)
            for parent in egraph.parents_of(eclass.class_id):
                q = position[parent]
                if q > p:
                    if not queued_now[q]:
                        queued_now[q] = 1
                        heapq.heappush(now, q)
                elif not queued_later[q]:
                    queued_later[q] = 1
                    later.append(q)
        if not changed:
            return
        heapq.heapify(later)
        now, later = later, now
        queued_now, queued_later = queued_later, queued_now
    raise FixpointDivergence(name, max_iterations, sorted(changed))


class ExtractionResult:
    """Result of extracting one class: the chosen term, its cost, and
    the e-node chosen for every class the solution visits.

    ``chosen`` maps canonical class ids to the selected e-node; it is
    empty for failed extractions (``term is None``) and for results
    constructed by legacy callers that only pass ``(term, cost)``.
    """

    def __init__(
        self,
        term: Optional[Term],
        cost: float,
        chosen: Optional[Dict[int, ENode]] = None,
    ) -> None:
        self.term = term
        self.cost = cost
        self.chosen: Dict[int, ENode] = chosen if chosen is not None else {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExtractionResult(cost={self.cost!r}, term={self.term!s})"


class Extractor:
    """Protocol for extractors: pick minimum-cost terms from an e-graph
    under a cost model.

    Concrete extractors compute their cost tables eagerly in
    ``__init__`` (the e-graph must not be mutated between construction
    and extraction) and implement :meth:`extract` / :meth:`cost_of`.
    ``name`` is the registry key used by ``Limits(extractor=...)`` /
    ``REPRO_EXTRACTOR`` / ``--extractor``.
    """

    name: str = "abstract"

    def __init__(self, egraph, cost_model: CostModel) -> None:
        self.egraph = egraph
        self.cost_model = cost_model

    def cost_of(self, class_id: int) -> float:
        """Minimum cost of any term represented by the class."""
        raise NotImplementedError

    def extract(self, class_id: int) -> ExtractionResult:
        """The minimum-cost term of the class (``term=None`` when the
        class has no finite-cost derivation)."""
        raise NotImplementedError
