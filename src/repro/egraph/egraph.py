"""The e-graph: hash-consed e-nodes partitioned into e-classes.

Follows the design of egg (Willsey et al., POPL 2021): a union-find
over e-class ids, a hashcons mapping canonical e-nodes to their class,
per-class parent lists, and deferred congruence-closure maintenance via
:meth:`EGraph.rebuild`.

Extras needed by LIAR:

* an optional per-class *analysis* (used for shape inference, which the
  cost models consume);
* ``add_term`` / ``extract_smallest`` to move between terms and
  classes — rule application in LIAR extracts terms to run the De
  Bruijn ``shift``/``subst`` operators on them (§IV-B3, approach 2);
  ``add_subst`` inserts ``subst(e, y)`` and ``add_shift`` inserts
  ``shift(e, 1)`` without building them.  All three memoize subterm
  classes by term identity, so a term spliced into many right-hand
  sides is walked once.  The memos hold while every
  child id of the e-nodes their walks built stays a union-find root
  (then a fresh walk would build the same hashcons keys): a merge drops
  them only when its loser is such a child id, and ``rebuild`` always;
* :class:`ClassRef`, a pseudo-term that references an existing e-class
  so rule right-hand sides can mention matched classes without
  extracting them;
* ``known_sizes``, the set of array sizes present in the graph, used to
  instantiate the free size variable of ``R-INTRO-INDEXBUILD``;
* a leaf-class index (``leaf_classes``): the canonical classes holding
  a ``var`` or ``const`` e-node, maintained by ``add_enode``/``merge``,
  from which the intro rules draw their free right-hand-side variables
  (§IV-B4) without rescanning every class;
* a search memo: ``extract_candidates`` results, their unshifted
  forms per shift (``unshifted_candidates``, the bindings of ``A↑k``
  pattern variables), the smallest terms their walks built and each
  class's e-nodes grouped by operator are cached under the graph's
  ``(version, generation)``, so all rules of one search phase (which
  never mutates the graph) share them; the saturation runner drops
  the memo when the phase ends.  :meth:`EGraph.match_view` hands the
  memo, with the union-find's parent list and ``find``, to compiled
  e-matching programs (:class:`MatchView`).

Storage layout — the slotted store:

Every e-node is assigned a dense integer **slot** when it is first
hash-consed.  ``_slot_form[slot]`` tracks the node's *current*
canonical form (its live hashcons key) and ``_slot_class[slot]`` its
class; per-class parent lists hold plain slot ints instead of
``(ENode, class_id)`` pairs.  This buys **complete hashcons repair**: :meth:`rebuild` pops a
parent's *current* memo key (``_slot_form``), not the form recorded
when the parent was registered, so repair can no longer miss entries
that were re-keyed by an earlier merge and the O(memo) safety sweep
the previous object store needed every rebuild is gone.

:func:`repro.check.egraph.verify` sweeps every representation
invariant of this layout on demand (``Limits(check=True)`` /
``REPRO_CHECK=1`` runs it after every saturation step).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple as TupleT,
)

from ..ir.debruijn import shift, try_unshift
from ..ir.terms import Term, Var
from .enode import ENode, enode_to_term_shallow, term_to_parts
from .unionfind import UnionFind

__all__ = [
    "EGraph", "EClass", "ClassRef", "Analysis", "MatchView", "CANDIDATE_LIMIT",
    "INDEXED_LEAF_OPS",
]

#: Leaf operators whose classes :meth:`EGraph.leaf_classes` indexes.
INDEXED_LEAF_OPS = ("var", "const")

#: How many candidate terms :meth:`EGraph.extract_candidates` returns
#: by default, and so the ``limit`` of every candidate-memo key a
#: compiled e-matching program reads.
CANDIDATE_LIMIT = 4


@dataclass(frozen=True, slots=True)
class ClassRef(Term):
    """Pseudo-term wrapping an e-class id.

    Only meaningful inside :meth:`EGraph.add_term`: it splices a
    reference to an existing class into a term under construction.
    Never appears in extracted expressions.
    """

    class_id: int


class Analysis:
    """Base class for e-class analyses (egg-style).

    ``make`` computes the analysis data of a fresh e-node from its
    children's data; ``join`` combines the data of two merged classes.
    The default implementation stores nothing.

    As in egg, a rebuild re-runs ``make`` only on the parents of classes
    whose data changed: a merge whose joined data equals (``==``) the
    old data of both sides propagates nothing.
    """

    def make(self, egraph: "EGraph", enode: ENode) -> object:
        return None

    def join(self, a: object, b: object) -> object:
        return None


@dataclass
class EClass:
    """One equivalence class of e-nodes.

    ``nodes`` is a dict used as an insertion-ordered set: iteration
    order is deterministic across processes (a plain set would iterate
    in PYTHONHASHSEED-dependent order, making saturation runs — and
    hence extracted solutions — irreproducible).

    ``parents`` holds slot ints (resolve through ``EGraph._slot_form``
    / ``_slot_class``).  Consumers outside this module should use
    :meth:`EGraph.parents_of`.
    """

    class_id: int
    nodes: Dict[ENode, None] = field(default_factory=dict)
    parents: List[int] = field(default_factory=list)
    data: object = None


#: A class's e-nodes grouped by operator, each group in insertion order.
OpGroups = Dict[str, List[ENode]]

#: The candidate memo: ``(class, limit, shift)`` to
#: ``unshifted_candidates(class, shift, limit)``.
CandidateMemo = Dict[TupleT[int, int, int], List[Term]]

#: ``((version, generation), candidate memo, {class: smallest term or
#: None}, {class: op groups})``; see :meth:`EGraph._search_memo`.
_SearchMemo = TupleT[
    TupleT[int, int], CandidateMemo, Dict[int, Optional[Term]], Dict[int, OpGroups]
]


class MatchView(NamedTuple):
    """What a compiled e-matching program reads
    (:mod:`repro.egraph.matcher`): plain containers, which the program
    indexes without a Python call, and the calls that fill them on a
    miss.  Valid while the graph does not change (the same
    ``(version, generation)``); :meth:`EGraph.match_view` makes one."""

    #: The union-find's parent list: ``c`` is a root when
    #: ``parents[c] == c``.
    parents: List[int]
    #: The union-find's ``find``, for the ids that are not roots.
    find: Callable[[int], int]
    #: Canonical class id to the class's :data:`OpGroups`, for the
    #: classes indexed so far.
    ops: Dict[int, OpGroups]
    #: ``index_ops(c)`` groups canonical class ``c``'s e-nodes, stores
    #: them in ``ops`` and returns them.
    index_ops: Callable[[int], OpGroups]
    #: The candidate memo; programs read the keys
    #: ``(canonical class, CANDIDATE_LIMIT, shift)``.
    candidates: CandidateMemo
    #: ``unshifted(c, shift)`` is :meth:`EGraph.unshifted_candidates`,
    #: which fills ``candidates`` on a miss.
    unshifted: Callable[[int, int], List[Term]]


class EGraph:
    """A congruence-closed e-graph with hash-consing.

    Invariants (after :meth:`rebuild`):

    * every e-node in ``self._memo`` is canonical (children are
      union-find roots) and maps to a canonical class id;
    * congruent e-nodes (same op/payload, same canonical children)
      are in the same class.
    """

    #: Canonical id of the class containing a class id: the
    #: union-find's own bound ``find``, so a call costs one Python
    #: frame, not a forwarding frame more.
    find: Callable[[int], int]

    def __init__(self, analysis: Optional[Analysis] = None) -> None:
        # slot -> the e-node's current canonical form (live memo key)
        self._slot_form: List[ENode] = []
        # slot -> the e-node's class id (kept find-compressed by repair)
        self._slot_class: List[int] = []
        self._uf = UnionFind()
        self.find = self._uf.find
        self._memo: Dict[ENode, int] = {}
        self._classes: Dict[int, EClass] = {}
        self._pending: List[int] = []
        self._analysis = analysis
        self._analysis_pending: List[int] = []
        self.known_sizes: Set[int] = set()
        # INDEXED_LEAF_OPS tag -> canonical ids of the classes holding
        # an e-node with that tag (see leaf_classes).
        self._leaf_classes: Dict[str, Set[int]] = {
            op: set() for op in INDEXED_LEAF_OPS
        }
        # The search memo; see _search_memo.
        self._candidate_memo: Optional[_SearchMemo] = None
        # Classes created or merged since the last pop_dirty(); the
        # saturation engine's incremental e-matching restricts rule
        # search to these classes and their parent closure.
        self._dirty: Set[int] = set()
        # Union-origin log for rule provenance: while origin_tag is a
        # rule name (the saturation runner sets it around each rule
        # application), every e-node creation and class union appends
        # (tag, class_id, other_class_id_or_-1).  Untagged mutations —
        # initial term construction, congruence repair — are not
        # logged; repro.extraction.provenance walks this log.
        self.origin_tag: Optional[str] = None
        self.union_origins: List[TupleT[str, int, int]] = []
        # Bumped on every mutation; used for fixpoint detection.
        self.version = 0
        # {id(term): (term, class id)}; see add_term.
        self._term_memo: Dict[int, TupleT[Term, int]] = {}
        # {(id(term), depth): (term, value or None, class id)}; see
        # add_subst.
        self._subst_memo: Dict[
            TupleT[int, int], TupleT[Term, Optional[Term], int]
        ] = {}
        # {(id(term), cutoff): (term, class id)}; see add_shift.
        self._shift_memo: Dict[TupleT[int, int], TupleT[Term, int]] = {}
        # Child ids of every e-node the memos' walks built; all are
        # union-find roots while the memos hold (see merge).
        self._memo_children: Set[int] = set()
        # Bumped only by rebuild(); the smallest-term table caches off
        # this so that rule appliers running inside one saturation step
        # share a single table instead of recomputing per mutation.
        # Terms read from a slightly stale table are still valid class
        # members (classes only ever grow).
        self.generation = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def canonicalize(self, enode: ENode) -> ENode:
        """Canonicalize an e-node's children."""
        return enode.map_children(self.find)

    def classes(self) -> Iterable[EClass]:
        """Iterate over all canonical e-classes."""
        return self._classes.values()

    def class_ids(self) -> List[int]:
        """All canonical class ids (snapshot list, safe to mutate over)."""
        return list(self._classes.keys())

    def nodes_of(self, class_id: int):
        """The e-nodes of the class containing ``class_id`` (an
        insertion-ordered, set-like view)."""
        return self._classes[self.find(class_id)].nodes

    def data_of(self, class_id: int) -> object:
        """Analysis data of the class containing ``class_id``."""
        return self._classes[self.find(class_id)].data

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        """Number of unique (canonical) e-nodes in the graph."""
        return len(self._memo)

    def same(self, a: int, b: int) -> bool:
        """True when classes ``a`` and ``b`` have been merged."""
        return self.find(a) == self.find(b)

    def has_class(self, class_id: int) -> bool:
        """True when ``class_id`` is a live canonical class id."""
        return class_id in self._classes

    def parents_of(self, class_id: int) -> List[int]:
        """Canonical class ids of the parents of ``class_id``'s class
        (classes containing an e-node with a child in the class).  May
        contain duplicates; callers canonicalize-and-dedup anyway."""
        eclass = self._classes.get(self.find(class_id))
        if eclass is None:
            return []
        find = self.find
        slot_class = self._slot_class
        return [find(slot_class[slot]) for slot in eclass.parents]

    def _parent_entries(
        self, eclass: EClass
    ) -> List[TupleT[ENode, int]]:
        """The class's parents as ``(current form, class id)`` pairs
        (internal; analysis propagation)."""
        slot_form, slot_class = self._slot_form, self._slot_class
        return [(slot_form[slot], slot_class[slot]) for slot in eclass.parents]

    def pop_dirty(self) -> Set[int]:
        """Canonical ids of every class created or merged since the
        previous call, clearing the log.  Consumed once per saturation
        step by the incremental e-matcher."""
        dirty = {self.find(class_id) for class_id in self._dirty}
        self._dirty.clear()
        return dirty

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def add_enode(self, enode: ENode) -> int:
        """Insert an e-node (children must be valid class ids); returns
        the id of its class, reusing an existing class when hash-consing
        finds the node already present."""
        return self.add_canonical(self.canonicalize(enode))

    def _insert(self, enode: ENode) -> int:
        """Create a class for ``enode``, which must be canonical and
        absent from the hashcons."""
        op, payload, children = enode
        class_id = self._uf.make_set()
        eclass = EClass(class_id)
        eclass.nodes[enode] = None
        self._classes[class_id] = eclass
        self._memo[enode] = class_id
        slot = len(self._slot_form)
        self._slot_form.append(enode)
        self._slot_class.append(class_id)
        classes = self._classes
        for child in children:
            classes[child].parents.append(slot)
        if op == "build" or op == "ifold":
            self.known_sizes.add(payload)  # type: ignore[arg-type]
        leaf = self._leaf_classes.get(op)
        if leaf is not None:
            leaf.add(class_id)
        if self._analysis is not None:
            eclass.data = self._analysis.make(self, enode)
        self._dirty.add(class_id)
        if self.origin_tag is not None:
            self.union_origins.append((self.origin_tag, class_id, -1))
        self.version += 1
        return class_id

    def add_canonical(self, enode: ENode) -> int:
        """:meth:`add_enode` for an e-node whose children are already
        union-find roots: one hashcons probe, or an insert."""
        existing = self._memo.get(enode)
        if existing is not None:
            return self.find(existing)
        return self._insert(enode)

    def add_term(self, term: Term) -> int:
        """Insert a term bottom-up; returns the id of the root's class.

        ``ClassRef`` leaves splice in existing classes.

        Every subterm's class is memoized by the subterm's identity
        (``id`` plus an ``is`` check; the memo holds the term, so its
        id cannot be reused), and a hit answers ``find`` of the stored
        class: terms shared between calls (candidate representatives
        spliced into many right-hand sides) cost one probe after their
        first insertion.  The memo answers exactly what a fresh walk
        would, because a fresh walk of a memoized subterm builds the
        same e-nodes while their child ids stay union-find roots: the
        keys are still in the hashcons (only :meth:`rebuild` removes
        keys), and the stored class and the probed one have the same
        root.  So :meth:`merge` keeps the memo unless the id that stops
        being a root is a child id of some e-node a memoized walk built
        (``_memo_children``); :meth:`rebuild` and :meth:`drop_term_memo`
        always drop it.
        """
        return self._add_term(term, self._term_memo)

    def _add_term(self, term: Term, memo: Dict[int, TupleT[Term, int]]) -> int:
        if isinstance(term, ClassRef):
            return self.find(term.class_id)
        hit = memo.get(id(term))
        if hit is not None and hit[0] is term:
            return self.find(hit[1])
        op, payload, child_terms = term_to_parts(term)
        # Every id _add_term returns is a union-find root, and inserting
        # never merges, so the node is canonical as built.
        children = tuple([self._add_term(c, memo) for c in child_terms])
        if children:
            self._memo_children.update(children)
        class_id = self.add_canonical(ENode(op, payload, children))
        memo[id(term)] = (term, class_id)
        return class_id

    def add_subst(self, term: Term, value: Term) -> int:
        """``add_term(subst(term, value))`` without building the
        substituted term: the paper's ``subst(e, y)`` (replace ``•0`` by
        ``value``, lower the other free variables) inserted straight
        into class ids.

        The walk mirrors ``subst`` and ``add_term``'s post-order: a
        ``Var`` of the substituted index becomes ``add_term`` of
        ``value`` shifted to the depth (one shifted term per depth and
        call), every other node one hashcons probe or insert over its
        children's ids, with the payload ``subst`` would give it.  So it
        inserts the same e-nodes in the same order.  Every subterm but a
        variable has its class memoized by ``(id(term), depth)`` under the
        same rule as the :meth:`add_term` memo, which it shares (values
        go through it): an entry whose walk met no substituted variable
        answers for every value, the others only for the same value
        object.  This is what makes re-reducing a redex that
        ``R-INTROLAMBDA`` built (``(λ e↑) y``, whose body never mentions
        ``•0``) one probe for every ``y`` after the first.
        """
        return self._add_subst(term, value, 0, {})[0]

    def _add_subst(
        self, term: Term, value: Term, depth: int, shifted: Dict[int, Term]
    ) -> TupleT[int, bool]:
        """``(class id, whether the walk met the substituted index)``;
        ``shifted`` caches ``shift(value, depth)`` per depth."""
        if isinstance(term, Var):
            index = term.index
            if index == depth:
                at_depth = shifted.get(depth)
                if at_depth is None:
                    at_depth = shifted[depth] = shift(value, depth) if depth else value
                return self._add_term(at_depth, self._term_memo), True
            if index > depth:
                index -= 1
            return self.add_canonical(ENode("var", index, ())), False
        memo = self._subst_memo
        key = (id(term), depth)
        hit = memo.get(key)
        if hit is not None and hit[0] is term and (hit[1] is None or hit[1] is value):
            return self.find(hit[2]), hit[1] is not None
        op, payload, child_terms = term_to_parts(term)
        inner = depth + 1 if op == "lam" else depth
        used = False
        ids = []
        for child in child_terms:
            child_id, child_used = self._add_subst(child, value, inner, shifted)
            ids.append(child_id)
            used = used or child_used
        children = tuple(ids)
        if children:
            self._memo_children.update(children)
        class_id = self.add_canonical(ENode(op, payload, children))
        memo[key] = (term, value if used else None, class_id)
        return class_id, used

    def add_shift(self, term: Term) -> int:
        """``add_term(shift(term, 1))`` without building the shifted
        term: ``R-INTROLAMBDA``'s ``e↑`` inserted straight into class
        ids.

        The walk mirrors ``shift`` and ``add_term``'s post-order: a
        ``Var`` at or above the cutoff (the number of ``Lam`` binders
        passed) gets its index raised by one, and every node is one
        hashcons probe or insert over its children's ids.  So it inserts
        the same e-nodes in the same order.  Every subterm but a variable
        has its class memoized by ``(id(term), cutoff)`` under the same
        rule as the :meth:`add_term` memo: the rule applies a body once
        per candidate argument, and every application after the first
        costs one probe.
        """
        return self._add_shift(term, 0)

    def _add_shift(self, term: Term, cutoff: int) -> int:
        if isinstance(term, Var):
            index = term.index
            return self.add_canonical(
                ENode("var", index + 1 if index >= cutoff else index, ())
            )
        memo = self._shift_memo
        key = (id(term), cutoff)
        hit = memo.get(key)
        if hit is not None and hit[0] is term:
            return self.find(hit[1])
        op, payload, child_terms = term_to_parts(term)
        inner = cutoff + 1 if op == "lam" else cutoff
        children = tuple([self._add_shift(c, inner) for c in child_terms])
        if children:
            self._memo_children.update(children)
        class_id = self.add_canonical(ENode(op, payload, children))
        memo[key] = (term, class_id)
        return class_id

    def drop_term_memo(self) -> None:
        """Release the :meth:`add_term`, :meth:`add_subst` and
        :meth:`add_shift` memos (the runner calls this when an apply
        phase ends)."""
        self._term_memo = {}
        self._subst_memo = {}
        self._shift_memo = {}
        self._memo_children = set()

    # ------------------------------------------------------------------
    # Merging and rebuilding
    # ------------------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Union two classes; congruence repair is deferred to
        :meth:`rebuild`."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        if self.origin_tag is not None:
            self.union_origins.append((self.origin_tag, root_a, root_b))
        self.version += 1
        new_root = self._uf.union(root_a, root_b)
        other = root_b if new_root == root_a else root_a
        if other in self._memo_children:
            # A memoized walk built an e-node over ``other``; a fresh
            # walk would now build it over ``new_root`` (see add_term).
            self.drop_term_memo()
        winner = self._classes[new_root]
        loser = self._classes.pop(other)
        winner.nodes.update(loser.nodes)
        winner.parents.extend(loser.parents)
        for leaf in self._leaf_classes.values():
            if other in leaf:
                leaf.discard(other)
                leaf.add(new_root)
        if self._analysis is not None:
            joined = self._analysis.join(winner.data, loser.data)
            # Egg's rule: only a class whose data changed needs its
            # parents re-made.  ``join`` keeps the first value on a
            # conflict, so a change on either side counts: the loser's
            # parents were made from the loser's data.
            if joined != winner.data or joined != loser.data:
                self._analysis_pending.append(new_root)
            winner.data = joined
        self._pending.append(new_root)
        self._dirty.add(new_root)
        return new_root

    def rebuild(
        self, span: Callable[[str], ContextManager[object]] = nullcontext
    ) -> int:
        """Restore the congruence invariant; returns the number of
        congruence-induced unions performed.

        ``span(name)`` wraps each sub-phase (``rebuild.repair``,
        ``rebuild.analysis``); the saturation runner passes its tracer's
        ``span`` to time them."""
        unions = 0
        # Repair re-keys the hashcons, which the add_term memo relies on.
        self.drop_term_memo()
        # Slot-based repair pops each parent's *current* memo key
        # (``_slot_form``), so it cannot miss entries re-keyed by an
        # earlier merge — no O(memo) safety sweep is needed per
        # rebuild (repro.check.egraph's EG101/EG102 verify that).
        with span("rebuild.repair"):
            while self._pending:
                todo = {self.find(class_id) for class_id in self._pending}
                self._pending.clear()
                for class_id in todo:
                    unions += self._repair_flat(class_id)
        with span("rebuild.analysis"):
            if self._analysis is not None:
                self._propagate_analysis()
        self.generation += 1
        return unions

    def _repair_flat(self, class_id: int) -> int:
        """Re-canonicalize the parents of a recently merged class,
        merging classes of now-congruent parents (egg's ``repair``).

        Pass 1 pops ``_slot_form[slot]`` — the parent's *current*
        canonical form, i.e. the key that is actually in the hashcons
        right now — not the form recorded when the parent was
        registered.  A form re-keyed by an earlier merge is therefore
        always found and removed, closing the repair gap that would
        otherwise require an O(memo) sweep after every rebuild.
        """
        unions = 0
        class_id = self.find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return 0
        old_parents = eclass.parents
        # Take the parent list out before any merging below: if this
        # class itself gets merged mid-repair, the surviving class's
        # other parents must not be clobbered.
        eclass.parents = []
        slot_form, slot_class = self._slot_form, self._slot_class
        find, memo = self.find, self._memo
        # Pass 1: refresh the hashcons for every parent slot (a parent
        # form always has children).
        for slot in old_parents:
            current = slot_form[slot]
            memo.pop(current, None)
            op, payload, children = current
            canonical = ENode(op, payload, tuple([find(c) for c in children]))
            refreshed = find(slot_class[slot])
            slot_form[slot] = canonical
            slot_class[slot] = refreshed
            memo[canonical] = refreshed
        # Pass 2: merge classes of parents that became congruent; the
        # first slot per canonical form survives as the parent entry.
        # Dropped duplicates stay congruent to the keeper forever (their
        # classes are merged here, and congruent forms canonicalize
        # identically), so the keeper maintains the shared memo key on
        # behalf of all of them.
        new_parents: Dict[ENode, int] = {}
        for slot in old_parents:
            canonical = slot_form[slot]
            previous = new_parents.get(canonical)
            if previous is not None:
                if not self._uf.same(slot_class[previous], slot_class[slot]):
                    self.merge(slot_class[previous], slot_class[slot])
                    unions += 1
                continue
            new_parents[canonical] = slot
        survivor = self._classes.get(find(class_id))
        if survivor is not None:
            survivor.parents.extend(new_parents.values())
            survivor.nodes = {node.map_children(find): None for node in survivor.nodes}
            for slot in new_parents.values():
                refreshed = find(slot_class[slot])
                slot_class[slot] = refreshed
                memo[slot_form[slot]] = refreshed
        return unions

    def _propagate_analysis(self) -> None:
        """Re-run ``make`` upwards from classes whose data changed
        (``merge`` queues only those, so a merge that leaves both sides'
        data as it was costs nothing here)."""
        assert self._analysis is not None
        worklist = [self.find(c) for c in self._analysis_pending]
        self._analysis_pending.clear()
        seen_rounds = 0
        while worklist and seen_rounds < 1000:
            seen_rounds += 1
            next_work: List[int] = []
            for class_id in worklist:
                class_id = self.find(class_id)
                eclass = self._classes.get(class_id)
                if eclass is None:
                    continue
                for parent_node, parent_class in self._parent_entries(eclass):
                    parent_class = self.find(parent_class)
                    parent = self._classes.get(parent_class)
                    if parent is None:
                        continue
                    made = self._analysis.make(self, self.canonicalize(parent_node))
                    joined = self._analysis.join(parent.data, made)
                    if joined != parent.data:
                        parent.data = joined
                        next_work.append(parent_class)
            worklist = next_work

    # ------------------------------------------------------------------
    # Extraction of small representative terms (used by rule appliers)
    # ------------------------------------------------------------------

    def _size_table(self) -> Dict[int, TupleT[int, ENode]]:
        """Smallest-term size and witness e-node per class (fixpoint).

        Cached per :attr:`generation`: rule appliers inside one
        saturation step share one table (see ``generation``).
        """
        cached = getattr(self, "_size_cache", None)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        table: Dict[int, TupleT[int, ENode]] = {}
        find = self.find
        changed = True
        while changed:
            changed = False
            for class_id, eclass in self._classes.items():
                best = table.get(class_id)
                for node in eclass.nodes:
                    size = 1
                    ok = True
                    for child in node[2]:
                        entry = table.get(find(child))
                        if entry is None:
                            ok = False
                            break
                        size += entry[0]
                    if ok and (best is None or size < best[0]):
                        best = (size, node)
                        table[class_id] = best
                        changed = True
        self._size_cache = (self.generation, table)
        return table

    def extract_smallest(self, class_id: int) -> Optional[Term]:
        """Smallest term represented by ``class_id`` (node count), or
        ``None`` when the class has no finite (acyclic) term."""
        table = self._size_table()
        return self._build_term(self.find(class_id), table)

    def _build_term(
        self,
        class_id: int,
        table: Dict[int, TupleT[int, ENode]],
        path: Optional[Set[int]] = None,
        built: Optional[Dict[int, Optional[Term]]] = None,
    ) -> Optional[Term]:
        """The term the witness walk from ``class_id`` spells out, or
        ``None`` when the walk is cyclic or leaves the table.

        ``built`` memoizes results per raw class id for one ``table``
        and union-find state (the walk from an id is then fixed), so
        repeated builds share their subterms instead of re-walking.
        """
        if built is not None and class_id in built:
            return built[class_id]
        # The table may be one rebuild stale; try both the canonical id
        # and the raw id (one of a merged pair keeps its id as root).
        entry = table.get(self.find(class_id))
        if entry is None:
            entry = table.get(class_id)
        if entry is None:
            return None
        node = entry[1]
        if not node.children:
            term: Optional[Term] = enode_to_term_shallow(node.op, node.payload, ())
            if built is not None:
                built[class_id] = term
            return term
        # A stale table can walk in a cycle: a merge since the last
        # rebuild may have put a witness's child into the witness's own
        # class.  The walk from a witness is fixed, so meeting one again
        # on the current path means no finite term through this table.
        # The walk from a node on a cycle is cyclic wherever it starts,
        # so a ``None`` found mid-walk is also the standalone result.
        if path is None:
            path = set()
        elif id(node) in path:
            if built is not None:
                built[class_id] = None
            return None
        path.add(id(node))
        children = []
        for child in node.children:
            child_term = self._build_term(child, table, path, built)
            if child_term is None:
                if built is not None:
                    built[class_id] = None
                return None
            children.append(child_term)
        path.discard(id(node))
        term = enode_to_term_shallow(node.op, node.payload, tuple(children))
        if built is not None:
            built[class_id] = term
        return term

    def classes_by_op(self) -> Dict[str, List[int]]:
        """Map each operator tag to the classes containing an e-node
        with that tag.  Cached per generation; pattern search uses it to
        skip classes that cannot match a pattern's root."""
        cached = getattr(self, "_op_index_cache", None)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        index: Dict[str, List[int]] = {}
        for class_id, eclass in self._classes.items():
            seen_ops = {node.op for node in eclass.nodes}
            for op in seen_ops:
                index.setdefault(op, []).append(class_id)
        self._op_index_cache = (self.generation, index)
        return index

    def leaf_classes(self, op: str) -> List[int]:
        """Canonical ids of the classes holding an e-node tagged ``op``
        (one of :data:`INDEXED_LEAF_OPS`), in ascending id order, which
        is ``_classes`` order: callers see exactly what a scan over
        :meth:`classes` would yield.  Maintained incrementally, so it is
        valid between mutations, not only after :meth:`rebuild`."""
        return sorted(self._leaf_classes[op])

    def extract_candidates(
        self, class_id: int, limit: int = CANDIDATE_LIMIT
    ) -> List[Term]:
        """A few small distinct terms represented by ``class_id``.

        The smallest term comes first; the remainder vary the root
        e-node (children still use smallest subterms).  Rule appliers
        use these when matching shifted pattern variables: if the
        smallest representative mentions a forbidden bound variable, an
        alternative representative may still avoid it.

        Memoized per ``(find(class_id), limit)`` while ``version`` and
        ``generation`` stay put (a search phase); the returned list is
        shared and must not be mutated.
        """
        return self.unshifted_candidates(class_id, 0, limit)

    def unshifted_candidates(
        self, class_id: int, shift: int, limit: int = CANDIDATE_LIMIT
    ) -> List[Term]:
        """The ``try_unshift(candidate, shift)`` results over
        :meth:`extract_candidates`, in candidate order, skipping the
        candidates that mention one of the ``shift`` innermost bound
        variables — the distinct bindings of a pattern variable
        ``A↑…↑``.

        Shares the candidate memo (``shift == 0`` is the candidate list
        itself); the returned list must not be mutated.
        """
        memo = self._search_memo()
        key = (self.find(class_id), limit, shift)
        results = memo[1].get(key)
        if results is None:
            if shift == 0:
                results = self._compute_candidates(key[0], limit, memo[2])
            else:
                # The candidates are distinct and unshifting is
                # injective, so the results are distinct too.
                unshifted = (
                    try_unshift(candidate, shift)
                    for candidate in self.unshifted_candidates(key[0], 0, limit)
                )
                results = [term for term in unshifted if term is not None]
            memo[1][key] = results
        return results

    def drop_candidate_memo(self) -> None:
        """Release the search memo: the :meth:`extract_candidates`
        memo and the op groups of :meth:`match_view` (the runner calls
        this when a search phase ends)."""
        self._candidate_memo = None

    def _search_memo(self) -> _SearchMemo:
        """The search memo of the current ``(version, generation)``,
        made afresh when the graph changed since it was made."""
        stamp = (self.version, self.generation)
        memo = self._candidate_memo
        if memo is None or memo[0] != stamp:
            memo = self._candidate_memo = (stamp, {}, {}, {})
        return memo

    def match_view(self) -> MatchView:
        """The read surface of compiled e-matching programs over the
        graph as it is now; valid until the graph next changes.  Views
        made between two changes share one search memo."""
        memo = self._search_memo()
        return MatchView(
            self._uf.parents, self.find, memo[3], self._index_ops,
            memo[1], self.unshifted_candidates,
        )

    def _index_ops(self, class_id: int) -> OpGroups:
        """Group canonical class ``class_id``'s e-nodes by operator,
        each group in insertion order, and store the groups in the
        search memo (:attr:`MatchView.index_ops`)."""
        groups: OpGroups = {}
        for node in self._classes[class_id].nodes:
            group = groups.get(node[0])
            if group is None:
                groups[node[0]] = [node]
            else:
                group.append(node)
        self._search_memo()[3][class_id] = groups
        return groups

    def _compute_candidates(
        self,
        class_id: int,
        limit: int,
        built: Optional[Dict[int, Optional[Term]]] = None,
    ) -> List[Term]:
        """:meth:`extract_candidates` without the memo; ``built`` is
        the smallest-term memo of :meth:`_build_term`, shared by the
        candidate memo across one search phase."""
        table = self._size_table()
        if built is None:
            built = {}
        class_id = self.find(class_id)
        results: List[Term] = []
        smallest = self._build_term(class_id, table, built=built)
        if smallest is not None:
            results.append(smallest)
        if class_id not in self._classes:
            return results
        ranked = []
        for node in self._classes[class_id].nodes:
            size = 1
            ok = True
            for child in node.children:
                entry = table.get(self.find(child))
                if entry is None:
                    ok = False
                    break
                size += entry[0]
            if ok:
                ranked.append((size, node))
        ranked.sort(key=lambda pair: pair[0])
        for _, node in ranked:
            if len(results) >= limit:
                break
            children = []
            ok = True
            for child in node.children:
                child_term = self._build_term(child, table, built=built)
                if child_term is None:
                    ok = False
                    break
                children.append(child_term)
            if not ok:
                continue
            term = enode_to_term_shallow(node.op, node.payload, tuple(children))
            if term not in results:
                results.append(term)
        return results

    # ------------------------------------------------------------------
    # Equality checking helpers (used heavily by tests)
    # ------------------------------------------------------------------

    def equivalent(self, term_a: Term, term_b: Term) -> bool:
        """True when both terms are currently in the same e-class."""
        return self.same(self.add_term(term_a), self.add_term(term_b))
