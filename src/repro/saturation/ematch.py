"""Incremental e-matching: search only where the graph changed.

A fresh saturation step used to re-match every rule against every
e-class, even though most classes were untouched since the previous
step.  A new match can only appear where something changed:

* a class was *created* (its e-node is new);
* two classes were *merged* (a pattern's repeated-variable consistency
  check, ``f(?x, ?x)``, may newly succeed, and the merged class has the
  union of both node sets);
* a class's extracted representatives changed because a *descendant*
  changed (term-binding pattern variables, the paper's ``A↑`` shift
  matching, extract candidate terms).

In every case the changed class is a descendant-or-self of the new
match's root, so restricting the searched roots to the *dirty classes
and their transitive parent closure* is complete.  The only exception
is rules whose applier consults global context (the enumerating intro
rules with ``context_key``); the runner forces a full search for those
whenever their context fingerprint changes.

:class:`EGraph` feeds this module through its dirty-class log (see
``EGraph.pop_dirty``); :class:`IncrementalMatcher` accumulates dirt
per rule (rules banned by the scheduler miss steps and need the union
of everything since their last search) and falls back to a full scan
whenever the closure stops being selective.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Dict, FrozenSet, List, Optional, Set

from ..egraph.egraph import EGraph
from ..egraph.matcher import Key
from ..egraph.pattern import PNode
from ..egraph.rewrite import Rule

__all__ = ["parent_closure", "search_rule", "IncrementalMatcher"]

#: How often the searcher polls the deadline, in candidate classes.
_DEADLINE_STRIDE = 64


def parent_closure(egraph: EGraph, seeds: Set[int]) -> Set[int]:
    """Canonical ids of ``seeds`` plus all their transitive parents.

    Parent lists may hold stale (merged-away) class ids and duplicates;
    everything is canonicalized through the union-find on the way.
    """
    closure: Set[int] = set()
    stack = [egraph.find(class_id) for class_id in seeds]
    while stack:
        class_id = stack.pop()
        if class_id in closure:
            continue
        closure.add(class_id)
        for parent_id in egraph.parents_of(class_id):
            if parent_id not in closure:
                stack.append(parent_id)
    return closure


def search_rule(
    egraph: EGraph,
    rule: Rule,
    restrict: Optional[FrozenSet[int]] = None,
    deadline: Optional[float] = None,
) -> List[Key]:
    """The keys of all matches of ``rule`` rooted in ``restrict`` (or
    anywhere when ``restrict`` is ``None``), honoring the rule's
    ``match_limit``.  A key is the flat tuple its compiled program
    yields (:class:`~repro.egraph.matcher.CompiledPattern`).

    Candidate order is the same insertion order a full scan would use,
    so a restricted search applies new matches in exactly the order the
    naive engine would have.  ``deadline`` (a ``perf_counter`` value)
    aborts the scan early so one enormous search cannot overshoot the
    run's time limit; partial results are still valid matches.
    """
    keys: List[Key] = []
    program = rule.compiled.program
    view = egraph.match_view()
    parents = view.parents
    limit = rule.match_limit
    root_op = rule.searcher.op if isinstance(rule.searcher, PNode) else None
    if root_op is None:
        candidates = egraph.class_ids()
    else:
        candidates = egraph.classes_by_op().get(root_op, [])
    for index, class_id in enumerate(candidates):
        if deadline is not None and index % _DEADLINE_STRIDE == 0:
            if time.perf_counter() > deadline:
                break
        # A root id is exactly a live class id.
        if parents[class_id] != class_id:
            continue  # merged away since the op index was built
        if restrict is not None and class_id not in restrict:
            continue
        keys.extend(islice(program(view, class_id), limit - len(keys)))
        if len(keys) >= limit:
            return keys
    return keys


class IncrementalMatcher:
    """Per-rule dirty-set bookkeeping for one saturation run.

    Every step the runner pops the e-graph's newly dirtied classes and
    :meth:`begin_step` folds them into each rule's pending set.  When a
    rule searches, :meth:`restrict_for` hands back the parent closure
    of its pending dirt — or ``None`` (meaning *full search*) when the
    rule has never searched, was forced full (ban lifted, context
    changed), or the closure covers so much of the graph that
    restriction would not pay (the rebuild-heavy fallback).
    """

    def __init__(
        self,
        egraph: EGraph,
        rule_count: int,
        full_fraction: float = 0.6,
    ) -> None:
        self.egraph = egraph
        self.full_fraction = full_fraction
        self._pending: List[Set[int]] = [set() for _ in range(rule_count)]
        # Every rule's first search must be a full scan.
        self._full: List[bool] = [True] * rule_count
        # Closures computed this step, shared by rules whose pending
        # sets coincide (the common case: every un-banned rule).
        self._closure_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        #: Statistics: how many searches ran restricted vs full.
        self.restricted_searches = 0
        self.full_searches = 0

    def begin_step(self) -> None:
        """Fold the classes dirtied since the previous step into every
        rule's pending set."""
        dirty = self.egraph.pop_dirty()
        self._closure_cache.clear()
        if dirty:
            for pending in self._pending:
                pending |= dirty

    def force_full(self, rule_index: int) -> None:
        """The rule's next search must be a full scan (ban lifted or
        applier context changed)."""
        self._full[rule_index] = True

    def force_full_all(self) -> None:
        for index in range(len(self._full)):
            self._full[index] = True

    def restrict_for(self, rule_index: int) -> Optional[FrozenSet[int]]:
        """Root restriction for the rule's next search, or ``None`` for
        a full scan.  Call :meth:`note_searched` once the search ran."""
        if self._full[rule_index]:
            return None
        key = frozenset(self._pending[rule_index])
        closure = self._closure_cache.get(key)
        if closure is None:
            closure = frozenset(parent_closure(self.egraph, key))
            self._closure_cache[key] = closure
        if len(closure) >= self.full_fraction * max(1, self.egraph.num_classes):
            return None  # rebuild-heavy step: restriction would not pay
        return closure

    def note_searched(self, rule_index: int, restricted: bool) -> None:
        """Record that the rule searched this step (full or restricted):
        its pending dirt is consumed either way."""
        self._pending[rule_index].clear()
        self._full[rule_index] = False
        if restricted:
            self.restricted_searches += 1
        else:
            self.full_searches += 1
