"""The saturation engine: scheduled, incremental, instrumented.

One *saturation step* (the paper's unit of progress, §II-b) consists of
searching rules against the e-graph, applying the admitted batch of
matches, and rebuilding the congruence closure.  After each step the
runner can extract the current best expression with a target cost
model, which is how the paper's "solutions over time" data (fig. 4)
and per-step tables are produced.

On top of the naive search-everything loop this engine adds the three
pillars of the saturation subsystem:

* **rule scheduling** (:mod:`repro.saturation.schedulers`) — an
  egg-style backoff scheduler can ban explosive rules, selected via
  ``Limits(scheduler=...)`` / ``REPRO_SCHEDULER`` / ``--scheduler``;
* **incremental e-matching** (:mod:`repro.saturation.ematch`) — from
  step 2 on, rule search is restricted to the classes dirtied since
  the rule's previous search plus their parent closure, with full-scan
  fallbacks whenever correctness or selectivity demands it;
* **telemetry** (:mod:`repro.saturation.telemetry`) — per-rule search
  time / match / union / ban counters and per-step phase timings ride
  on :class:`StepRecord` / :class:`RunResult` and surface in the
  Session API's JSON reports.

Stop conditions: fixpoint (a full step changed nothing and no rule is
banned), step limit, e-node limit, or wall-clock time limit — the time
limit is enforced *inside* the search and apply loops, so one huge
step cannot overshoot the budget.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..ir.terms import Term, collect_calls
from ..egraph.egraph import EGraph
from ..extraction import CostModel, contributing_events, make_extractor
from ..egraph.rewrite import Match, Rule
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import CAT_EXTRACT, CAT_PHASE, CAT_RULE, CAT_STEP, NULL_TRACER, Tracer
from .ematch import IncrementalMatcher, search_rule
from .schedulers import RuleScheduler, make_scheduler
from .telemetry import PhaseTimings, RuleStats

__all__ = [
    "StepRecord",
    "RunResult",
    "Runner",
    "StopReason",
    "library_calls_of",
    "SCALAR_OPS",
]

#: How many applications between deadline polls in the apply loop.
_APPLY_DEADLINE_STRIDE = 16


class AppliedSet:
    """Keys of the matches applied so far, so the same rule is not
    re-applied to the same match every step.

    A match's signature is ``(rule_index, context, key)``: the key its
    compiled program yielded (:class:`~repro.egraph.matcher.CompiledPattern`)
    under the rule's applier context.  A rule's variables, their order
    and their modes are fixed when it is compiled, so equal keys of one
    rule are exactly the matches with equal bindings.  Keys are stored
    per ``(rule_index, context)`` group.

    Keys are captured at match time; after later merges their class ids
    go stale and the same logical match would look unseen forever.
    :meth:`canonicalize` brings the set up to date after a rebuild.  An
    index from each class id to the keys holding it (at one of its
    rule's ``class_positions``) lets it visit only the ids that stopped
    being union-find roots and re-canonicalize only their keys: the
    others hold roots only, which ``find`` leaves as they are.
    """

    __slots__ = ("_positions", "_groups", "_mentions", "_size")

    def __init__(self, class_positions: Sequence[Tuple[int, ...]]) -> None:
        # Per rule index, the key positions that hold class ids.
        self._positions = class_positions
        self._groups: Dict[tuple, Set[tuple]] = {}
        # class id -> (group, key) entries whose key holds it.  Lists,
        # appended to without hashing; an entry whose key has since been
        # re-canonicalized away is skipped when its id goes stale.
        self._mentions: Dict[int, List[Tuple[tuple, tuple]]] = defaultdict(list)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def fresh(self, rule_index: int, context: object, keys: Sequence[tuple]) -> List[tuple]:
        """``keys`` in first-seen order, without repeats and without the
        keys applied already under ``context``."""
        unique = dict.fromkeys(keys)
        done = self._groups.get((rule_index, context))
        if not done:
            return list(unique)
        return [key for key in unique if key not in done]

    def add(self, rule_index: int, context: object, keys: Sequence[tuple]) -> None:
        """Record ``keys`` as applied under ``context``."""
        group_id = (rule_index, context)
        group = self._groups.get(group_id)
        if group is None:
            group = self._groups[group_id] = set()
        positions = self._positions[rule_index]
        mentions = self._mentions
        for key in keys:
            # One hash per key: a key already present leaves the size.
            size = len(group)
            group.add(key)
            if len(group) == size:
                continue
            self._size += 1
            entry = (group_id, key)
            for position in positions:
                mentions[key[position]].append(entry)

    def clear(self) -> None:
        self._groups.clear()
        self._mentions.clear()
        self._size = 0

    def canonicalize(self, find: Callable[[int], int]) -> None:
        """Re-canonicalize every key through ``find``; keys that become
        equal collapse into one."""
        mentions = self._mentions
        groups = self._groups
        stale = [class_id for class_id in mentions if find(class_id) != class_id]
        affected = {
            entry
            for class_id in stale
            for entry in mentions.pop(class_id)
            if entry[1] in groups[entry[0]]
        }
        for group_id, key in affected:
            groups[group_id].discard(key)
        self._size -= len(affected)
        # Canonical keys hold roots only, so none of them equals a key
        # being replaced; one may equal a kept key.
        for group_id, key in affected:
            canonical = list(key)
            for position in self._positions[group_id[0]]:
                canonical[position] = find(canonical[position])
            self.add(group_id[0], group_id[1], (tuple(canonical),))


class _HeapFreeze:
    """Keeps the cyclic garbage collector off the e-graphs of live runs.

    A saturation run allocates a large, long-lived and acyclic object
    graph (e-nodes, classes, terms), so every full collection rescans a
    heap that only grows, and frees nothing: refcounting already frees
    what dies.  Two measures follow from that.  :meth:`enter` disables
    automatic collection when the first active run in the process
    starts, so no collection runs mid-phase (one search phase allocates
    enough candidate terms, matches and signatures to trigger full
    collections); :meth:`leave` restores the caller's prior
    ``gc.isenabled()`` state when the last active run ends.  And
    :meth:`freeze` (called after each step's rebuild) collects the
    youngest generation once, then moves every tracked object into the
    permanent generation, which collections skip, so no later
    collection rescans the graph.  With the collector off, every object
    allocated since the previous step boundary (or since the off period
    began) is in the youngest generation, and nothing older is, so that
    one cheap collection bounds how long cyclic garbage waits:
    overlapping runs (serve queue threads, threaded library callers)
    can keep the collector off indefinitely, and the garbage other
    threads make meanwhile goes at the next step boundary of any run
    rather than when the load stops.  :meth:`leave` unfreezes
    once the last run ends, so frozen objects do not outlive the runs
    that needed the freeze.  The count of active runs is shared by
    concurrent runs, hence the lock.  A child forked mid-run (a run-level pool
    worker) starts with no active run but keeps the inherited heap
    frozen: unfreezing it would have the child's next full collection
    touch, and so copy, every inherited page.  The first run to end in
    the child unfreezes it.  The child does get the collector back as
    the parent's caller had it: frozen objects are skipped anyway.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        # gc.isenabled() when the first active run started.
        self._was_enabled = True

    def enter(self) -> None:
        with self._lock:
            if not self._active:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._active += 1

    def freeze(self) -> None:
        # Outside the lock: finalizers of collected objects run here.
        gc.collect(0)
        with self._lock:
            if self._active:
                gc.freeze()

    def leave(self) -> None:
        with self._lock:
            self._active -= 1
            if not self._active:
                gc.unfreeze()
                if self._was_enabled:
                    gc.enable()

    def after_fork_in_child(self) -> None:
        # The runs of the parent's threads do not continue in the child,
        # and the lock may have been held by one of them at the fork.
        self._lock = threading.Lock()
        if self._active and self._was_enabled:
            gc.enable()
        self._active = 0


_HEAP_FREEZE = _HeapFreeze()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HEAP_FREEZE.after_fork_in_child)


class StopReason:
    SATURATED = "saturated"
    STEP_LIMIT = "step_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass
class StepRecord:
    """Statistics and the best solution after one saturation step.

    ``step`` 0 records the initial e-graph before any rewriting (the
    paper's step-0 data points in fig. 4).
    """

    step: int
    enodes: int
    eclasses: int
    seconds: float
    matches: int
    unions: int
    best_term: Optional[Term] = None
    best_cost: float = float("inf")
    library_calls: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock split of the step (search/apply/rebuild/extract);
    #: ``None`` on the step-0 record.
    phases: Optional[PhaseTimings] = None
    #: Names of the rules whose unions/creations touched a class of
    #: this step's extracted solution (rule provenance; empty on the
    #: step-0 record and when no cost model extracts).
    solution_rules: tuple = ()

    @property
    def solution_summary(self) -> str:
        """Human-readable call summary, e.g. ``"2 × axpy, 1 × dot"``."""
        if not self.library_calls:
            return "(no library calls)"
        parts = [
            f"{count} × {name}"
            for name, count in sorted(self.library_calls.items())
        ]
        return ", ".join(parts)


@dataclass
class RunResult:
    """Everything a saturation run produced."""

    steps: List[StepRecord]
    stop_reason: str
    root_class: int
    #: Per-rule telemetry, keyed by rule name.
    rule_stats: Dict[str, RuleStats] = field(default_factory=dict)
    #: Name of the scheduler that drove the run.
    scheduler: str = "simple"
    #: Name of the extractor that produced the per-step solutions.
    extractor: str = "greedy"

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    @property
    def solution_rules(self) -> tuple:
        """Provenance of the final solution (see StepRecord)."""
        return self.final.solution_rules

    @property
    def num_steps(self) -> int:
        """Number of rewriting steps performed (excludes the step-0 record)."""
        return len(self.steps) - 1

    def total_phases(self) -> PhaseTimings:
        """Phase timings summed over every step."""
        total = PhaseTimings()
        for record in self.steps:
            if record.phases is not None:
                total.add(record.phases)
        return total


# Named functions that are *not* library calls: scalar arithmetic and
# comparisons live in every target.
SCALAR_OPS = frozenset({"+", "-", "*", "/", ">", "<", ">=", "<=", "==", "max", "min", "neg"})


def library_calls_of(term: Optional[Term]) -> Dict[str, int]:
    """Count library calls (non-scalar named functions) in a term."""
    if term is None:
        return {}
    return {
        name: count
        for name, count in collect_calls(term).items()
        if name not in SCALAR_OPS
    }


class Runner:
    """Drives equality saturation over an :class:`EGraph`."""

    def __init__(
        self,
        egraph: EGraph,
        rules: Sequence[Rule],
        *,
        step_limit: int = 12,
        node_limit: int = 50_000,
        time_limit: float = 300.0,
        scheduler: Union[str, RuleScheduler, None] = None,
        incremental: bool = True,
        applied_cap: int = 500_000,
        extractor: Union[str, type, None] = None,
        check: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.egraph = egraph
        self.rules = list(rules)
        self.step_limit = step_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.scheduler = scheduler
        # Per-step extraction strategy; resolved eagerly so a typo'd
        # name fails at construction, not on the first record.
        self.extractor_cls = make_extractor(extractor)
        # ``incremental=False`` searches every rule over the whole graph
        # each step: the full-scan reference the incremental matcher is
        # tested against.
        self.incremental = incremental
        # The applied-match cache is cleared when it outgrows this;
        # re-application is semantically idempotent, so the bound trades
        # a little rework for bounded memory on enormous runs.
        self.applied_cap = applied_cap
        # Observability (repro.obs): both default to the shared no-op
        # forms, so the instrumentation below costs nothing unless a
        # caller opted in via Limits(trace=..., metrics=True).  Phase
        # timings are *derived from the tracer's phase spans* — one
        # clock discipline whether or not the trace is retained.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Step-boundary hooks, called as ``hook(runner, step, record)``
        # after each step's record lands (telemetry, tracing, the
        # invariant verifier all attach here).  A hook that raises
        # aborts the run.
        self.on_step_end: List[Callable[["Runner", int, StepRecord], None]] = []
        if check:
            from ..check.egraph import verify_or_raise

            self.on_step_end.append(
                lambda runner, step, _record: verify_or_raise(
                    runner.egraph, context=f"after step {step}"
                )
            )

    def run(
        self,
        root_class: int,
        cost_model: Optional[CostModel] = None,
        extract_each_step: bool = True,
    ) -> RunResult:
        """Saturate, recording statistics (and, when a cost model is
        given, the best expression) after every step."""
        egraph = self.egraph
        scheduler = make_scheduler(self.scheduler)
        stats = self._fresh_stats()
        matcher = (
            IncrementalMatcher(egraph, len(self.rules))
            if self.incremental else None
        )
        contexts: List[object] = [None] * len(self.rules)
        records: List[StepRecord] = []
        # Union of every recorded solution's provenance events, keyed
        # by rule telemetry name; event indices dedup contributions
        # shared between steps (see repro.extraction.provenance).
        contributed: Dict[str, Set[int]] = {}
        start = time.perf_counter()
        deadline = start + self.time_limit
        records.append(self._record(
            0, 0.0, 0, 0, root_class, cost_model, extract_each_step,
            contributed,
        ))
        stop_reason = StopReason.STEP_LIMIT
        applied = AppliedSet([rule.compiled.class_positions for rule in self.rules])
        _HEAP_FREEZE.enter()
        try:
            stop_reason = self._run_steps(
                egraph, scheduler, matcher, contexts, applied,
                stats, records, contributed, root_class, cost_model,
                extract_each_step, deadline,
            )
        finally:
            _HEAP_FREEZE.leave()
        # Provenance feeds telemetry: how many of each rule's logged
        # events touched a class of any recorded per-step solution.
        for rule_stats in stats:
            events = contributed.get(rule_stats.name)
            if events:
                rule_stats.solution_unions = len(events)
        m = self.metrics
        if m.enabled:
            m.set("runner", "stop_reason", 1,
                  help="why the run stopped (label carries the reason)",
                  reason=stop_reason)
            m.set("store", "enodes", egraph.num_nodes,
                  help="e-nodes in the final graph")
            m.set("store", "eclasses", egraph.num_classes,
                  help="canonical e-classes in the final graph")
            slots = len(egraph._slot_form)
            m.set("store", "slots", slots,
                  help="allocated flat-store slots")
            m.set("store", "slot_occupancy",
                  egraph.num_nodes / slots if slots else 0.0,
                  help="live e-nodes per allocated slot")
        return RunResult(
            records,
            stop_reason,
            self.egraph.find(root_class),
            rule_stats={s.name: s for s in stats},
            scheduler=scheduler.name,
            extractor=self.extractor_cls.name,
        )

    def _run_steps(
        self,
        egraph: EGraph,
        scheduler: RuleScheduler,
        matcher: Optional[IncrementalMatcher],
        contexts: List[object],
        applied: AppliedSet,
        stats: List["RuleStats"],
        records: List[StepRecord],
        contributed: Dict[str, Set[int]],
        root_class: int,
        cost_model,
        extract_each_step: bool,
        deadline: float,
    ) -> str:
        stop_reason = StopReason.STEP_LIMIT
        tracer = self.tracer
        m = self.metrics
        for step in range(1, self.step_limit + 1):
            phases = PhaseTimings()
            step_span = tracer.span(f"step {step}", cat=CAT_STEP)
            step_span.__enter__()
            version_before = egraph.version

            # --- search -------------------------------------------------
            # Phase walls are read off the tracer's phase spans (which
            # measure whether or not the trace is retained): the spans
            # are the single clock, PhaseTimings their consumer.
            with tracer.span("search", cat=CAT_PHASE) as search_span:
                if matcher is not None:
                    matcher.begin_step()
                matches, restricted, timed_out = self._search_step(
                    step, scheduler, matcher, contexts, applied,
                    stats, deadline, phases,
                )
                if (
                    matcher is not None and restricted and not matches
                    and not timed_out
                ):
                    # A restricted step that finds nothing could be a false
                    # fixpoint; verify with a full scan inside the same step
                    # so step counts match the naive engine's.
                    matcher.force_full_all()
                    matches, _, timed_out = self._search_step(
                        step, scheduler, matcher, contexts, applied,
                        stats, deadline, phases, verify_pass=True,
                    )
                    restricted = False
                # Candidate terms memoized for this phase's matching go
                # stale with the first mutation; release them now.
                egraph.drop_candidate_memo()
            phases.search = search_span.duration

            # --- apply --------------------------------------------------
            apply_span = tracer.span("apply", cat=CAT_PHASE)
            apply_span.__enter__()
            unions = 0
            # Matches arrive as one block of keys per rule: each block is
            # timed once and its node growth read off num_nodes (merges
            # do not change it before the rebuild).  A match's bindings
            # are built only when it is applied.
            admitted = sum(len(keys) for _, _, keys in matches)
            index = 0
            halted = False
            for rule_stats, rule, keys in matches:
                # Tag mutations with the applying rule so the e-graph's
                # union-origin log can attribute them (provenance).
                egraph.origin_tag = rule_stats.name
                bindings = rule.compiled.bindings
                block_started, block_nodes = time.perf_counter(), egraph.num_nodes
                for key in keys:
                    if (
                        index % _APPLY_DEADLINE_STRIDE == 0
                        and time.perf_counter() > deadline
                    ):
                        timed_out = halted = True
                        break
                    index += 1
                    version = egraph.version
                    made = rule.apply(egraph, Match(key[0], bindings(key)))
                    rule_stats.matches_applied += 1
                    if egraph.version != version:
                        rule_stats.effective_applications += 1
                        rule_stats.unions += made
                        unions += made
                        if egraph.num_nodes > self.node_limit:
                            halted = True
                            break
                rule_stats.apply_seconds += time.perf_counter() - block_started
                rule_stats.nodes_added += egraph.num_nodes - block_nodes
                if halted:
                    break
            egraph.origin_tag = None
            # Terms spliced in this phase are dead once it ends.
            egraph.drop_term_memo()
            # So are the matches: let refcounting free them before the
            # step boundary's collection would have to scan them.
            del matches
            apply_span.done()
            phases.apply = apply_span.duration

            # --- rebuild ------------------------------------------------
            # Sub-phase spans: congruence repair and analysis propagation
            # (inside EGraph.rebuild), then the applied signatures.
            with tracer.span("rebuild", cat=CAT_PHASE) as rebuild_span:
                congruence_unions = egraph.rebuild(tracer.span)
                with tracer.span("rebuild.signatures", cat=CAT_PHASE):
                    if unions or congruence_unions:
                        # Some class ids went stale: re-canonicalize the
                        # stored signatures so later merges cannot
                        # resurrect matches.  A step with zero unions left
                        # the union-find untouched.
                        applied.canonicalize(egraph.find)
                    if len(applied) > self.applied_cap:
                        applied.clear()
            phases.rebuild = rebuild_span.duration
            # Collect what is not frozen yet, then keep collections off
            # the graph, which only grows.
            _HEAP_FREEZE.freeze()

            # --- record (+ extract) ------------------------------------
            with tracer.span("extract", cat=CAT_EXTRACT) as extract_span:
                record = self._record(
                    step, 0.0, admitted, unions, root_class, cost_model,
                    extract_each_step, contributed,
                )
            phases.extract = extract_span.duration
            step_span.set(
                matches=admitted, unions=unions, enodes=egraph.num_nodes,
            )
            step_span.done()
            record.seconds = step_span.duration
            record.phases = phases
            records.append(record)
            if m.enabled:
                m.inc("runner", "steps_total",
                      help="saturation steps executed")
                m.inc("runner", "matches_total", admitted,
                      help="matches admitted for application")
                m.inc("runner", "unions_total", unions,
                      help="unions performed by rule applications")
                m.inc("store", "rebuild_repairs_total", congruence_unions,
                      help="congruence-induced unions during rebuild")
                m.set_max("store", "peak_enodes", egraph.num_nodes,
                          help="highest e-node count any step reached")
                m.observe("runner", "step_seconds", record.seconds,
                          help="wall seconds per saturation step")
            for hook in self.on_step_end:
                hook(self, step, record)

            # --- stop conditions ---------------------------------------
            if egraph.version == version_before and not timed_out:
                if scheduler.has_bans():
                    # Not a true fixpoint: banned rules may still have
                    # work.  Lift every ban and run another step.
                    scheduler.unban_all()
                    if matcher is not None:
                        matcher.force_full_all()
                    continue
                if restricted:
                    # Applied matches were all no-ops but the search was
                    # restricted; re-verify with a full step before
                    # declaring saturation.
                    matcher.force_full_all()
                    continue
                stop_reason = StopReason.SATURATED
                break
            if egraph.num_nodes > self.node_limit:
                stop_reason = StopReason.NODE_LIMIT
                break
            if timed_out or time.perf_counter() > deadline:
                stop_reason = StopReason.TIME_LIMIT
                break
        return stop_reason

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _fresh_stats(self) -> List[RuleStats]:
        """One RuleStats per rule, with duplicate names disambiguated so
        the name-keyed telemetry dict never silently merges two rules."""
        seen: Dict[str, int] = {}
        stats: List[RuleStats] = []
        for rule in self.rules:
            count = seen.get(rule.name, 0)
            seen[rule.name] = count + 1
            name = rule.name if count == 0 else f"{rule.name}#{count + 1}"
            stats.append(RuleStats(name))
        return stats

    def _search_step(
        self,
        step: int,
        scheduler: RuleScheduler,
        matcher: Optional[IncrementalMatcher],
        contexts: List[object],
        applied: AppliedSet,
        stats: List[RuleStats],
        deadline: float,
        phases: PhaseTimings,
        verify_pass: bool = False,
    ) -> Tuple[List[Tuple[RuleStats, Rule, List[tuple]]], bool, bool]:
        """Search every schedulable rule once.

        The step runs *plan → execute → commit*, each stage in
        canonical rule order: planning makes every scheduling and
        restriction decision, execution runs the (read-only) searches,
        and the commit stage folds their results in — telemetry, dedup
        against applied matches, and match admission.

        Returns ``(matches, any_restricted, timed_out)`` where
        ``matches`` carries one ``(rule_stats, rule, keys)`` block per
        rule with admitted matches, the keys committed to ``applied``.
        The fixpoint verification re-search (``verify_pass``) performs
        real work — its search time and match counts accumulate — but
        must not count the same step as banned twice.
        """
        egraph = self.egraph
        m = self.metrics
        matches: List[Tuple[RuleStats, Rule, List[tuple]]] = []
        any_restricted = False
        timed_out = False

        # --- plan: scheduling + restriction decisions, in rule order --
        tasks: List[Tuple[int, Optional[FrozenSet[int]]]] = []
        for rule_index, rule in enumerate(self.rules):
            if time.perf_counter() > deadline:
                timed_out = True
                break
            rule_stats = stats[rule_index]
            if not scheduler.should_search(step, rule_index, rule):
                if not verify_pass:
                    rule_stats.banned_steps += 1
                    if m.enabled:
                        m.inc("runner", "banned_steps_total",
                              help="rule-steps skipped under a backoff ban",
                              rule=rule_stats.name)
                if matcher is not None:
                    # The rule missed this step's matches; its next
                    # search must be a full scan.
                    matcher.force_full(rule_index)
                continue
            context = rule.context_key(egraph) if rule.context_key else None
            if matcher is not None and context != contexts[rule_index]:
                # Applier output depends on e-graph context beyond the
                # match (the enumerating intro rules); a changed context
                # can create matches anywhere.
                matcher.force_full(rule_index)
            contexts[rule_index] = context
            restrict = None
            if matcher is not None and step >= 2:
                restrict = matcher.restrict_for(rule_index)
            any_restricted |= restrict is not None
            tasks.append((rule_index, restrict))

        # --- execute: the read-only searches ----------------------------
        trace = self.tracer.enabled
        outcomes: List[Tuple[float, List[tuple]]] = []
        for rule_index, restrict in tasks:
            rule = self.rules[rule_index]
            started = time.perf_counter()
            found = search_rule(egraph, rule, restrict, deadline)
            seconds = time.perf_counter() - started
            outcomes.append((seconds, found))
            if trace:
                # Rules are timed anyway; record the span after the fact
                # instead of wrapping the hot loop.
                self.tracer.add_complete(
                    f"search:{rule.name}", CAT_RULE, started, seconds,
                    matches=len(found),
                )
        if tasks and time.perf_counter() > deadline:
            # Searches past the deadline abort early and return partial
            # (possibly empty) match lists; without this flag an
            # empty-handed truncated step could masquerade as a
            # fixpoint and stop the run as SATURATED.
            timed_out = True

        # --- commit: telemetry, dedup, admission — in rule order ------
        # Its own span: dedup and applied-set probes are search-phase
        # time outside every rule's search_seconds.
        dedup_span = self.tracer.span("search.dedup", cat=CAT_PHASE)
        dedup_span.__enter__()
        for (rule_index, restrict), (seconds, found) in zip(tasks, outcomes):
            rule = self.rules[rule_index]
            rule_stats = stats[rule_index]
            rule_stats.search_seconds += seconds
            phases.search_cpu += seconds
            rule_stats.searches += 1
            rule_stats.matches_found += len(found)
            if m.enabled:
                m.observe("runner", "rule_search_seconds", seconds,
                          help="per-rule e-matching wall seconds",
                          rule=rule_stats.name)
            if matcher is not None:
                matcher.note_searched(rule_index, restrict is not None)
            context = contexts[rule_index]
            # Dedup against everything already applied *before* the
            # scheduler counts: the match budget meters new work, not
            # the rediscovery of old matches.
            fresh = applied.fresh(rule_index, context, found)
            admitted = scheduler.admit_matches(step, rule_index, rule, fresh)
            if not admitted and fresh:
                # Banned: the discarded matches must be re-found once
                # the ban lifts.
                rule_stats.bans += 1
                if m.enabled:
                    m.inc("runner", "bans_total",
                          help="backoff bans issued",
                          rule=rule_stats.name)
                if matcher is not None:
                    matcher.force_full(rule_index)
                continue
            if admitted:
                applied.add(rule_index, context, admitted)
                matches.append((rule_stats, rule, admitted))
        dedup_span.done()
        return matches, any_restricted, timed_out

    def _record(
        self,
        step: int,
        seconds: float,
        matches: int,
        unions: int,
        root_class: int,
        cost_model: Optional[CostModel],
        extract_each_step: bool,
        contributed: Optional[Dict[str, Set[int]]] = None,
    ) -> StepRecord:
        record = StepRecord(
            step=step,
            enodes=self.egraph.num_nodes,
            eclasses=self.egraph.num_classes,
            seconds=seconds,
            matches=matches,
            unions=unions,
        )
        if cost_model is not None and extract_each_step:
            # Sub-phase spans, like rebuild's: the cost fixpoint, reading
            # the best term off it, and the provenance walk.
            span = self.tracer.span
            with span("extract.costs", cat=CAT_EXTRACT):
                extractor = self.extractor_cls(self.egraph, cost_model)
            with span("extract.term", cat=CAT_EXTRACT):
                result = extractor.extract(root_class)
            record.best_term = result.term
            record.best_cost = result.cost
            if self.metrics.enabled:
                self.metrics.inc(
                    "extraction", "extractions_total",
                    help="per-step extractions performed",
                    extractor=self.extractor_cls.name,
                )
                self.metrics.set(
                    "extraction", "best_cost", float(result.cost),
                    help="cost of the most recent extracted solution",
                )
            record.library_calls = library_calls_of(result.term)
            with span("extract.provenance", cat=CAT_EXTRACT):
                if result.chosen:
                    events = contributing_events(self.egraph, result.chosen)
                    record.solution_rules = tuple(sorted(events))
                    if contributed is not None:
                        for name, indices in events.items():
                            contributed.setdefault(name, set()).update(indices)
        return record
