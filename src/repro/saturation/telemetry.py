"""Per-rule and per-phase telemetry for saturation runs.

The paper's evaluation reasons about saturation cost only in aggregate
(e-nodes and seconds per step).  Tuning rule sets needs finer grain:
which rule burns the search time, which one floods the graph with
matches, which one actually produces the unions that lead to the
extracted idiom.  :class:`RuleStats` records exactly that per rule,
:class:`PhaseTimings` splits each step into the engine's four phases
(search / apply / rebuild / extract), and both serialize to plain
dicts so they can travel on :class:`~repro.api.types.OptimizationReport`
JSON and the CLI's ``--rule-profile`` dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = [
    "RuleStats",
    "PhaseTimings",
    "rule_stats_to_dict",
    "rule_stats_from_dict",
    "aggregate_rule_stats",
    "aggregate_phase_seconds",
]


@dataclass
class RuleStats:
    """Lifetime counters for one rule across a whole saturation run."""

    name: str
    #: Seconds spent e-matching this rule's searcher.
    search_seconds: float = 0.0
    #: Number of steps in which the rule was searched.
    searches: int = 0
    #: Raw matches the searcher produced (before dedup/scheduling).
    matches_found: int = 0
    #: Matches that survived dedup + scheduling and were applied.
    matches_applied: int = 0
    #: Unions those applications performed.
    unions: int = 0
    #: Wall seconds applying those matches (each contiguous block of
    #: the rule's matches in a step's apply list is timed once).
    apply_seconds: float = 0.0
    #: E-nodes those applications inserted.
    nodes_added: int = 0
    #: Applications that inserted an e-node or made a union; the rest
    #: of ``matches_applied`` changed nothing.
    effective_applications: int = 0
    #: Times the scheduler banned the rule (backoff only).
    bans: int = 0
    #: Steps skipped while banned.
    banned_steps: int = 0
    #: Union/creation events by this rule that touched an e-class of a
    #: recorded (per-step) extracted solution — rule provenance, fed
    #: from :mod:`repro.extraction.provenance`.  Distinguishes
    #: solution-bearing unions from dead-end ones; the provenance-aware
    #: pruning mode never drops a rule with a non-zero count here.
    solution_unions: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "search_seconds": self.search_seconds,
            "searches": self.searches,
            "matches_found": self.matches_found,
            "matches_applied": self.matches_applied,
            "unions": self.unions,
            "apply_seconds": self.apply_seconds,
            "nodes_added": self.nodes_added,
            "effective_applications": self.effective_applications,
            "bans": self.bans,
            "banned_steps": self.banned_steps,
            "solution_unions": self.solution_unions,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RuleStats":
        return cls(**dict(data))

    def add(self, other: "RuleStats") -> None:
        """Accumulate another run's counters for the same rule."""
        self.search_seconds += other.search_seconds
        self.searches += other.searches
        self.matches_found += other.matches_found
        self.matches_applied += other.matches_applied
        self.unions += other.unions
        self.apply_seconds += other.apply_seconds
        self.nodes_added += other.nodes_added
        self.effective_applications += other.effective_applications
        self.bans += other.bans
        self.banned_steps += other.banned_steps
        self.solution_unions += other.solution_unions


@dataclass
class PhaseTimings:
    """Wall-clock split of one saturation step (or a whole run).

    ``search`` is wall-clock time of the search phase; ``search_cpu``
    is the summed per-rule matching seconds.  ``search - search_cpu``
    is therefore the share of the search phase spent outside every
    rule's matcher: signature dedup, match admission and bookkeeping
    (the ``search.dedup`` span).
    """

    search: float = 0.0
    apply: float = 0.0
    rebuild: float = 0.0
    extract: float = 0.0
    search_cpu: float = 0.0

    @property
    def total(self) -> float:
        return self.search + self.apply + self.rebuild + self.extract

    def to_dict(self) -> dict:
        return {
            "search": self.search,
            "apply": self.apply,
            "rebuild": self.rebuild,
            "extract": self.extract,
            "search_cpu": self.search_cpu,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PhaseTimings":
        # Tolerate dicts written before a field existed.
        return cls(**{k: float(v) for k, v in dict(data).items()})

    def add(self, other: "PhaseTimings") -> None:
        self.search += other.search
        self.apply += other.apply
        self.rebuild += other.rebuild
        self.extract += other.extract
        self.search_cpu += other.search_cpu


def rule_stats_to_dict(stats: Mapping[str, RuleStats]) -> Dict[str, dict]:
    """Serialize a ``rule name → RuleStats`` mapping (sorted for stable
    JSON output)."""
    return {name: stats[name].to_dict() for name in sorted(stats)}


def rule_stats_from_dict(data: Optional[Mapping[str, Mapping]]) -> Dict[str, RuleStats]:
    if not data:
        return {}
    return {name: RuleStats.from_dict(entry) for name, entry in data.items()}


def aggregate_rule_stats(
    runs: "list[Mapping[str, Mapping]]",
) -> Dict[str, dict]:
    """Sum serialized per-rule stats across runs (the ``--rule-profile``
    aggregate section)."""
    totals: Dict[str, RuleStats] = {}
    for run_stats in runs:
        for name, entry in (run_stats or {}).items():
            merged = totals.setdefault(name, RuleStats(name))
            merged.add(RuleStats.from_dict(entry))
    return rule_stats_to_dict(totals)


def aggregate_phase_seconds(
    runs: "list[Optional[Mapping[str, float]]]",
) -> Dict[str, float]:
    """Sum serialized per-run ``phase_seconds`` dicts across runs (the
    ``--rule-profile`` ``aggregate_phase_seconds`` section).  Runs
    without phase telemetry (``None``, pre-telemetry cache entries)
    contribute nothing; keys are the union of whatever phases the runs
    recorded, so dicts written before a phase existed still sum."""
    totals: Dict[str, float] = {}
    for phases in runs:
        for key, value in (phases or {}).items():
            totals[key] = totals.get(key, 0.0) + float(value)
    return {key: totals[key] for key in sorted(totals)}
