"""The saturation engine subsystem.

Everything that drives an equality-saturation run lives here:

* :mod:`repro.saturation.runner` — the engine loop (``Runner``,
  ``RunResult``, ``StepRecord``, ``StopReason``);
* :mod:`repro.saturation.schedulers` — rule scheduling
  (``SimpleScheduler``, egg-style ``BackoffScheduler``), selected via
  ``Limits(scheduler=...)`` / ``REPRO_SCHEDULER`` / ``--scheduler``;
* :mod:`repro.saturation.ematch` — incremental e-matching over the
  e-graph's dirty-class log (``EGraph.pop_dirty``), with full-scan
  fallbacks (``Runner(incremental=False)`` scans fully every step);
* :mod:`repro.saturation.telemetry` — per-rule ``RuleStats`` and
  per-step ``PhaseTimings``, surfaced in Session JSON reports and the
  CLI's ``--rule-profile`` dump;
* :mod:`repro.saturation.pruning` — telemetry-driven rule pruning from
  a recorded ``--rule-profile`` JSON (``Limits(rule_profile=...)`` /
  ``REPRO_RULE_PROFILE`` / ``--prune-from-profile``), provenance-aware
  by default (rules observed contributing to solutions are never
  pruned; see :mod:`repro.extraction.provenance`).

The old ``repro.egraph.runner`` shim module is gone; its names still
resolve off ``repro.egraph`` with a deprecation warning for one
release.
"""

from .ematch import IncrementalMatcher, parent_closure, search_rule
from .pruning import (
    PruningPolicy,
    ProfileError,
    RuleProfile,
    UnknownRuleWarning,
    kernel_class,
    prune_rules,
)
from .runner import (
    SCALAR_OPS,
    Runner,
    RunResult,
    StepRecord,
    StopReason,
    library_calls_of,
)
from .schedulers import (
    SCHEDULER_NAMES,
    BackoffScheduler,
    RuleScheduler,
    SimpleScheduler,
    make_scheduler,
)
from .telemetry import (
    PhaseTimings,
    RuleStats,
    aggregate_rule_stats,
    rule_stats_from_dict,
    rule_stats_to_dict,
)

__all__ = [
    "Runner", "RunResult", "StepRecord", "StopReason",
    "library_calls_of", "SCALAR_OPS",
    "RuleScheduler", "SimpleScheduler", "BackoffScheduler",
    "SCHEDULER_NAMES", "make_scheduler",
    "IncrementalMatcher", "parent_closure", "search_rule",
    "RuleProfile", "PruningPolicy", "ProfileError", "UnknownRuleWarning",
    "kernel_class", "prune_rules",
    "RuleStats", "PhaseTimings",
    "rule_stats_to_dict", "rule_stats_from_dict", "aggregate_rule_stats",
]
