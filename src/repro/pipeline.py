"""The LIAR pipeline (fig. 2): IR term → e-graph → saturation with
language-semantics + idiom rules → per-step cost-model extraction.

:func:`optimize` drives one kernel against one target and returns an
:class:`OptimizationResult` carrying the per-step records that the
paper's tables II/III and figures 4–6 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from .api.limits import Limits
from .egraph.analysis import ShapeAnalysis
from .egraph.egraph import EGraph
from .obs.metrics import NULL_METRICS, MetricsRegistry
from .obs.trace import CAT_EXTRACT, CAT_REQUEST, Tracer, resolve_tracer
from .saturation.runner import RunResult, Runner, StepRecord
from .ir.terms import Term
from .kernels.base import Kernel
from .targets.base import Target

__all__ = ["OptimizationResult", "optimize", "optimize_term", "DEFAULT_LIMITS"]

# Kept as a plain dict for backward compatibility; the values come from
# the unified :class:`repro.api.Limits` profile (8 steps, 12 000
# e-nodes, 120 s) that every entry point now shares.
DEFAULT_LIMITS = Limits().to_dict()


@dataclass
class OptimizationResult:
    """Everything one (kernel, target) optimization run produced."""

    kernel_name: str
    target_name: str
    run: RunResult
    egraph: EGraph
    root_class: int
    #: Telemetry-names of rules dropped by profile-driven pruning
    #: before the run (empty when no ``rule_profile`` was given).
    pruned_rules: tuple = ()
    #: The ``top_k`` cheapest distinct solutions at the root after the
    #: final step, as (term, cost) pairs, cheapest first.  Only
    #: populated when the run asked for ``top_k > 1``; the first entry
    #: then coincides with the greedy best term.
    candidates: tuple = ()
    #: Metrics-registry snapshot of the run (runner / store / pool /
    #: extraction / process families, see :mod:`repro.obs.metrics`);
    #: ``None`` unless the run asked for ``metrics=True``.
    metrics: Optional[dict] = None

    @property
    def steps(self) -> list:
        return self.run.steps

    @property
    def final(self) -> StepRecord:
        return self.run.final

    @property
    def best_term(self) -> Optional[Term]:
        """The extracted expression after the last step."""
        return self.run.final.best_term

    @property
    def library_calls(self) -> Dict[str, int]:
        """Library calls in the final solution (a table II/III row)."""
        return dict(self.run.final.library_calls)

    @property
    def solution_summary(self) -> str:
        return self.run.final.solution_summary

    @property
    def solution_rules(self) -> tuple:
        """Names of the rules provenance says enabled the final
        solution (see :mod:`repro.extraction.provenance`)."""
        return self.run.final.solution_rules

    def best_step(self) -> StepRecord:
        """The step whose solution has the lowest cost."""
        candidates = [s for s in self.run.steps if s.best_term is not None]
        if not candidates:
            return self.run.final
        return min(candidates, key=lambda s: s.best_cost)


def optimize_term(
    term: Term,
    target: Target,
    symbol_shapes: Optional[dict] = None,
    *,
    step_limit: int = DEFAULT_LIMITS["step_limit"],
    node_limit: int = DEFAULT_LIMITS["node_limit"],
    time_limit: float = DEFAULT_LIMITS["time_limit"],
    scheduler: str = DEFAULT_LIMITS["scheduler"],
    rule_profile: Optional[str] = DEFAULT_LIMITS["rule_profile"],
    extractor: str = DEFAULT_LIMITS["extractor"],
    top_k: int = DEFAULT_LIMITS["top_k"],
    check: bool = DEFAULT_LIMITS["check"],
    trace: Union[None, str, Tracer] = DEFAULT_LIMITS["trace"],
    metrics: bool = DEFAULT_LIMITS["metrics"],
    kernel_name: str = "<term>",
    trace_id: Optional[str] = None,
) -> OptimizationResult:
    """Optimize a bare IR term for ``target``.

    ``rule_profile`` prunes rules a recorded telemetry profile says are
    wasteful for this kernel (:mod:`repro.saturation.pruning`);
    ``extractor`` selects the per-step extraction strategy and
    ``top_k`` additionally enumerates the k cheapest distinct solutions
    at the root after the final step (:mod:`repro.extraction`);
    ``check`` runs the e-graph invariant verifier after every step and
    aborts on the first violation (:mod:`repro.check.egraph`);
    ``trace`` records nested spans — a path writes a Chrome-trace JSON
    when the run ends, a :class:`~repro.obs.trace.Tracer` records into
    a caller-owned trace (the session's cross-request trace) — and
    ``metrics`` populates a registry whose snapshot lands on
    ``OptimizationResult.metrics`` (:mod:`repro.obs`).  Neither changes
    what the run computes.
    """
    tracer = resolve_tracer(trace)
    registry = MetricsRegistry() if metrics else NULL_METRICS
    rules = list(target.rules)
    pruned_rules: tuple = ()
    if rule_profile:
        from .saturation.pruning import RuleProfile, prune_rules

        profile = RuleProfile.load(rule_profile)
        rules, dropped = prune_rules(
            rules, profile, kernel=kernel_name, target=target.name
        )
        pruned_rules = tuple(dropped)
    egraph = EGraph(ShapeAnalysis(symbol_shapes or {}))
    root = egraph.add_term(term)
    runner = Runner(
        egraph,
        rules,
        step_limit=step_limit,
        node_limit=node_limit,
        time_limit=time_limit,
        scheduler=scheduler,
        extractor=extractor,
        check=check,
        tracer=tracer,
        metrics=registry,
    )
    request_args: Dict[str, Any] = {
        "kernel": kernel_name, "target": target.name,
    }
    if trace_id:
        # Serve-layer correlation id: lands on the request span so a
        # merged daemon trace and the event log key to the same id.
        request_args["trace_id"] = trace_id
    with tracer.span(
        f"saturate:{kernel_name}/{target.name}", cat=CAT_REQUEST,
        **request_args,
    ):
        run = runner.run(root, cost_model=target.cost_model)
    candidates: tuple = ()
    if top_k > 1:
        from .extraction.topk import extract_topk

        with tracer.span(f"extract_topk:k={top_k}", cat=CAT_EXTRACT):
            candidates = tuple(
                (result.term, result.cost)
                for result in extract_topk(
                    egraph, target.cost_model, root, top_k
                )
            )
        registry.inc("extraction", "candidates_total", len(candidates),
                     help="top-k candidate solutions enumerated")
    if isinstance(trace, str):
        tracer.write(trace, session_name=f"run:{kernel_name}")
    return OptimizationResult(
        kernel_name=kernel_name,
        target_name=target.name,
        run=run,
        egraph=egraph,
        root_class=egraph.find(root),
        pruned_rules=pruned_rules,
        candidates=candidates,
        metrics=registry.snapshot() if metrics else None,
    )


def optimize(
    kernel: Kernel,
    target: Target,
    *,
    step_limit: int = DEFAULT_LIMITS["step_limit"],
    node_limit: int = DEFAULT_LIMITS["node_limit"],
    time_limit: float = DEFAULT_LIMITS["time_limit"],
    scheduler: str = DEFAULT_LIMITS["scheduler"],
    rule_profile: Optional[str] = DEFAULT_LIMITS["rule_profile"],
    extractor: str = DEFAULT_LIMITS["extractor"],
    top_k: int = DEFAULT_LIMITS["top_k"],
    check: bool = DEFAULT_LIMITS["check"],
    trace: Union[None, str, Tracer] = DEFAULT_LIMITS["trace"],
    metrics: bool = DEFAULT_LIMITS["metrics"],
) -> OptimizationResult:
    """Optimize ``kernel`` for ``target`` (the §VI methodology, in the
    artifact's CPU-invariant step-limited mode)."""
    return optimize_term(
        kernel.term,
        target,
        kernel.symbol_shapes,
        step_limit=step_limit,
        node_limit=node_limit,
        time_limit=time_limit,
        scheduler=scheduler,
        rule_profile=rule_profile,
        extractor=extractor,
        top_k=top_k,
        check=check,
        trace=trace,
        metrics=metrics,
        kernel_name=kernel.name,
    )
