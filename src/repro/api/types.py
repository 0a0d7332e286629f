"""Structured request/response types for the service API.

An :class:`OptimizationRequest` names one unit of work — a registered
kernel (or a raw IR term plus symbol shapes) against a registered
target, with optional per-request limit overrides.  An
:class:`OptimizationReport` is the JSON-serializable digest of one run:
the extracted solution (as IR text), its library-call breakdown, cost,
and saturation statistics.  Both round-trip through JSON so results can
be cached on disk, shipped across process boundaries by
``Session.optimize_many``, and later served over the wire.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from ..ir.shapes import Array, Scalar, Shape
from ..ir.terms import Term

if TYPE_CHECKING:  # pipeline imports this module; stay lazy at runtime
    from ..pipeline import OptimizationResult
    from .limits import Limits

__all__ = [
    "OptimizationRequest",
    "OptimizationReport",
    "shapes_to_spec",
    "spec_to_shapes",
    "report_cache_key",
    "report_fingerprint",
    "VOLATILE_REPORT_FIELDS",
    "VOLATILE_LIMIT_FIELDS",
]

#: Report fields that vary run-to-run without the *result* changing:
#: wall-clock measurements, cache provenance, and observability
#: snapshots.  Everything else — solution, cost, library calls, node
#: and step counts, provenance, candidates — is deterministic.
VOLATILE_REPORT_FIELDS = ("seconds", "cache_hit", "phase_seconds", "metrics")

#: Limits fields excluded from cache keys because they never change
#: what a run computes (check/trace/metrics only observe).  They are
#: scrubbed from fingerprints for the same reason.
VOLATILE_LIMIT_FIELDS = ("check", "trace", "metrics")


def report_fingerprint(report: "OptimizationReport | Mapping") -> str:
    """Canonical JSON of a report's *deterministic* content.

    Two reports with equal fingerprints describe byte-identical
    optimization results: the one-shot :class:`~repro.api.Session`
    path and the ``repro serve`` daemon must agree on this string for
    the same request (the service-equivalence guarantee asserted by
    ``tests/server/`` and the CI smoke test).  Volatile fields —
    timings, cache provenance, observability snapshots, and the
    per-rule ``search_seconds`` and ``apply_seconds`` inside
    ``rule_stats`` — are scrubbed;
    everything else participates byte-for-byte.
    """
    data = (report.to_dict() if isinstance(report, OptimizationReport)
            else dict(report))
    for field_name in VOLATILE_REPORT_FIELDS:
        data.pop(field_name, None)
    limits = data.get("limits")
    if isinstance(limits, Mapping):
        data["limits"] = {k: v for k, v in limits.items()
                          if k not in VOLATILE_LIMIT_FIELDS}
    stats = data.get("rule_stats")
    if isinstance(stats, Mapping):
        data["rule_stats"] = {
            rule: {k: v for k, v in entry.items()
                   if k not in ("search_seconds", "apply_seconds")}
            if isinstance(entry, Mapping) else entry
            for rule, entry in stats.items()
        }
    return json.dumps(data, sort_keys=True)


def shapes_to_spec(shapes: Optional[Mapping[str, Shape]]) -> Optional[Dict[str, Any]]:
    """JSON-encodable form of a ``symbol → shape`` mapping."""
    if shapes is None:
        return None
    spec: Dict[str, Any] = {}
    for name in sorted(shapes):
        shape = shapes[name]
        if isinstance(shape, Scalar):
            spec[name] = "scalar"
        elif isinstance(shape, Array):
            spec[name] = list(shape.dims)
        else:
            raise TypeError(
                f"cannot serialize shape {shape!r} for symbol {name!r}; "
                "only Scalar and Array inputs are supported in requests"
            )
    return spec


def spec_to_shapes(spec: Optional[Mapping[str, Any]]) -> Optional[Dict[str, Shape]]:
    """Inverse of :func:`shapes_to_spec`."""
    if spec is None:
        return None
    shapes: Dict[str, Shape] = {}
    for name, value in spec.items():
        if value == "scalar":
            shapes[name] = Scalar()
        else:
            shapes[name] = Array(tuple(int(d) for d in value))
    return shapes


@dataclass(frozen=True)
class OptimizationRequest:
    """One (kernel-or-term, target) unit of work.

    Exactly one of ``kernel`` (a registered kernel name) or ``term``
    (IR concrete syntax, see :mod:`repro.ir.parser`) must be given.
    """

    target: str
    kernel: Optional[str] = None
    term: Optional[str] = None
    symbol_shapes: Optional[Dict[str, Any]] = None  # shapes_to_spec form
    name: Optional[str] = None  # display name for term requests
    step_limit: Optional[int] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    scheduler: Optional[str] = None  # "simple" | "backoff"
    rule_profile: Optional[str] = None  # telemetry profile for pruning
    extractor: Optional[str] = None  # "greedy" | "dag"
    top_k: Optional[int] = None  # enumerate k cheapest distinct solutions
    check: Optional[bool] = None  # verify e-graph invariants per step
    trace: Optional[str] = None  # Chrome-trace JSON output path
    metrics: Optional[bool] = None  # populate the metrics registry
    #: Correlation id stamped on this request's spans (the serve layer
    #: mints one per HTTP request and overrides whatever the client
    #: sent).  Purely observational: excluded from cache keys and
    #: fingerprints like every other obs knob.
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.kernel is None) == (self.term is None):
            raise ValueError(
                "request needs exactly one of 'kernel' (registered name) "
                "or 'term' (IR text)"
            )

    @property
    def display_name(self) -> str:
        return self.name or self.kernel or "<term>"

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizationRequest":
        return cls(**dict(data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OptimizationRequest":
        return cls.from_dict(json.loads(text))


def _cost_to_json(cost: float) -> Optional[float]:
    return cost if math.isfinite(cost) else None


def _cost_from_json(cost: Optional[float]) -> float:
    return float("inf") if cost is None else float(cost)


@dataclass
class OptimizationReport:
    """JSON-serializable digest of one optimization run."""

    kernel: str
    target: str
    limits: Dict[str, Any]
    solution: Optional[str]  # pretty-printed best term, or None
    solution_summary: str
    library_calls: Dict[str, int] = field(default_factory=dict)
    best_cost: float = float("inf")
    steps: int = 0
    enodes: int = 0
    stop_reason: str = ""
    seconds: float = 0.0
    cache_hit: bool = False
    error: Optional[str] = None
    #: Scheduler that drove the run ("simple" | "backoff").
    scheduler: str = "simple"
    #: Per-rule saturation telemetry (serialized RuleStats), or None
    #: for reports produced before telemetry existed.
    rule_stats: Optional[Dict[str, Any]] = None
    #: Run-total wall-clock split: search/apply/rebuild/extract (plus
    #: search_cpu, the summed per-rule search seconds across workers).
    phase_seconds: Optional[Dict[str, float]] = None
    #: Rules dropped by profile-driven pruning before the run, or None
    #: when no profile was applied (and for pre-pruning reports).
    pruned_rules: Optional[list] = None
    #: Extractor that produced the solution ("greedy" | "dag").
    extractor: str = "greedy"
    #: Rule provenance of the final solution: names of the rules whose
    #: unions/creations touched a solution e-class, or None for
    #: reports produced before provenance existed.
    solution_rules: Optional[list] = None
    #: The ``top_k`` cheapest distinct solutions, cheapest first, as
    #: ``{"solution": <IR text>, "cost": <float|None>}`` dicts; None
    #: unless the run asked for ``top_k > 1``.
    candidates: Optional[list] = None
    #: Metrics-registry snapshot (``repro-metrics/1`` schema — runner /
    #: store / pool / extraction / cache / process families, see
    #: :mod:`repro.obs.metrics`); None unless the run asked for
    #: ``metrics=True``.
    metrics: Optional[Dict[str, Any]] = None

    @classmethod
    def from_result(
        cls,
        result: "OptimizationResult",
        limits: "Limits",
        seconds: float = 0.0,
    ) -> "OptimizationReport":
        """Digest a :class:`~repro.pipeline.OptimizationResult`."""
        from ..ir.printer import pretty
        from ..saturation.telemetry import rule_stats_to_dict

        final = result.final
        best = result.best_term
        run = result.run
        return cls(
            kernel=result.kernel_name,
            target=result.target_name,
            limits=limits.to_dict(),
            solution=pretty(best) if best is not None else None,
            solution_summary=result.solution_summary,
            library_calls=dict(result.library_calls),
            best_cost=final.best_cost,
            steps=run.num_steps,
            enodes=final.enodes,
            stop_reason=run.stop_reason,
            seconds=seconds,
            scheduler=getattr(run, "scheduler", "simple"),
            rule_stats=rule_stats_to_dict(run.rule_stats)
            if getattr(run, "rule_stats", None) else None,
            phase_seconds=run.total_phases().to_dict()
            if hasattr(run, "total_phases") else None,
            pruned_rules=list(result.pruned_rules)
            if getattr(result, "pruned_rules", None) else None,
            extractor=getattr(run, "extractor", "greedy"),
            solution_rules=list(final.solution_rules)
            if getattr(final, "solution_rules", None) else None,
            candidates=[
                {"solution": pretty(term), "cost": _cost_to_json(cost)}
                for term, cost in result.candidates
            ]
            if getattr(result, "candidates", None) else None,
            metrics=getattr(result, "metrics", None),
        )

    @classmethod
    def from_error(cls, request_payload: Mapping, message: str) -> "OptimizationReport":
        return cls(
            kernel=request_payload.get("name") or request_payload.get("kernel") or "<term>",
            target=request_payload.get("target", "?"),
            limits=dict(request_payload.get("limits", {})),
            solution=None,
            solution_summary="(error)",
            error=message,
        )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def deterministic(self) -> bool:
        """False when the wall-clock limit cut the run short: the
        answer then depends on how busy the machine was, not only on
        the request.  Serialized with the report."""
        return self.stop_reason != "time_limit"

    @property
    def best_term(self) -> Optional[Term]:
        """The solution parsed back into an IR term."""
        if self.solution is None:
            return None
        from ..ir.parser import parse

        return parse(self.solution)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["best_cost"] = _cost_to_json(self.best_cost)
        data["deterministic"] = self.deterministic
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizationReport":
        data = dict(data)
        data["best_cost"] = _cost_from_json(data.get("best_cost"))
        data.pop("deterministic", None)  # derived from stop_reason
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "OptimizationReport":
        return cls.from_dict(json.loads(text))


def report_cache_key(
    term_text: str,
    shapes_spec: Optional[Mapping[str, Any]],
    target_name: str,
    limits_key: tuple,
    pruned_for: Optional[str] = None,
) -> str:
    """Stable content hash: term × shapes × target × limits.

    ``pruned_for`` joins the hash only when profile-driven pruning is
    active: pruning selects rules by *kernel name* (exact-run vs
    kernel-class fallback), so two kernels sharing one term (jacobi1d
    / blur1d) may legitimately run different rule sets and must not
    share a cache entry.  Left ``None`` (no pruning), keys are purely
    content-addressed and unchanged from earlier releases.
    """
    body = {
        "term": term_text,
        "shapes": shapes_spec,
        "target": target_name,
        "limits": list(limits_key),
    }
    if pruned_for is not None:
        body["pruned_for"] = pruned_for
    payload = json.dumps(body, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
