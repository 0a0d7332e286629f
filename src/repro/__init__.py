"""LIAR — Latent Idiom Array Rewriting.

A reproduction of "Latent Idiom Recognition for a Minimalist
Functional Array Language using Equality Saturation" (CGO 2024),
grown into a session-based service.

**The primary entry point is** :mod:`repro.api`: a :class:`Session`
facade bundling unified resource limits, a pluggable target registry,
and a two-tier (memory + disk) result cache, with batch/parallel
execution over a process pool::

    from repro.api import Session

    session = Session()
    result = session.optimize("gemv", "blas")          # cached, full result
    print(result.solution_summary)                     # "1 × gemv"

    reports = session.optimize_many(                   # process-pool batch
        [("gemv", "blas"), ("vsum", "blas"), ("axpy", "pytorch")]
    )
    print(reports[0].to_json())                        # JSON-serializable

Custom libraries register through the same seam the paper's three
targets use (§IV-C2)::

    from repro.api import register_target

    @register_target("mylib")
    def mylib_target():
        return Target(name="mylib", rules=[...], cost_model=..., ...)

    Session().optimize("gemv", "mylib")

The layers underneath:

* :mod:`repro.ir` — the minimalist functional array IR (§IV);
* :mod:`repro.egraph` — an egg-style equality-saturation engine (§II);
* :mod:`repro.saturation` — the saturation engine (schedulers,
  incremental e-matching, telemetry, pruning);
* :mod:`repro.extraction` — the extraction engine (greedy/DAG
  extractors, top-k enumeration, rule provenance);
* :mod:`repro.rules` — core / scalar / BLAS / PyTorch rewrite rules
  (listings 2–5);
* :mod:`repro.targets` — cost models (listings 6–8) and targets;
* :mod:`repro.kernels` — the table I kernel suite;
* :mod:`repro.pipeline` — the LIAR driver (fig. 2);
* :mod:`repro.backend` — execution, timing, and C code generation;
* :mod:`repro.analysis` — coverage and report generation.

The module-level :func:`optimize` / :func:`optimize_term` /
:func:`make_target` remain as backward-compatible shims over the
default session.
"""

from typing import Optional

from .api import (
    Limits,
    OptimizationReport,
    OptimizationRequest,
    Session,
    TargetRegistry,
    default_session,
    register_target,
    target_registry,
)
from .kernels import all_kernels, registry
from .pipeline import OptimizationResult
from .targets import blas_target, make_target, pure_c_target, pytorch_target

__version__ = "2.0.0"

__all__ = [
    # session API
    "Session",
    "default_session",
    "Limits",
    "TargetRegistry",
    "register_target",
    "target_registry",
    "OptimizationRequest",
    "OptimizationReport",
    # legacy surface
    "optimize",
    "optimize_term",
    "OptimizationResult",
    "registry",
    "all_kernels",
    "pure_c_target",
    "blas_target",
    "pytorch_target",
    "make_target",
    "__version__",
]


def optimize(
    kernel,
    target,
    *,
    step_limit: Optional[int] = None,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    scheduler: Optional[str] = None,
    rule_profile: Optional[str] = None,
    extractor: Optional[str] = None,
    top_k: Optional[int] = None,
) -> OptimizationResult:
    """Optimize ``kernel`` for ``target`` through the default session.

    Backward-compatible shim for :func:`repro.pipeline.optimize`;
    unspecified limits resolve through :class:`repro.api.Limits`
    (environment-overridable), and repeated calls hit the session
    cache.
    """
    return default_session().optimize(
        kernel,
        target,
        step_limit=step_limit,
        node_limit=node_limit,
        time_limit=time_limit,
        scheduler=scheduler,
        rule_profile=rule_profile,
        extractor=extractor,
        top_k=top_k,
    )


def optimize_term(
    term,
    target,
    symbol_shapes: Optional[dict] = None,
    *,
    step_limit: Optional[int] = None,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    scheduler: Optional[str] = None,
    rule_profile: Optional[str] = None,
    extractor: Optional[str] = None,
    top_k: Optional[int] = None,
    kernel_name: str = "<term>",
) -> OptimizationResult:
    """Optimize a bare IR term through the default session
    (shim for :func:`repro.pipeline.optimize_term`)."""
    return default_session().optimize_term(
        term,
        target,
        symbol_shapes,
        kernel_name=kernel_name,
        step_limit=step_limit,
        node_limit=node_limit,
        time_limit=time_limit,
        scheduler=scheduler,
        rule_profile=rule_profile,
        extractor=extractor,
        top_k=top_k,
    )
