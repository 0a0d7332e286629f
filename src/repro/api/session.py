"""The :class:`Session` facade — the primary entry point of the repo.

A session holds everything one client needs to optimize kernels at
scale: a unified :class:`~repro.api.limits.Limits` budget, a pluggable
:class:`~repro.api.registry.TargetRegistry`, and a two-tier result
cache (in-memory objects + optional on-disk JSON reports).  On top of
the single-run :meth:`Session.optimize` it adds
:meth:`Session.optimize_many`, which fans a batch of (kernel, target)
pairs across a ``concurrent.futures`` process pool — saturation is
CPU-bound pure Python, so parallelism across *runs* is the scaling
axis — with cache lookups short-circuiting repeated work entirely.

Typical use::

    from repro.api import Session

    session = Session(cache_dir="~/.cache/repro")
    result = session.optimize("gemv", "blas")          # full result
    reports = session.optimize_many(
        [("gemv", "blas"), ("gemv", "pytorch"),
         ("vsum", "blas"), ("axpy", "pytorch")],
    )                                                   # parallel batch
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from time import perf_counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace as dc_replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from typing import TYPE_CHECKING

from ..ir.printer import pretty
from ..ir.terms import Term
from ..kernels import registry as default_kernel_registry
from ..kernels.base import Kernel, KernelRegistry
from ..targets.base import Target

if TYPE_CHECKING:  # pipeline imports Limits from here; stay lazy at runtime
    from ..check.diagnostics import Diagnostic
    from ..egraph.egraph import EGraph
    from ..pipeline import OptimizationResult
from .cache import ResultCache
from .limits import Limits
from .registry import BUILTIN_TARGETS, TargetRegistry, target_registry
from .types import (
    OptimizationReport,
    OptimizationRequest,
    report_cache_key,
    shapes_to_spec,
    spec_to_shapes,
)

__all__ = ["Session", "default_session"]

RequestLike = Union[OptimizationRequest, Tuple[str, str], dict]


def _execute_payload(payload: dict, registry: TargetRegistry,
                     kernels: Optional[KernelRegistry] = None) -> dict:
    """Run one serialized request to a report dict.

    Shared by the in-process serial path and the process-pool workers,
    so a custom target registered via ``@register_target`` optimizes
    through exactly the same code path as the built-ins.
    """
    try:
        from ..ir.parser import parse
        from ..pipeline import optimize_term as _pipeline_optimize_term

        limits = Limits.from_dict(payload["limits"])
        target = registry.get(payload["target"])
        if payload.get("kernel"):
            kernel = (kernels or default_kernel_registry).get(payload["kernel"])
            term, shapes, name = kernel.term, kernel.symbol_shapes, kernel.name
        else:
            term = parse(payload["term"])
            shapes = spec_to_shapes(payload.get("symbol_shapes")) or {}
            name = payload.get("name", "<term>")
        kwargs = limits.as_kwargs()
        tracer = None
        if limits.trace:
            # Record locally and ship the events back with the report:
            # several pool workers may share one output path, so the
            # parent — not the workers — merges and writes the file.
            from ..obs.trace import Tracer

            tracer = Tracer()
            kwargs["trace"] = tracer
        started = perf_counter()
        result = _pipeline_optimize_term(
            term, target, shapes, kernel_name=name,
            trace_id=payload.get("trace_id"), **kwargs
        )
        seconds = perf_counter() - started
        data = OptimizationReport.from_result(result, limits, seconds).to_dict()
        if tracer is not None:
            # Transient side-channel key: popped by the parent before
            # OptimizationReport.from_dict, never cached or served.
            data["_trace"] = tracer.export_events()
        return data
    except Exception as exc:  # workers must never raise across the pool
        return OptimizationReport.from_error(
            payload, f"{type(exc).__name__}: {exc}"
        ).to_dict()


from ..saturation.runner import StopReason


def fork_available() -> bool:
    """Whether fork-based worker pools are safe to use here.

    macOS *offers* the fork start method but forking a threaded /
    Objective-C-runtime parent there is notoriously crash-prone (which
    is why spawn became its default); treat it as fork-less and run
    in-process, as documented.
    """
    import multiprocessing

    if sys.platform == "darwin":
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def _evict_adhoc(
    session_ref: "weakref.ref[Session]", ident: int, token: str
) -> None:
    """Finalizer for ad-hoc targets; weak session ref avoids pinning
    the session for as long as a caller's target lives."""
    session = session_ref()
    if session is not None:
        session._evict_adhoc(ident, token)


def _pool_worker(payload: dict) -> dict:
    """Process-pool entry point: resolves through the global registry.

    Workers are forked from the parent on platforms that support it, so
    targets registered at runtime (``@register_target``) are visible
    here without any import gymnastics.
    """
    return _execute_payload(payload, target_registry)


class Session:
    """Configuration + caching + execution for LIAR optimization runs."""

    def __init__(
        self,
        limits: Optional[Limits] = None,
        *,
        registry: Optional[TargetRegistry] = None,
        kernels: Optional[KernelRegistry] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.limits = limits if limits is not None else Limits.from_env()
        self.registry = registry if registry is not None else target_registry
        self.kernels = kernels if kernels is not None else default_kernel_registry
        self.cache = ResultCache(
            Path(cache_dir).expanduser() if cache_dir is not None else None
        )
        self._targets: Dict[str, Tuple[int, Target]] = {}
        # Ad-hoc Target objects are cache-keyed by id().  A weakref
        # finalizer evicts their cache entries when the target is
        # collected, so a recycled id can never alias a stale entry to
        # a new target and per-request targets don't accumulate.
        self._adhoc_tokens: Dict[int, str] = {}
        self._adhoc_keys: Dict[str, set] = {}
        #: Saturation runs actually executed (cache misses); the
        #: acceptance counter for "no re-saturation on repeat calls".
        self.runs = 0
        # Accumulated span events per trace output path: successive
        # optimize_many calls that target the same path extend one
        # session-wide trace (the file is rewritten from the full set
        # each time) instead of clobbering each other.  Guarded by a
        # lock: the serve daemon drives one shared session from several
        # queue worker threads.
        self._trace_events: Dict[str, List[dict]] = {}
        self._trace_lock = threading.Lock()
        # Warm persistent worker pool (repro serve): created once via
        # start_pool() and reused across batches, so long-lived callers
        # stop paying a pool construction + fork per request.  None
        # means the historical behavior: a transient pool per batch.
        self._persistent_pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # warm persistent worker pool
    # ------------------------------------------------------------------
    def start_pool(self, max_workers: Optional[int] = None) -> bool:
        """Create (or keep) a warm persistent worker pool.

        Subsequent ``optimize_many`` batches — including single-request
        batches, the ``repro serve`` job shape — submit to this pool
        instead of constructing a transient one, so worker processes
        stay forked and hot across requests.  Every worker exists when
        this returns: a fork pool starts all its workers on the first
        submit, so a no-op job is run here, before the caller starts
        any thread of its own (``repro serve`` forks before its HTTP
        threads) and before ``pool_warm`` reports the pool.
        Idempotent; returns
        ``False`` (and stays in-process) on platforms without ``fork``,
        where a long-lived spawn pool could not see runtime-registered
        targets.  A pool broken mid-batch (OOM-killed worker) is
        discarded and lazily recreated by the next ``start_pool`` call.
        """
        with self._pool_lock:
            if self._persistent_pool is not None:
                return True
            if not fork_available():
                return False
            import multiprocessing

            workers = max_workers if max_workers and max_workers > 0 \
                else min(os.cpu_count() or 2, 8)
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            pool.submit(int).result()
            self._persistent_pool = pool
            return True

    @property
    def pool_warm(self) -> bool:
        """Is a persistent worker pool currently running?"""
        return self._persistent_pool is not None

    def close_pool(self) -> None:
        """Shut down the warm pool (no-op when none is running)."""
        with self._pool_lock:
            pool, self._persistent_pool = self._persistent_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _discard_broken_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a persistent pool that broke mid-batch so the next
        ``start_pool`` builds a fresh one."""
        with self._pool_lock:
            if self._persistent_pool is pool:
                self._persistent_pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # target / limits resolution
    # ------------------------------------------------------------------
    def target(self, name: str) -> Target:
        """Build (once per registry generation) the named target.

        Re-registering a name (``overwrite=True``) invalidates the
        memoized object, and an unregistered name fails here exactly
        like it does in ``optimize_many`` — sessions never serve a
        stale or removed definition.
        """
        if name not in self.registry:
            self._targets.pop(name, None)
            return self.registry.get(name)  # raises the standard ValueError
        generation = self.registry.generation(name)
        cached = self._targets.get(name)
        if cached is None or cached[0] != generation:
            self._targets[name] = (generation, self.registry.get(name))
        return self._targets[name][1]

    def _target_token(self, name: str) -> str:
        """Cache token for a named target.  Generation 0 (built-ins and
        first registrations) keeps the bare name so keys stay stable
        across processes; re-registered definitions get distinct keys
        instead of inheriting the old definition's cached results."""
        generation = self.registry.generation(name)
        return name if generation == 0 else f"{name}@{generation}"

    def target_names(self) -> List[str]:
        return self.registry.names()

    # ------------------------------------------------------------------
    # static checks (repro.check)
    # ------------------------------------------------------------------
    def check_rules(
        self, target: Union[str, Target, None] = None
    ) -> List["Diagnostic"]:
        """Statically analyze rewrite rules (see :mod:`repro.check.rules`).

        With no argument, analyzes every shipped rule-set; with a
        target (name or object), analyzes that target's assembled rule
        list."""
        from ..check.rules import RULESETS, analyze_rules, analyze_ruleset

        if target is None:
            findings: List["Diagnostic"] = []
            for name in RULESETS:
                findings.extend(analyze_ruleset(name))
            return findings
        target_obj = self.target(target) if isinstance(target, str) else target
        return analyze_rules(
            list(target_obj.rules), location=target_obj.name
        )

    def check_egraph(self, egraph: "EGraph") -> List["Diagnostic"]:
        """Verify the representation invariants of a live e-graph
        (see :mod:`repro.check.egraph`)."""
        from ..check.egraph import verify

        return verify(egraph)

    def resolve_limits(
        self,
        step_limit: Optional[int] = None,
        node_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        scheduler: Optional[str] = None,
        rule_profile: Optional[str] = None,
        extractor: Optional[str] = None,
        top_k: Optional[int] = None,
        check: Optional[bool] = None,
        trace: Optional[str] = None,
        metrics: Optional[bool] = None,
    ) -> Limits:
        return self.limits.override(step_limit, node_limit, time_limit,
                                    scheduler, rule_profile, extractor, top_k,
                                    check=check, trace=trace, metrics=metrics)

    @property
    def stats(self) -> dict:
        """Cache and execution counters."""
        data = self.cache.stats.to_dict()
        data["runs"] = self.runs
        return data

    # ------------------------------------------------------------------
    # single-run API (full OptimizationResult, in-process)
    # ------------------------------------------------------------------
    def optimize(
        self,
        kernel: Union[str, Kernel],
        target: Union[str, Target],
        *,
        step_limit: Optional[int] = None,
        node_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        scheduler: Optional[str] = None,
        rule_profile: Optional[str] = None,
        extractor: Optional[str] = None,
        top_k: Optional[int] = None,
        check: Optional[bool] = None,
        trace: Union[None, str, "object"] = None,
        metrics: Optional[bool] = None,
    ) -> "OptimizationResult":
        """Optimize one kernel for one target, with result caching.

        ``kernel`` and ``target`` may be registered names or concrete
        objects.  Repeated calls with the same name-based arguments and
        limits return the identical cached result object.
        """
        if isinstance(kernel, str):
            kernel = self.kernels.get(kernel)
        return self.optimize_term(
            kernel.term,
            target,
            kernel.symbol_shapes,
            kernel_name=kernel.name,
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
        )

    def optimize_term(
        self,
        term: Term,
        target: Union[str, Target],
        symbol_shapes: Optional[dict] = None,
        *,
        kernel_name: str = "<term>",
        step_limit: Optional[int] = None,
        node_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        scheduler: Optional[str] = None,
        rule_profile: Optional[str] = None,
        extractor: Optional[str] = None,
        top_k: Optional[int] = None,
        check: Optional[bool] = None,
        trace: Union[None, str, "object"] = None,
        metrics: Optional[bool] = None,
    ) -> "OptimizationResult":
        """Optimize a bare IR term (see :func:`repro.pipeline.optimize_term`).

        ``trace`` may be an output path (Chrome-trace JSON is written
        when the run ends) or a caller-owned
        :class:`~repro.obs.trace.Tracer`, which accumulates spans
        across several calls (one session-wide trace); ``metrics``
        puts a registry snapshot on ``result.metrics``.  A cache hit
        returns the identical cached result — no run happens, so
        nothing new is traced.
        """
        from ..obs.trace import Tracer
        from ..pipeline import optimize_term as _pipeline_optimize_term

        caller_tracer = trace if isinstance(trace, Tracer) else None
        limits = self.resolve_limits(step_limit, node_limit, time_limit,
                                     scheduler, rule_profile, extractor, top_k,
                                     check=check,
                                     trace=trace if isinstance(trace, str)
                                     else None,
                                     metrics=metrics)
        named = isinstance(target, str)
        target_obj = self.target(target) if named else target
        key = self._term_key(term, symbol_shapes, target, limits, kernel_name)
        name_key = None if key is None else f"{key}|name={kernel_name}"
        if name_key is not None and not named:
            # Remember which entries belong to this ad-hoc target so
            # its finalizer can evict them.
            token = self._adhoc_tokens[id(target_obj)]
            self._adhoc_keys.setdefault(token, set()).update((key, name_key))
        if name_key is not None:
            cached = self.cache.get_result(name_key)
            if cached is not None:
                return cached
            # Content-identical run done under another kernel name (the
            # table-I jacobi1d / blur1d pair share one term): reuse the
            # saturation but relabel for this caller, and pin the copy
            # so repeated calls return the identical object.
            base = self.cache.get_result(key)
            if base is not None:
                if base.kernel_name != kernel_name:
                    base = dc_replace(base, kernel_name=kernel_name)
                self.cache.put_result(name_key, base)
                return base
            self.cache.miss()
        started = perf_counter()
        kwargs = limits.as_kwargs()
        if caller_tracer is not None:
            kwargs["trace"] = caller_tracer
        result = _pipeline_optimize_term(
            term,
            target_obj,
            symbol_shapes,
            kernel_name=kernel_name,
            **kwargs,
        )
        seconds = perf_counter() - started
        self.runs += 1
        # A wall-clock-truncated run depends on machine load, not only
        # on the request: neither cache tier stores it.
        if (
            name_key is not None
            and result.run.stop_reason != StopReason.TIME_LIMIT
        ):
            self.cache.put_result(key, result)
            self.cache.put_result(name_key, result)
            if named:  # only name-resolved targets are reproducible on disk
                self.cache.put_report(
                    key,
                    OptimizationReport.from_result(result, limits, seconds),
                    # Registered names denote process-local definitions:
                    # two processes can bind different targets to the
                    # same name, so only the built-ins — whose meaning
                    # is fixed — reach the shared disk tier.
                    disk=target in BUILTIN_TARGETS,
                )
        return result

    def _term_key(
        self,
        term: Term,
        symbol_shapes: Optional[dict],
        target: Union[str, Target],
        limits: Limits,
        kernel_name: str,
    ) -> Optional[str]:
        """Cache key for a run, or ``None`` when the run is uncacheable
        (ad-hoc Target objects are distinguished by identity; exotic
        symbol shapes fall outside the serializable spec).

        With ``rule_profile`` set the key is additionally scoped to the
        kernel name, because pruning decisions depend on it (see
        :func:`report_cache_key`)."""
        try:
            spec = shapes_to_spec(symbol_shapes)
        except TypeError:
            return None
        if isinstance(target, str):
            token = self._target_token(target)
        else:
            token = self._adhoc_token(target)
            if token is None:
                return None
        return report_cache_key(
            pretty(term), spec, token, limits.key(),
            pruned_for=kernel_name if limits.rule_profile else None,
        )

    def _adhoc_token(self, target: Target) -> Optional[str]:
        """id()-based cache token for an unregistered Target object."""
        ident = id(target)
        token = self._adhoc_tokens.get(ident)
        if token is None:
            token = f"{target.name}#{ident}"
            try:
                weakref.finalize(
                    target, _evict_adhoc, weakref.ref(self), ident, token
                )
            except TypeError:
                return None  # not weak-referenceable: don't cache
            self._adhoc_tokens[ident] = token
        return token

    def _evict_adhoc(self, ident: int, token: str) -> None:
        """Drop a collected ad-hoc target's cache entries."""
        if self._adhoc_tokens.get(ident) == token:
            del self._adhoc_tokens[ident]
        for key in self._adhoc_keys.pop(token, ()):
            self.cache.drop_result(key)

    # ------------------------------------------------------------------
    # batch API (OptimizationReports, process pool)
    # ------------------------------------------------------------------
    def report(self, request: RequestLike) -> OptimizationReport:
        """One request to one report, through the report cache."""
        return self.optimize_many([request], parallel=False)[0]

    def optimize_many(
        self,
        requests: Sequence[RequestLike],
        *,
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> List[OptimizationReport]:
        """Optimize a batch of requests, fanning cache misses across a
        process pool.

        Each request is an :class:`OptimizationRequest`, a
        ``(kernel_name, target_name)`` tuple, or an equivalent dict.
        Returns reports in request order; previously-computed requests
        come back instantly with ``cache_hit=True``.
        """
        normalized = [self._normalize_request(r) for r in requests]
        payloads = [self._payload(r) for r in normalized]
        keys = [p.pop("cache_key") for p in payloads]
        durable = [p.pop("durable") for p in payloads]

        reports: List[Optional[OptimizationReport]] = [None] * len(payloads)
        pending: List[int] = []
        for index, key in enumerate(keys):
            cached = (
                self.cache.get_report(key, disk=durable[index])
                if key is not None else None
            )
            if cached is not None:
                # Content-keyed entries may have been stored by a
                # different-named kernel with an identical term; the
                # reply must carry *this* request's name.
                reports[index] = dc_replace(
                    cached,
                    kernel=normalized[index].display_name,
                    cache_hit=True,
                )
            else:
                if key is not None:
                    self.cache.miss()
                pending.append(index)

        if pending:
            # Content-identical requests in one cold batch (jacobi1d /
            # blur1d share a term) execute once; the duplicates reuse
            # the primary's report under their own kernel name.
            primary: Dict[str, int] = {}
            unique: List[int] = []
            for index in pending:
                key = keys[index]
                if key is not None:
                    if key in primary:
                        continue
                    primary[key] = index
                unique.append(index)
            fresh = dict(zip(unique, self._execute_batch(
                [payloads[i] for i in unique], parallel, max_workers
            )))
            self.runs += len(unique)
            for index in pending:
                report = fresh.get(index)
                executed = report is not None
                if report is None:
                    report = dc_replace(
                        fresh[primary[keys[index]]],
                        kernel=normalized[index].display_name,
                    )
                reports[index] = report
                # Duplicates share the primary's entry; re-storing it
                # would just rewrite the same key (and disk file).
                # Time-truncated runs are never cached (see
                # optimize_term).
                if (
                    executed and report.ok and keys[index] is not None
                    and report.stop_reason != StopReason.TIME_LIMIT
                ):
                    self.cache.put_report(
                        keys[index], report, disk=durable[index]
                    )
        trace_paths = [
            path for p in payloads
            if (path := (p.get("limits") or {}).get("trace"))
        ]
        if trace_paths:
            self._write_trace_files(trace_paths)
        # Metrics requests additionally get the session's cache family
        # folded into their snapshot — at serve time, not store time,
        # so cached reports never carry stale hit/miss counters.  This
        # also gives cache *hits* (which ran nothing) a populated
        # snapshot.
        cache_snapshot: Optional[dict] = None
        for index, report in enumerate(reports):
            if report is None or not report.ok:
                continue
            if not (payloads[index].get("limits") or {}).get("metrics"):
                continue
            if cache_snapshot is None:
                from ..obs.metrics import merge_snapshots

                cache_snapshot = self.cache.stats.to_metrics_snapshot()
            reports[index] = dc_replace(
                report,
                metrics=merge_snapshots([report.metrics, cache_snapshot]),
            )
        return [r for r in reports if r is not None]

    def _normalize_request(self, request: RequestLike) -> OptimizationRequest:
        if isinstance(request, OptimizationRequest):
            return request
        if isinstance(request, dict):
            return OptimizationRequest.from_dict(request)
        if isinstance(request, (tuple, list)) and len(request) == 2:
            kernel, target = request
            return OptimizationRequest(kernel=kernel, target=target)
        raise TypeError(
            f"cannot interpret {request!r} as an optimization request; "
            "pass an OptimizationRequest, a (kernel, target) tuple, or a dict"
        )

    def _payload(self, request: OptimizationRequest) -> dict:
        """Serialize one request for execution + caching.

        Validates eagerly (unknown kernels/targets fail fast in the
        caller, not inside a worker) and keys the cache by the kernel's
        *term*, so name-based and term-based requests share entries.
        """
        if request.target not in self.registry:
            raise ValueError(
                f"unknown target {request.target!r}; "
                f"expected one of {tuple(self.registry.names())}"
            )
        limits = self.resolve_limits(
            request.step_limit, request.node_limit, request.time_limit,
            request.scheduler, request.rule_profile, request.extractor,
            request.top_k,
            check=request.check, trace=request.trace,
            metrics=request.metrics,
        )
        payload: dict = {"target": request.target, "limits": limits.to_dict()}
        if request.kernel is not None:
            kernel = self.kernels.get(request.kernel)
            payload["kernel"] = kernel.name
            term_text = pretty(kernel.term)
            spec = shapes_to_spec(kernel.symbol_shapes)
        else:
            payload["term"] = request.term
            payload["symbol_shapes"] = request.symbol_shapes
            payload["name"] = request.display_name
            term_text = request.term
            spec = request.symbol_shapes
        # The name the pipeline will prune for: the registered kernel's
        # name, or the request's display name for raw-term requests.
        pruned_for = (
            (payload.get("kernel") or request.display_name)
            if limits.rule_profile else None
        )
        payload["cache_key"] = report_cache_key(
            term_text, spec, self._target_token(request.target), limits.key(),
            pruned_for=pruned_for,
        )
        # Only built-in targets are disk-durable: a registered name is a
        # process-local binding, and another process may have bound a
        # different definition to it under the same cache directory.
        payload["durable"] = request.target in BUILTIN_TARGETS
        if request.trace_id:
            # Correlation id for the serve layer; rides next to the
            # limits (not inside them) so it can never touch cache keys.
            payload["trace_id"] = request.trace_id
        return payload

    def _execute_batch(
        self,
        payloads: List[dict],
        parallel: bool,
        max_workers: Optional[int],
    ) -> List[OptimizationReport]:
        # The pool workers resolve through the *global* target registry
        # and the default kernel registry (inherited via fork); sessions
        # with private registries stay in-process so their entries
        # remain visible.  Without fork (spawn-only platforms), workers
        # re-import from scratch and only see import-time registrations,
        # so runtime-registered targets also stay in-process.
        use_pool = (
            parallel
            # A warm persistent pool serves even single-request batches
            # (the `repro serve` job shape); transient pools are only
            # worth constructing for real batches.
            and (len(payloads) > 1 or self._persistent_pool is not None)
            and self.registry is target_registry
            and self.kernels is default_kernel_registry
            and (
                fork_available()
                or all(p["target"] in BUILTIN_TARGETS for p in payloads)
            )
        )
        dicts: Optional[List[Optional[dict]]] = None
        if use_pool:
            try:
                dicts = self._execute_pool(payloads, max_workers)
            except (OSError, BrokenProcessPool):
                # Pool could not be constructed at all (sandbox, fd
                # limits): run serially.  Breaks during submission or
                # execution are handled inside _execute_pool without
                # discarding completed results.
                pass
        if dicts is None:
            dicts = [
                _execute_payload(p, self.registry, self.kernels)
                for p in payloads
            ]
        return self._harvest_reports(payloads, dicts)

    def _harvest_reports(
        self, payloads: List[dict], dicts: List[Optional[dict]]
    ) -> List[OptimizationReport]:
        """Report dicts → reports, merging shipped worker traces.

        Every run whose limits asked for a trace shipped its span
        events back under the transient ``"_trace"`` key (see
        :func:`_execute_payload`); they are popped here — before
        ``from_dict``, so they never reach a cache — grouped by output
        path, merged onto per-pid lanes, and written once per path.
        """
        reports: List[OptimizationReport] = []
        for payload, data in zip(payloads, dicts):
            events = (data or {}).pop("_trace", None)
            path = (payload.get("limits") or {}).get("trace")
            if events and path:
                with self._trace_lock:
                    self._trace_events.setdefault(path, []).extend(events)
            reports.append(OptimizationReport.from_dict(data))
        return reports

    def _write_trace_files(self, paths: Sequence[str]) -> None:
        """Write each requested trace path from the accumulated events.

        Called once per batch with *every* requested path — including
        those of fully cache-served requests, which shipped no events:
        asking for a trace must always produce a valid (possibly
        session-only) file.
        """
        from ..obs.trace import Tracer

        for path in dict.fromkeys(paths):
            with self._trace_lock:
                accumulated = list(
                    self._trace_events.setdefault(path, [])
                )
            tracer = Tracer()
            if accumulated:
                # The merged timeline starts at the earliest shipped
                # event, not at this (post-run) tracer's creation.
                tracer.epoch = min(e["ts"] for e in accumulated)
                tracer.add_remote(accumulated)
            tracer.write(path, session_name="session")

    def finish_trace(
        self,
        path: str,
        extra_events: Sequence[dict] = (),
        *,
        session_name: str = "session",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Finalize one trace path: merge ``extra_events`` (e.g. the
        serve daemon's queue-wait/run spans) into whatever the runs
        accumulated there, rewrite the file, and **release** the
        accumulated events.

        ``_write_trace_files`` keeps events around so successive CLI
        batches extend one session-wide trace; the serve layer uses one
        path per request, so retaining them would leak a request's
        spans forever.  Returns ``path``.
        """
        from ..obs.trace import Tracer

        path = str(path)
        with self._trace_lock:
            events = self._trace_events.pop(path, [])
        events = events + list(extra_events)
        tracer = Tracer()
        if events:
            tracer.epoch = min(e["ts"] for e in events)
            tracer.add_remote(events)
        tracer.write(path, session_name=session_name, metadata=metadata)
        return path

    def _execute_pool(
        self, payloads: List[dict], max_workers: Optional[int]
    ) -> List[Optional[dict]]:
        import multiprocessing

        pool = self._persistent_pool
        owned = pool is None
        if owned:
            if max_workers is None or max_workers < 1:
                max_workers = min(len(payloads), os.cpu_count() or 2, 8)
            context = None
            if fork_available():
                # Fork inherits runtime-registered targets and the
                # kernel registry; spawn would only see import-time
                # registrations.
                context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(
                max_workers=max_workers, mp_context=context
            )
        dicts: List[Optional[dict]] = [None] * len(payloads)
        futures: List = []
        broken = False
        try:
            try:
                for p in payloads:
                    futures.append(pool.submit(_pool_worker, p))
            except (OSError, RuntimeError, BrokenProcessPool):
                # Pool broke (or was shut down concurrently) mid-
                # submission: the futures already in flight are still
                # harvested below; the never-submitted tail runs
                # in-process after the pool is released.
                broken = True
            for index, future in enumerate(futures):
                try:
                    dicts[index] = future.result()
                except (OSError, BrokenProcessPool):
                    # A worker died mid-batch (OOM kill).  Completed
                    # results are kept; only the casualties rerun
                    # in-process (availability over memory caution).
                    broken = True
                    dicts[index] = _execute_payload(
                        payloads[index], self.registry, self.kernels
                    )
        finally:
            if owned:
                pool.shutdown()
            elif broken:
                # A broken warm pool would poison every later batch;
                # drop it so the owner's next start_pool() re-warms.
                self._discard_broken_pool(pool)
        for index in range(len(futures), len(payloads)):
            dicts[index] = _execute_payload(
                payloads[index], self.registry, self.kernels
            )
        return dicts


_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-wide session backing the legacy module-level API."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
