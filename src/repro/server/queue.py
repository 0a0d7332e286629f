"""The async job queue behind ``POST /v1/optimize``.

A submission becomes a :class:`Job` — id, tenant, request, fully
resolved limits, and a status that walks ``queued → running →
done | failed``.  Jobs wait in a bounded FIFO; ``queue_workers``
consumer threads pull them and execute through the **shared**
:class:`~repro.api.session.Session`, which means every job sees the
same two-tier result cache (repeat requests across tenants are cache
hits, observable in ``CacheStats``) and, when the session's warm
persistent pool is running, saturates in an already-forked worker
process instead of re-forking per request.

The queue is also where the serve layer's observability comes
together per request: each job carries the request's ``trace_id``;
execution emits structured events (``job.started``, ``pool.restarted``,
``cache.evicted``, and the terminal ``request.completed``), observes
per-tenant latency histograms (queue-wait / run / end-to-end),
completes the job's flight-recorder entry, and — when a ``trace_dir``
is configured — merges the daemon-side queue-wait/run spans with the
engine and fork-pool worker spans the session accumulated into one
Chrome trace per request (``<trace_dir>/<trace_id>.trace.json``).

Job ids are unguessable capability tokens (``secrets.token_hex``):
whoever holds the id may poll it.  Completed jobs are retained for
polling up to ``retain_jobs``; beyond that the oldest finished jobs
are dropped (a poll for a dropped id is a 404, documented in
``docs/SERVER.md``).
"""

from __future__ import annotations

import queue as _queue
import secrets
import threading
import time
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..api.limits import Limits
from ..api.session import Session
from ..api.types import OptimizationReport, OptimizationRequest
from ..obs.events import NULL_EVENTS, EventLog, FlightRecorder
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import CAT_SERVER, Tracer

__all__ = ["Job", "JobQueue", "QueueFull",
           "QUEUED", "RUNNING", "DONE", "FAILED"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class QueueFull(Exception):
    """The pending-job queue is at ``max_queue`` capacity."""


@dataclass
class Job:
    """One optimization request's lifecycle inside the daemon."""

    id: str
    tenant: str
    request: OptimizationRequest
    limits: Limits
    status: str = QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    report: Optional[OptimizationReport] = None
    error: Optional[str] = None
    #: The HTTP request's correlation id (also stamped on every span
    #: and event this job produces); empty for direct queue callers.
    trace_id: str = ""
    #: ``perf_counter`` at submission — queue-wait and end-to-end
    #: latency are measured on the monotonic clock, not wall time.
    created_pc: float = field(default_factory=perf_counter)
    #: This request's flight-recorder entry, completed at job end.
    record: Optional[Dict[str, Any]] = None

    def to_dict(self, *, include_report: bool = True) -> dict:
        """The wire form served by ``GET /v1/jobs/<id>``."""
        data: Dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "status": self.status,
            "kernel": self.request.display_name,
            "target": self.request.target,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if self.trace_id:
            data["trace_id"] = self.trace_id
        if self.error is not None:
            data["error"] = self.error
        if include_report and self.report is not None:
            data["report"] = self.report.to_dict()
        return data


class JobQueue:
    """Bounded FIFO + worker threads over one shared session."""

    def __init__(
        self,
        session: Session,
        *,
        workers: int = 2,
        pool_workers: int = 0,
        max_queue: int = 64,
        retain_jobs: int = 1024,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        recorder: Optional[FlightRecorder] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.session = session
        self.workers = max(1, workers)
        self.pool_workers = max(0, pool_workers)
        self.retain_jobs = max(1, retain_jobs)
        self.metrics = metrics
        self.events = events
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.trace_dir = str(trace_dir) if trace_dir else None
        self._pending: "_queue.Queue[Optional[str]]" = _queue.Queue(
            maxsize=max_queue
        )
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # insertion order, for retention
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._running = False
        # Did the warm pool ever come up?  Distinguishes the lazy
        # re-warm after a broken pool (a pool.restarted event) from the
        # initial warm-up in start().
        self._pool_ever_warm = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        if self.pool_workers > 0:
            # Warm the persistent fork pool up front: the first request
            # should not pay the pool construction either.
            self.session.start_pool(self.pool_workers)
            if self.session.pool_warm:
                self._pool_ever_warm = True
                self.events.emit("pool.warm", workers=self.pool_workers)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        if not self._running:
            return
        self._running = False
        for _ in self._threads:
            try:
                self._pending.put_nowait(None)  # wake + exit sentinel
            except _queue.Full:
                pass
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self.session.close_pool()

    # -- submission / lookup --------------------------------------------
    def submit(self, tenant: str, request: OptimizationRequest,
               limits: Limits, *, trace_id: str = "",
               record: Optional[Dict[str, Any]] = None) -> Job:
        """Enqueue one admitted request; raises :class:`QueueFull`."""
        job = Job(
            id=secrets.token_hex(8),
            tenant=tenant,
            request=request,
            limits=limits,
            trace_id=trace_id,
            record=record,
        )
        if record is not None:
            self.recorder.update(record, job=job.id)
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._prune_locked()
        try:
            self._pending.put_nowait(job.id)
        except _queue.Full:
            with self._lock:
                self._jobs.pop(job.id, None)
                try:
                    self._order.remove(job.id)
                except ValueError:
                    pass
            raise QueueFull(
                f"job queue is full ({self._pending.maxsize} pending)"
            ) from None
        self.metrics.inc("server", "jobs_submitted_total",
                         help="jobs accepted into the queue",
                         tenant=tenant)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order
                    if job_id in self._jobs]
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        return jobs

    def active_count(self, tenant: str) -> int:
        """Queued-or-running jobs for one tenant (the concurrency gate)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.tenant == tenant and job.status in (QUEUED, RUNNING)
            )

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return counts

    def depth(self) -> int:
        return self._pending.qsize()

    def _prune_locked(self) -> None:
        """Drop the oldest *finished* jobs beyond the retention cap."""
        excess = len(self._jobs) - self.retain_jobs
        if excess <= 0:
            return
        kept: List[str] = []
        for job_id in self._order:
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if excess > 0 and job.status in (DONE, FAILED):
                del self._jobs[job_id]
                excess -= 1
            else:
                kept.append(job_id)
        self._order = kept

    # -- execution ------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self._pending.get()
            if job_id is None:  # shutdown sentinel
                return
            job = self.get(job_id)
            if job is None:
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        job.status = RUNNING
        job.started = time.time()
        started_pc = perf_counter()
        if self.pool_workers > 0:
            # Lazily re-warm after a broken pool was discarded
            # mid-batch; a no-op while the pool is healthy.
            was_warm = self.session.pool_warm
            self.session.start_pool(self.pool_workers)
            if self.session.pool_warm and not was_warm:
                if self._pool_ever_warm:
                    self.events.emit("pool.restarted",
                                     trace_id=job.trace_id or None,
                                     workers=self.pool_workers)
                    self.metrics.inc("server", "pool_restarts_total",
                                     help="warm fork pools rebuilt after "
                                          "a broken pool was discarded")
                self._pool_ever_warm = True
        self.events.emit("job.started", job=job.id, tenant=job.tenant,
                         trace_id=job.trace_id or None,
                         kernel=job.request.display_name,
                         target=job.request.target)
        request = job.request
        trace_path: Optional[str] = None
        if self.trace_dir and job.trace_id:
            # Per-request merged Chrome trace.  The trace knob is
            # volatile (excluded from cache keys and fingerprints), so
            # setting it server-side preserves the byte-identity
            # contract with one-shot runs.
            trace_path = str(
                Path(self.trace_dir) / f"{job.trace_id}.trace.json"
            )
            request = dc_replace(request, trace=trace_path)
        if job.trace_id and request.trace_id != job.trace_id:
            request = dc_replace(request, trace_id=job.trace_id)
        evictions_before = self.session.cache.stats.evictions
        try:
            reports = self.session.optimize_many(
                [request], parallel=self.pool_workers > 0
            )
            report = reports[0]
            job.report = report
            if report.ok:
                job.status = DONE
            else:
                job.status = FAILED
                job.error = report.error
        except Exception as exc:  # the daemon must survive any job
            job.status = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        job.finished = time.time()
        finished_pc = perf_counter()
        queue_wait = max(0.0, started_pc - job.created_pc)
        run_seconds = max(0.0, finished_pc - started_pc)
        total_seconds = max(0.0, finished_pc - job.created_pc)
        evicted = self.session.cache.stats.evictions - evictions_before
        if evicted > 0:
            self.events.emit("cache.evicted", count=evicted,
                             trace_id=job.trace_id or None)
        self._finish_observation(
            job, queue_wait, run_seconds, total_seconds, trace_path,
        )

    def _finish_observation(self, job: Job, queue_wait: float,
                            run_seconds: float, total_seconds: float,
                            trace_path: Optional[str]) -> None:
        """Metrics, events, flight record, and the merged trace for one
        finished job."""
        report = job.report
        stop_reason = report.stop_reason if report is not None else None
        cache_hit = report.cache_hit if report is not None else None
        self.metrics.inc("server", "jobs_completed_total",
                         help="jobs that reached a terminal status",
                         tenant=job.tenant, status=job.status)
        self.metrics.observe(
            "server", "queue_wait_seconds", queue_wait,
            help="submission-to-start latency", tenant=job.tenant,
        )
        self.metrics.observe(
            "server", "job_seconds", run_seconds,
            help="job execution wall time", tenant=job.tenant,
        )
        self.metrics.observe(
            "server", "e2e_seconds", total_seconds,
            help="submission-to-completion latency", tenant=job.tenant,
        )
        if trace_path is not None:
            # Before request.completed: a reader that waits for the
            # event must find the merged trace, not a half-written file.
            self._write_request_trace(
                job, queue_wait, run_seconds, trace_path,
            )
        # Exactly one request.completed per accepted request — the
        # rejected path emits its own (with the 4xx code) in app.py.
        self.events.emit(
            "request.completed", trace_id=job.trace_id or None,
            tenant=job.tenant, job=job.id,
            kernel=job.request.display_name, target=job.request.target,
            status=job.status, stop_reason=stop_reason or None,
            cache_hit=cache_hit, error=job.error,
            queue_wait_seconds=round(queue_wait, 6),
            run_seconds=round(run_seconds, 6),
            total_seconds=round(total_seconds, 6),
        )
        if job.record is not None:
            self.recorder.update(
                job.record, outcome=job.status,
                stop_reason=stop_reason or None, cache_hit=cache_hit,
                error=job.error,
                queue_wait_seconds=round(queue_wait, 6),
                run_seconds=round(run_seconds, 6),
                total_seconds=round(total_seconds, 6),
                trace_path=trace_path, finished=job.finished,
            )

    def _write_request_trace(self, job: Job, queue_wait: float,
                             run_seconds: float, trace_path: str) -> None:
        """Merge the daemon-side spans with whatever the session
        accumulated for this request's trace path and write the file.

        The daemon lane gets the full request span plus queue-wait and
        run sub-spans; the session contributes the engine spans (and,
        under the fork pool, each worker pid's lane) it harvested from
        ``optimize_many`` — one file tells the whole story of one
        request, across processes.
        """
        tracer = Tracer()
        started_pc = job.created_pc + queue_wait
        tracer.add_complete(
            f"request:{job.request.display_name}/{job.request.target}",
            CAT_SERVER, job.created_pc, queue_wait + run_seconds,
            trace_id=job.trace_id, tenant=job.tenant, job=job.id,
            status=job.status,
        )
        tracer.add_complete("queue_wait", CAT_SERVER, job.created_pc,
                            queue_wait, trace_id=job.trace_id)
        tracer.add_complete("run", CAT_SERVER, started_pc, run_seconds,
                            trace_id=job.trace_id)
        try:
            self.session.finish_trace(
                trace_path, tracer.export_events(),
                session_name=f"request:{job.trace_id}",
                metadata={"trace_id": job.trace_id, "tenant": job.tenant},
            )
        except OSError:
            # Trace capture must never take a request down with it.
            pass
