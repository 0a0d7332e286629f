"""Thin client for the ``repro serve`` daemon.

:class:`RemoteSession` speaks the wire protocol of
:mod:`repro.server.app` over stdlib ``urllib`` and exposes the subset
of the :class:`~repro.api.session.Session` surface the batch CLI and
tests consume — ``report()`` / ``optimize_many()`` returning
:class:`~repro.api.types.OptimizationReport` objects — so
``python -m repro --remote URL`` is the same driver talking to a
daemon instead of saturating in-process.

Limit resolution: the daemon applies *its own* default limits to
fields a request leaves unset.  To make remote runs reproduce local
ones byte-for-byte (:func:`repro.api.types.report_fingerprint`), a
``RemoteSession(limits=...)`` embeds every result-bearing limit field
explicitly into each request before posting; the observability knobs
(``trace`` — a server-side file path — and ``metrics``) are never
embedded.

Low-level calls (:meth:`submit`, :meth:`wait`, :meth:`healthz`) raise
:class:`RemoteError` carrying the server's structured error; the
``Session``-shaped calls (:meth:`report`, :meth:`optimize_many`)
degrade to error *reports* instead, exactly like the in-process pool
workers, so a batch driver never dies on one bad request.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union
from urllib import error as urlerror
from urllib import request as urlrequest

from ..api.limits import Limits
from ..api.types import OptimizationReport, OptimizationRequest
from ..targets.base import Target

__all__ = ["RemoteError", "RemoteSession"]

RequestLike = Union[OptimizationRequest, Tuple[str, str], dict]

#: Limit fields embedded explicitly when ``limits`` is given: every
#: knob that (or whose default) participates in what the run computes.
_EMBED_FIELDS = ("step_limit", "node_limit", "time_limit", "scheduler",
                 "extractor", "top_k", "check")


class RemoteError(RuntimeError):
    """A structured error answer from the daemon."""

    def __init__(self, status: int, code: str, message: str,
                 detail: Optional[Mapping[str, Any]] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.detail = dict(detail) if detail else None
        self.retry_after = retry_after


class RemoteSession:
    """A Session-shaped handle on a running ``repro serve`` daemon."""

    def __init__(
        self,
        url: str,
        *,
        limits: Optional[Limits] = None,
        tenant: Optional[str] = None,
        token: Optional[str] = None,
        timeout: float = 600.0,
        poll_interval: float = 0.05,
    ) -> None:
        self.url = url.rstrip("/")
        self.limits = limits
        self.tenant = tenant
        self.token = token
        self.timeout = timeout
        self.poll_interval = poll_interval
        #: ``X-Repro-Trace-Id`` from the most recent response (every
        #: daemon response carries one — including errors).
        self.last_trace_id: Optional[str] = None

    # -- HTTP plumbing --------------------------------------------------
    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        return headers

    def _call(self, method: str, path: str,
              payload: Optional[Mapping[str, Any]] = None) -> Any:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        req = urlrequest.Request(
            self.url + path, data=body, headers=self._headers(),
            method=method,
        )
        try:
            with urlrequest.urlopen(req, timeout=30.0) as response:
                text = response.read().decode("utf-8")
                ctype = response.headers.get("Content-Type", "")
                self.last_trace_id = response.headers.get(
                    "X-Repro-Trace-Id", self.last_trace_id
                )
        except urlerror.HTTPError as exc:
            if exc.headers is not None:
                self.last_trace_id = exc.headers.get(
                    "X-Repro-Trace-Id", self.last_trace_id
                )
            raise self._remote_error(exc) from None
        except urlerror.URLError as exc:
            raise RemoteError(0, "unreachable",
                              f"cannot reach {self.url}: {exc.reason}"
                              ) from None
        if ctype.startswith("application/json"):
            return json.loads(text)
        return text

    @staticmethod
    def _remote_error(exc: urlerror.HTTPError) -> RemoteError:
        try:
            data = json.loads(exc.read().decode("utf-8"))
            error = data["error"]
            return RemoteError(
                int(error["status"]), str(error["code"]),
                str(error["message"]), error.get("detail"),
                error.get("retry_after_seconds"),
            )
        except Exception:
            return RemoteError(exc.code, "http_error", str(exc))

    # -- daemon introspection -------------------------------------------
    def healthz(self) -> dict:
        result = self._call("GET", "/v1/healthz")
        assert isinstance(result, dict)
        return result

    def metrics_text(self) -> str:
        """The daemon's Prometheus text exposition."""
        result = self._call("GET", "/v1/metrics")
        assert isinstance(result, str)
        return result

    def metrics_json(self) -> dict:
        """The raw ``repro-metrics/1`` snapshot (``?format=json``)."""
        result = self._call("GET", "/v1/metrics?format=json")
        assert isinstance(result, dict)
        return result

    def debug_requests(self, n: Optional[int] = None,
                       tenant: Optional[str] = None) -> List[dict]:
        """The daemon's request flight recorder, newest first."""
        params = []
        if n is not None:
            params.append(f"n={int(n)}")
        if tenant is not None:
            from urllib.parse import quote

            params.append(f"tenant={quote(tenant)}")
        suffix = ("?" + "&".join(params)) if params else ""
        result = self._call("GET", "/v1/debug/requests" + suffix)
        return list(result["requests"])

    def target_names(self) -> List[str]:
        result = self._call("GET", "/v1/targets")
        return list(result["targets"])

    def target(self, name: str) -> Target:
        """Resolve a target from the *local* registry (``--run`` needs
        the runtime and cost model in-process; solutions still come
        from the daemon)."""
        from ..api.registry import target_registry

        return target_registry.get(name)

    # -- request shaping ------------------------------------------------
    def _normalize(self, request: RequestLike) -> OptimizationRequest:
        if isinstance(request, OptimizationRequest):
            normalized = request
        elif isinstance(request, dict):
            normalized = OptimizationRequest.from_dict(request)
        elif isinstance(request, (tuple, list)) and len(request) == 2:
            kernel, target = request
            normalized = OptimizationRequest(kernel=kernel, target=target)
        else:
            raise TypeError(
                f"cannot interpret {request!r} as an optimization request"
            )
        if self.limits is None:
            return normalized
        from dataclasses import replace

        updates = {
            field: getattr(self.limits, field)
            for field in _EMBED_FIELDS
            if getattr(normalized, field) is None
        }
        return replace(normalized, **updates) if updates else normalized

    # -- job API --------------------------------------------------------
    def submit(self, request: RequestLike) -> str:
        """POST one request; returns the job id (raises RemoteError)."""
        normalized = self._normalize(request)
        answer = self._call("POST", "/v1/optimize", normalized.to_dict())
        return str(answer["job"]["id"])

    def job(self, job_id: str) -> dict:
        answer = self._call("GET", f"/v1/jobs/{job_id}")
        job = answer["job"]
        assert isinstance(job, dict)
        return job

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> OptimizationReport:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.timeout)
        interval = self.poll_interval
        while True:
            job = self.job(job_id)
            if job["status"] in ("done", "failed"):
                if "report" in job:
                    return OptimizationReport.from_dict(job["report"])
                # Failed before a report existed (queue-level error).
                return OptimizationReport.from_error(
                    {"name": job.get("kernel"), "target": job.get("target")},
                    job.get("error") or "job failed without a report",
                )
            if time.monotonic() >= deadline:
                raise RemoteError(
                    0, "timeout",
                    f"job {job_id} still {job['status']} after "
                    f"{timeout if timeout is not None else self.timeout:g}s",
                )
            time.sleep(interval)
            interval = min(interval * 2, 1.0)

    # -- Session-shaped surface -----------------------------------------
    def report(self, request: RequestLike) -> OptimizationReport:
        """One request → one report; errors become error reports."""
        return self.optimize_many([request], parallel=False)[0]

    def optimize_many(
        self,
        requests: Sequence[RequestLike],
        *,
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> List[OptimizationReport]:
        """Submit every request, then await them all, in order.

        ``parallel`` / ``max_workers`` are accepted for Session
        signature compatibility; concurrency is the daemon's business
        (all jobs are in flight at once regardless).
        """
        normalized = [self._normalize(r) for r in requests]
        job_ids: List[Optional[str]] = []
        reports: Dict[int, OptimizationReport] = {}
        for index, request in enumerate(normalized):
            try:
                answer = self._call("POST", "/v1/optimize",
                                    request.to_dict())
                job_ids.append(str(answer["job"]["id"]))
            except RemoteError as exc:
                job_ids.append(None)
                reports[index] = self._error_report(request, exc)
        for index, job_id in enumerate(job_ids):
            if job_id is None:
                continue
            try:
                reports[index] = self.wait(job_id)
            except RemoteError as exc:
                reports[index] = self._error_report(normalized[index], exc)
        return [reports[index] for index in range(len(normalized))]

    @staticmethod
    def _error_report(request: OptimizationRequest,
                      exc: RemoteError) -> OptimizationReport:
        return OptimizationReport.from_error(
            {"name": request.display_name, "kernel": request.kernel,
             "target": request.target},
            f"{exc.code}: {exc.message}",
        )
