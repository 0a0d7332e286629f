"""The ``repro serve`` daemon: optimization as a long-lived service.

A :class:`ThreadingHTTPServer` (stdlib only) wrapping **one** shared
:class:`~repro.api.session.Session` behind the async
:class:`~repro.server.queue.JobQueue`:

* ``POST /v1/optimize`` — an :class:`~repro.api.types.OptimizationRequest`
  JSON body in, a job id out (``202 Accepted``); the job executes on
  the session's warm persistent worker pool and its report lands in
  the shared two-tier result cache, so repeat requests — from any
  tenant — are answered without re-saturation.
* ``GET /v1/jobs/<id>`` — poll status; a ``done`` job carries the full
  :class:`~repro.api.types.OptimizationReport`.
* ``GET /v1/healthz`` / ``GET /v1/metrics`` — liveness JSON and the
  Prometheus text exposition of the server + cache counters
  (``?format=json`` serves the raw ``repro-metrics/1`` snapshot).
* ``GET /v1/debug/requests`` — the flight recorder: the last N
  optimize requests with tenant, trace id, timings, and outcome.

Every response carries an ``X-Repro-Trace-Id`` header: the per-request
correlation id minted here (or honored from the client), stamped on
every structured event, metric-adjacent flight record, and span the
request produces — one id stitches the HTTP accept, admission, queue
wait, saturation (including fork-pool worker lanes), and extraction
into a single merged Chrome trace (see docs/OBSERVABILITY.md).

Every rejection — admission (429/413), auth (401/403), malformed
bodies (400), unknown routes/jobs (404) — uses one structured error
shape (see :mod:`repro.server.admission` and ``docs/SERVER.md``).

Route handling lives on :class:`OptimizationServer.handle_request`,
pure request-tuple → response-tuple, so the whole wire surface is unit
testable without opening a socket.
"""

from __future__ import annotations

import json
import re
import secrets
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..api.session import Session
from ..api.types import OptimizationRequest
from ..obs.events import EventLog, FlightRecorder, format_event
from ..obs.metrics import (
    CONTENT_TYPE_LATEST,
    MetricsRegistry,
    merge_snapshots,
    to_prometheus,
)
from .admission import AdmissionController, AdmissionError
from .config import ServeConfig
from .queue import JobQueue, QueueFull

__all__ = ["OptimizationServer", "SERVER_VERSION", "TRACE_ID_HEADER"]

SERVER_VERSION = "repro-serve/1"

#: The correlation-id response header (also honored on requests when
#: the supplied value matches :data:`_TRACE_ID_RE`).
TRACE_ID_HEADER = "X-Repro-Trace-Id"

#: Client-supplied trace ids must look like ids, not payloads.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{4,64}$")

#: Limits knobs that name server-side file paths.  A remote client
#: must not steer daemon file I/O, so requests carrying them are
#: rejected with 400 ``path_knob_forbidden``; operators set them
#: server-wide via the ``[limits]`` section of serve.toml instead.
PATH_KNOBS = ("trace", "rule_profile")

Response = Tuple[int, str, bytes, Dict[str, str]]


def _json_bytes(payload: Mapping[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class OptimizationServer:
    """One shared session, one job queue, one admission policy."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 session: Optional[Session] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.session = session if session is not None else Session(
            self.config.resolved_limits(), cache_dir=self.config.cache_dir
        )
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(self.config)
        obs = self.config.observability
        self.events = EventLog(ring_size=obs.ring_size, sink=obs.event_log,
                               echo=self._echo_event)
        self.recorder = FlightRecorder(obs.flight_recorder)
        if obs.trace_dir:
            Path(obs.trace_dir).mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(
            self.session,
            workers=self.config.queue_workers,
            pool_workers=self.config.pool_workers,
            max_queue=self.config.max_queue,
            retain_jobs=self.config.retain_jobs,
            metrics=self.metrics,
            events=self.events,
            recorder=self.recorder,
            trace_dir=obs.trace_dir,
        )
        self.started_at = time.time()
        self.verbose = False
        self._httpd = _HTTPServer((self.config.host, self.config.port), self)
        self._thread: Optional[threading.Thread] = None
        self.events.emit("server.started", version=SERVER_VERSION,
                         package_version=_package_version(),
                         host=self.host, port=self.port)

    # -- addressing -----------------------------------------------------
    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the queue workers and the HTTP listener thread."""
        if self._thread is not None:
            return
        self.queue.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, drain worker threads, shut the pool down."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        self.queue.stop()
        self.events.emit(
            "server.stopped",
            uptime_seconds=round(time.time() - self.started_at, 3),
        )
        self.events.close()

    # -- routing --------------------------------------------------------
    def handle_request(self, method: str, path: str,
                       headers: Mapping[str, str],
                       body: bytes) -> Response:
        """(method, path, headers, body) → (status, ctype, body, extra).

        Socket-free on purpose: tests drive the full wire surface by
        calling this directly.  Every response — success or rejection —
        carries the request's correlation id in ``X-Repro-Trace-Id``.
        """
        started = perf_counter()
        trace_id = self._resolve_trace_id(headers)
        split = urlsplit(path)
        route = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        try:
            if route == "/v1/optimize" and method == "POST":
                response = self._post_optimize(headers, body, trace_id)
            elif route == "/v1/healthz" and method == "GET":
                response = self._get_healthz()
            elif route == "/v1/metrics" and method == "GET":
                response = self._get_metrics(query)
            elif route == "/v1/targets" and method == "GET":
                response = self._get_targets()
            elif route == "/v1/jobs" and method == "GET":
                response = self._get_jobs(query)
            elif route.startswith("/v1/jobs/") and method == "GET":
                response = self._get_job(route[len("/v1/jobs/"):])
            elif route == "/v1/debug/requests" and method == "GET":
                response = self._get_debug_requests(headers, query)
            elif route in ("/v1/optimize", "/v1/healthz", "/v1/metrics",
                           "/v1/targets", "/v1/jobs",
                           "/v1/debug/requests") \
                    or route.startswith("/v1/jobs/"):
                raise AdmissionError(
                    405, "method_not_allowed",
                    f"{method} is not supported on {route}",
                )
            else:
                raise AdmissionError(404, "not_found",
                                     f"no such endpoint: {route}")
        except AdmissionError as exc:
            self.metrics.inc("server", "admission_rejections_total",
                             help="requests rejected before queueing",
                             code=exc.code)
            if route == "/v1/optimize" and method == "POST":
                self._observe_rejection(exc, headers, body, trace_id)
            extra: Dict[str, str] = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = str(max(1, int(exc.retry_after + 0.5)))
            response = (exc.status, "application/json",
                        _json_bytes(exc.to_dict()), extra)
        except Exception as exc:  # never leak a traceback to the wire
            response = (
                500, "application/json",
                _json_bytes({"error": {
                    "status": 500, "code": "internal_error",
                    "message": f"{type(exc).__name__}: {exc}",
                }}),
                {},
            )
        headers_out = dict(response[3])
        headers_out[TRACE_ID_HEADER] = trace_id
        response = (response[0], response[1], response[2], headers_out)
        self.metrics.inc("server", "http_requests_total",
                         help="HTTP requests served",
                         method=method, status=response[0])
        self.events.emit(
            "http.request", trace_id=trace_id, method=method, route=route,
            status=response[0],
            duration_ms=round((perf_counter() - started) * 1e3, 3),
        )
        return response

    def _resolve_trace_id(self, headers: Mapping[str, str]) -> str:
        """Honor a well-formed client-supplied trace id, else mint one."""
        supplied = headers.get(TRACE_ID_HEADER) or ""
        if _TRACE_ID_RE.match(supplied):
            return supplied
        return secrets.token_hex(8)

    def _observe_rejection(self, exc: AdmissionError,
                           headers: Mapping[str, str], body: bytes,
                           trace_id: str) -> None:
        """A rejected optimize request still reaches the event log and
        the flight recorder — with the 4xx status and code — so the
        debug surfaces never silently drop traffic."""
        tenant: Optional[str] = None
        kernel: Optional[str] = None
        target: Optional[str] = None
        try:  # best-effort context; the gates already said no
            tenant = self.admission.authenticate(headers).name
        except AdmissionError:
            pass
        try:
            data = json.loads(body.decode("utf-8"))
            if isinstance(data, dict):
                kernel = data.get("kernel") or data.get("name")
                target = data.get("target")
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        self.recorder.record(
            trace_id=trace_id, tenant=tenant, kernel=kernel, target=target,
            status=exc.status, code=exc.code, outcome="rejected",
            created=time.time(),
        )
        self.events.emit("request.rejected", trace_id=trace_id,
                         tenant=tenant, status=exc.status, code=exc.code)
        self.events.emit(
            "request.completed", trace_id=trace_id, tenant=tenant,
            kernel=kernel, target=target, outcome="rejected",
            status=exc.status, code=exc.code,
        )

    # -- endpoints ------------------------------------------------------
    def _post_optimize(self, headers: Mapping[str, str],
                       body: bytes, trace_id: str) -> Response:
        if len(body) > self.config.max_body_bytes:
            raise AdmissionError(
                413, "body_too_large",
                f"request body is {len(body)} bytes; "
                f"cap is {self.config.max_body_bytes}",
            )
        tenant = self.admission.authenticate(headers)
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise AdmissionError(400, "bad_json",
                                 f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise AdmissionError(400, "bad_request",
                                 "request body must be a JSON object")
        for knob in PATH_KNOBS:
            if data.get(knob) is not None:
                raise AdmissionError(
                    400, "path_knob_forbidden",
                    f"{knob!r} names a server-side file path; it is "
                    "configured in serve.toml [limits], not per request",
                )
        try:
            request = OptimizationRequest.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise AdmissionError(400, "bad_request", str(exc)) from exc
        if request.target not in self.session.registry:
            raise AdmissionError(
                400, "unknown_target",
                f"unknown target {request.target!r}; this server has "
                f"{tuple(self.session.registry.names())}",
            )
        if request.kernel is not None:
            try:
                self.session.kernels.get(request.kernel)
            except KeyError as exc:
                raise AdmissionError(
                    400, "unknown_kernel",
                    f"unknown kernel {request.kernel!r}",
                ) from exc
        try:
            limits = self.session.resolve_limits(
                request.step_limit, request.node_limit, request.time_limit,
                request.scheduler, request.rule_profile, request.extractor,
                request.top_k, check=request.check,
                trace=request.trace, metrics=request.metrics,
            )
        except ValueError as exc:
            raise AdmissionError(400, "bad_request", str(exc)) from exc
        self.admission.admit(
            tenant, request.target, limits,
            self.queue.active_count(tenant.name),
        )
        # The flight record exists before the job is enqueued so the
        # queue can complete it even if the job finishes instantly.
        record = self.recorder.record(
            trace_id=trace_id, tenant=tenant.name,
            kernel=request.display_name, target=request.target,
            status=202, outcome="queued", created=time.time(),
        )
        try:
            job = self.queue.submit(tenant.name, request, limits,
                                    trace_id=trace_id, record=record)
        except QueueFull as exc:
            self.recorder.discard(record)
            raise AdmissionError(429, "queue_full", str(exc),
                                 retry_after=1.0) from exc
        self.events.emit(
            "request.accepted", trace_id=trace_id, tenant=tenant.name,
            job=job.id, kernel=request.display_name, target=request.target,
        )
        return (
            202, "application/json",
            _json_bytes({"job": job.to_dict(include_report=False)}),
            {"Location": f"/v1/jobs/{job.id}"},
        )

    def _get_job(self, job_id: str) -> Response:
        job = self.queue.get(job_id)
        if job is None:
            raise AdmissionError(
                404, "unknown_job",
                f"no job {job_id!r} (never submitted, or already "
                "dropped by retention)",
            )
        return (200, "application/json",
                _json_bytes({"job": job.to_dict()}), {})

    def _get_jobs(self, query: Mapping[str, List[str]]) -> Response:
        tenant = (query.get("tenant") or [None])[0]
        jobs = [job.to_dict(include_report=False)
                for job in self.queue.jobs(tenant)]
        return (200, "application/json", _json_bytes({"jobs": jobs}), {})

    def _get_healthz(self) -> Response:
        obs = self.config.observability
        payload = {
            "status": "ok",
            "version": SERVER_VERSION,
            "package_version": _package_version(),
            "started_at": round(self.started_at, 3),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": self.queue.counts(),
            "queue_depth": self.queue.depth(),
            "pool": {
                "workers": self.config.pool_workers,
                "warm": self.session.pool_warm,
            },
            "cache": self.session.stats,
            "targets": self._served_targets(),
            # The observability configuration echo: repro top and the
            # smoke test assert against this stable schema.
            "observability": {
                "event_log": obs.event_log,
                "ring_size": obs.ring_size,
                "flight_recorder": obs.flight_recorder,
                "trace_dir": obs.trace_dir,
                "debug_auth": obs.debug_token is not None,
                "events_emitted": self.events.emitted,
            },
        }
        return (200, "application/json", _json_bytes(payload), {})

    def _get_targets(self) -> Response:
        return (200, "application/json",
                _json_bytes({"targets": self._served_targets()}), {})

    def _get_metrics(self, query: Mapping[str, List[str]]) -> Response:
        self.metrics.set("server", "queue_depth", self.queue.depth(),
                         help="jobs waiting for a worker")
        self.metrics.set("server", "uptime_seconds",
                         time.time() - self.started_at,
                         help="seconds since the daemon started")
        snapshot = merge_snapshots([
            self.metrics.snapshot(),
            self.session.cache.stats.to_metrics_snapshot(),
        ])
        if (query.get("format") or [""])[0] == "json":
            # The raw repro-metrics/1 snapshot: what `repro top` polls
            # (bucket counts included, quantiles computed client-side).
            return (200, "application/json", _json_bytes(snapshot), {})
        return (200, CONTENT_TYPE_LATEST,
                to_prometheus(snapshot).encode("utf-8"), {})

    def _get_debug_requests(self, headers: Mapping[str, str],
                            query: Mapping[str, List[str]]) -> Response:
        token = self.config.observability.debug_token
        if token is not None:
            if headers.get("Authorization", "") != f"Bearer {token}":
                raise AdmissionError(
                    403, "debug_forbidden",
                    "this endpoint requires the observability.debug_token "
                    "bearer token",
                )
        try:
            n = int((query.get("n") or ["50"])[0])
        except ValueError as exc:
            raise AdmissionError(400, "bad_request",
                                 "n must be an integer") from exc
        tenant = (query.get("tenant") or [None])[0]
        requests = self.recorder.requests(max(0, n), tenant=tenant)
        return (200, "application/json",
                _json_bytes({"requests": requests,
                             "count": len(requests),
                             "capacity": self.recorder.capacity}), {})

    def _served_targets(self) -> List[str]:
        names = self.session.target_names()
        if self.config.allowed_targets is not None:
            names = [n for n in names if n in self.config.allowed_targets]
        return names

    # -- logging --------------------------------------------------------
    def log(self, message: str) -> None:
        """Free-form daemon messages land in the structured event log
        (kind ``server.log``); the verbose flag only controls whether
        events are *echoed* to stderr, not whether they are recorded."""
        self.events.emit("server.log", message=message)

    def _echo_event(self, event: Dict[str, Any]) -> None:
        if self.verbose:
            print(f"repro serve: {format_event(event)}", file=sys.stderr)


def _package_version() -> str:
    from .. import __version__

    return __version__


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a back-pointer to the app."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 app: OptimizationServer) -> None:
        self.app = app
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = SERVER_VERSION
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> OptimizationServer:
        server = self.server
        assert isinstance(server, _HTTPServer)
        return server.app

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        # Read at most one byte past the cap so oversize bodies are
        # detected without buffering an unbounded payload.  A
        # truncated read leaves bytes on the socket, so the connection
        # cannot be reused for a next request.
        cap = self.app.config.max_body_bytes
        body = self.rfile.read(min(length, cap + 1)) if length else b""
        if length > len(body):
            self.close_connection = True
        status, ctype, payload, extra = self.app.handle_request(
            method, self.path, self.headers, body
        )
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        # handle_request already emits the structured ``http.request``
        # event per response; the stock access-log line would be a
        # duplicate with less information.
        pass

    def log_message(self, format: str, *args: Any) -> None:
        # Socket-level errors (the only remaining BaseHTTPRequestHandler
        # callers) land in the structured log like everything else.
        self.app.log(format % args)
