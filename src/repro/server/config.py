"""Declarative daemon configuration (``serve.toml``).

One TOML file names everything a deployment of the optimization
service needs — the docker-compose-style shape the ROADMAP asks for:
the listen address, queue/pool worker counts, the server-side default
:class:`~repro.api.limits.Limits`, the target (rule-set) allow list,
and per-tenant budgets (token, request rate, concurrency, and caps on
every numeric limit field).  Parsed with the stdlib ``tomllib`` — no
new dependencies — and validated strictly: an unknown key anywhere is
a :class:`ConfigError`, never a silently ignored typo.

Example (the annotated reference copy lives in ``docs/SERVER.md``)::

    [server]
    host = "127.0.0.1"
    port = 8135
    queue_workers = 4       # concurrent saturations
    pool_workers = 4        # warm fork-pool size (0 = in-process)
    max_queue = 64
    cache_dir = "/var/cache/repro"

    [limits]                # server-side defaults, Limits field names
    step_limit = 8
    node_limit = 12000
    scheduler = "backoff"

    [admission]
    allow_anonymous = true
    max_body_bytes = 1048576
    rate = 10.0             # anonymous bucket: requests/second
    burst = 20
    max_active_jobs = 8

    [targets]
    allow = ["blas", "pytorch"]

    [observability]
    event_log = "/var/log/repro/events.jsonl"  # JSONL sink
    ring_size = 512         # in-process event ring
    flight_recorder = 256   # GET /v1/debug/requests depth
    trace_dir = "/var/log/repro/traces"  # per-request Chrome traces
    debug_token = "ops-secret"  # Bearer auth for /v1/debug/*

    [tenants.ci]
    token = "ci-secret"
    rate = 5.0
    burst = 10
    max_active_jobs = 4
    targets = ["blas"]
    [tenants.ci.caps]       # Limits fields this tenant may not exceed
    step_limit = 8
    node_limit = 12000
    time_limit = 120.0
    top_k = 3
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..api.limits import CAPPABLE_FIELDS, Limits

__all__ = ["ConfigError", "TenantConfig", "ObservabilityConfig",
           "ServeConfig", "ANONYMOUS_TENANT", "SERVE_TOML_KEYS"]

ANONYMOUS_TENANT = "anonymous"

_LIMIT_KEYS = ("step_limit", "node_limit", "time_limit", "scheduler",
               "rule_profile", "extractor", "top_k", "check", "trace",
               "metrics")

#: Every serve.toml section and its allowed keys — the single source
#: the strict validation below *and* the ``tools/check_docs.py`` audit
#: (each key must appear in docs/SERVER.md) both read.  ``tenants.*``
#: covers each ``[tenants.<name>]`` table.
SERVE_TOML_KEYS: Dict[str, Tuple[str, ...]] = {
    "server": ("host", "port", "queue_workers", "pool_workers",
               "max_queue", "retain_jobs", "cache_dir"),
    "limits": _LIMIT_KEYS,
    "admission": ("allow_anonymous", "max_body_bytes", "rate", "burst",
                  "max_active_jobs", "caps"),
    "targets": ("allow",),
    "observability": ("event_log", "ring_size", "flight_recorder",
                      "trace_dir", "debug_token"),
    "tenants.*": ("token", "rate", "burst", "max_active_jobs", "caps",
                  "targets"),
}


class ConfigError(ValueError):
    """A serve.toml the daemon refuses to start on."""


def _require_keys(section: str, data: Mapping[str, Any],
                  allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in [{section}]; "
            f"allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's identity and budget."""

    name: str
    #: Shared secret presented as ``Authorization: Bearer <token>``;
    #: ``None`` means the tenant is addressed by the ``X-Repro-Tenant``
    #: header alone (trusted-network deployments).
    token: Optional[str] = None
    #: Token-bucket refill rate, requests per second.
    rate: float = 10.0
    #: Token-bucket capacity (instantaneous burst).
    burst: int = 20
    #: Maximum queued-or-running jobs at once.
    max_active_jobs: int = 8
    #: Per-request :class:`Limits` caps (field name → maximum); an
    #: over-budget request is rejected with a structured 413.
    caps: Mapping[str, float] = field(default_factory=dict)
    #: Targets this tenant may request; ``None`` defers to the
    #: server-wide allow list.
    targets: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: rate must be > 0, got {self.rate}"
            )
        if self.burst < 1:
            raise ConfigError(
                f"tenant {self.name!r}: burst must be >= 1, got {self.burst}"
            )
        if self.max_active_jobs < 1:
            raise ConfigError(
                f"tenant {self.name!r}: max_active_jobs must be >= 1, "
                f"got {self.max_active_jobs}"
            )
        unknown = sorted(set(self.caps) - set(CAPPABLE_FIELDS))
        if unknown:
            raise ConfigError(
                f"tenant {self.name!r}: unknown cap(s) {unknown}; "
                f"cappable fields are {list(CAPPABLE_FIELDS)}"
            )

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "TenantConfig":
        _require_keys(f"tenants.{name}", data, SERVE_TOML_KEYS["tenants.*"])
        targets = data.get("targets")
        return cls(
            name=name,
            token=data.get("token"),
            rate=float(data.get("rate", cls.rate)),
            burst=int(data.get("burst", cls.burst)),
            max_active_jobs=int(data.get("max_active_jobs",
                                         cls.max_active_jobs)),
            caps=dict(data.get("caps", {})),
            targets=tuple(targets) if targets is not None else None,
        )


@dataclass(frozen=True)
class ObservabilityConfig:
    """The ``[observability]`` table: serve-layer tracing and events.

    All optional — the daemon runs fully instrumented either way; this
    table only decides what leaves the process (JSONL sink, per-request
    trace files) and who may read the debug endpoints.
    """

    #: JSONL sink for the structured event log (``repro-events/1``);
    #: ``None`` keeps events in the in-process ring only.
    event_log: Optional[str] = None
    #: In-process event ring size (newest-N retained).
    ring_size: int = 512
    #: Flight-recorder depth: how many recent optimize requests
    #: ``GET /v1/debug/requests`` can report.
    flight_recorder: int = 256
    #: Directory for per-request merged Chrome traces
    #: (``<trace_dir>/<trace_id>.trace.json``); ``None`` disables
    #: per-request trace capture.
    trace_dir: Optional[str] = None
    #: Bearer token required by ``/v1/debug/*``; ``None`` leaves the
    #: debug endpoints open (loopback/dev deployments).
    debug_token: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ring_size < 1:
            raise ConfigError(
                f"observability.ring_size must be >= 1, got {self.ring_size}"
            )
        if self.flight_recorder < 1:
            raise ConfigError(
                "observability.flight_recorder must be >= 1, "
                f"got {self.flight_recorder}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObservabilityConfig":
        _require_keys("observability", data, SERVE_TOML_KEYS["observability"])
        return cls(
            event_log=data.get("event_log"),
            ring_size=int(data.get("ring_size", cls.ring_size)),
            flight_recorder=int(data.get("flight_recorder",
                                         cls.flight_recorder)),
            trace_dir=data.get("trace_dir"),
            debug_token=data.get("debug_token"),
        )


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs, from one TOML file."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (announced on stdout —
    #: tests and the CI smoke script rely on this).
    port: int = 8135
    #: Queue-consumer threads = concurrent saturations in flight.
    queue_workers: int = 2
    #: Warm persistent fork-pool size; 0 executes jobs in-process
    #: (also the automatic fallback where ``fork`` is unavailable).
    pool_workers: int = 2
    #: Pending-job cap; submissions beyond it get a structured 429.
    max_queue: int = 64
    #: Completed jobs retained for polling before the oldest are
    #: dropped.
    retain_jobs: int = 1024
    #: Optional disk tier for the shared result cache.
    cache_dir: Optional[str] = None
    #: Server-side default limits; ``None`` resolves
    #: ``Limits.from_env()`` at server construction.
    limits: Optional[Limits] = None
    #: Serve anonymous requests (no token, no tenant header)?
    allow_anonymous: bool = True
    #: Request-body size cap, bytes (413 beyond it).
    max_body_bytes: int = 1_048_576
    #: Anonymous-tenant bucket and caps (named tenants override).
    anonymous: TenantConfig = field(
        default_factory=lambda: TenantConfig(name=ANONYMOUS_TENANT)
    )
    #: Server-wide target allow list; ``None`` = every registered
    #: target.
    allowed_targets: Optional[Tuple[str, ...]] = None
    #: Named tenants (name → config).
    tenants: Mapping[str, TenantConfig] = field(default_factory=dict)
    #: Serve-layer observability (event log, flight recorder, traces).
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )

    def __post_init__(self) -> None:
        if self.queue_workers < 1:
            raise ConfigError(
                f"queue_workers must be >= 1, got {self.queue_workers}"
            )
        if self.pool_workers < 0:
            raise ConfigError(
                f"pool_workers must be >= 0, got {self.pool_workers}"
            )
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_body_bytes < 1:
            raise ConfigError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )

    def resolved_limits(self) -> Limits:
        """The server-side default budget."""
        return self.limits if self.limits is not None else Limits.from_env()

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ServeConfig":
        """Parse and validate a ``serve.toml``."""
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # Python 3.10
            raise ConfigError(
                "reading serve.toml requires Python 3.11+ (stdlib "
                "tomllib); construct ServeConfig(...) programmatically "
                "on older interpreters"
            ) from exc

        try:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeConfig":
        _require_keys("<root>", data,
                      ("server", "limits", "admission", "targets",
                       "observability", "tenants"))
        server = dict(data.get("server", {}))
        _require_keys("server", server, SERVE_TOML_KEYS["server"])
        admission = dict(data.get("admission", {}))
        _require_keys("admission", admission, SERVE_TOML_KEYS["admission"])
        targets_section = dict(data.get("targets", {}))
        _require_keys("targets", targets_section, SERVE_TOML_KEYS["targets"])
        observability = ObservabilityConfig.from_dict(
            dict(data.get("observability", {}))
        )

        limits_section = dict(data.get("limits", {}))
        _require_keys("limits", limits_section, _LIMIT_KEYS)
        limits: Optional[Limits] = None
        if limits_section:
            try:
                base = Limits.from_env().to_dict()
                base.update(limits_section)
                limits = Limits.from_dict(base)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid [limits]: {exc}") from exc

        anonymous = TenantConfig(
            name=ANONYMOUS_TENANT,
            rate=float(admission.get("rate", TenantConfig.rate)),
            burst=int(admission.get("burst", TenantConfig.burst)),
            max_active_jobs=int(admission.get(
                "max_active_jobs", TenantConfig.max_active_jobs)),
            caps=dict(admission.get("caps", {})),
        )
        tenants: Dict[str, TenantConfig] = {}
        for name, tenant_data in dict(data.get("tenants", {})).items():
            if name == ANONYMOUS_TENANT:
                raise ConfigError(
                    f"tenant name {ANONYMOUS_TENANT!r} is reserved; "
                    "configure it via [admission]"
                )
            if not isinstance(tenant_data, Mapping):
                raise ConfigError(f"[tenants.{name}] must be a table")
            tenants[name] = TenantConfig.from_dict(name, tenant_data)

        allow = targets_section.get("allow")
        return cls(
            host=str(server.get("host", cls.host)),
            port=int(server.get("port", cls.port)),
            queue_workers=int(server.get("queue_workers", cls.queue_workers)),
            pool_workers=int(server.get("pool_workers", cls.pool_workers)),
            max_queue=int(server.get("max_queue", cls.max_queue)),
            retain_jobs=int(server.get("retain_jobs", cls.retain_jobs)),
            cache_dir=server.get("cache_dir"),
            limits=limits,
            allow_anonymous=bool(admission.get("allow_anonymous", True)),
            max_body_bytes=int(admission.get("max_body_bytes",
                                             cls.max_body_bytes)),
            anonymous=anonymous,
            allowed_targets=tuple(allow) if allow is not None else None,
            tenants=tenants,
            observability=observability,
        )
