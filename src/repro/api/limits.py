"""Saturation resource limits, unified across every entry point.

Before this package existed the repo carried three conflicting default
profiles — ``pipeline.DEFAULT_LIMITS`` (10 000 e-nodes), the CLI's
``--nodes`` default (8 000), and ``experiments.node_limit()`` (12 000).
:class:`Limits` is now the single source of truth: 8 saturation steps,
12 000 e-nodes, 120 s wall clock — the benchmark-suite profile, which
is the heaviest consumer and the one the paper artifacts were produced
with.  The CLI, the experiment harness, and :class:`~repro.api.Session`
all resolve through it, and the environment knobs

* ``REPRO_STEP_LIMIT`` — saturation steps per kernel,
* ``REPRO_NODE_LIMIT`` — e-node budget,
* ``REPRO_TIME_LIMIT`` — wall-clock cap in seconds,
* ``REPRO_SCHEDULER`` — rule scheduler (``simple`` or ``backoff``),
* ``REPRO_RULE_PROFILE`` — path to a recorded ``--rule-profile`` JSON
  used to prune historically wasteful rules before the run
  (:mod:`repro.saturation.pruning`),
* ``REPRO_EXTRACTOR`` — per-step extraction strategy (``greedy``, the
  paper's tree-cost default, or ``dag``, which prices shared subterms
  once; :mod:`repro.extraction`),
* ``REPRO_TOP_K`` — how many cheapest distinct solutions to enumerate
  at the root after the run (1 = just the best;
  :mod:`repro.extraction.topk`),
* ``REPRO_CHECK`` — ``1``/``true`` runs the e-graph invariant verifier
  (:mod:`repro.check.egraph`) after every saturation step and aborts
  on the first violation (off by default: the sweep is O(graph) per
  step and exists for debugging/CI, not the hot path),
* ``REPRO_TRACE`` — path to write a Chrome-trace-event JSON of the run
  (session/request/step/phase/rule spans plus run-worker lanes; open
  it in Perfetto — :mod:`repro.obs.trace`; off by default),
* ``REPRO_METRICS`` — ``1``/``true`` populates the metrics registry
  (:mod:`repro.obs.metrics`) during the run and snapshots it onto
  ``OptimizationReport.metrics`` (off by default),

override the defaults everywhere at once.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Tuple

from ..extraction import EXTRACTOR_NAMES
from ..saturation.schedulers import SCHEDULER_NAMES

__all__ = ["Limits", "Knob", "KNOBS", "CAPPABLE_FIELDS"]


@dataclass(frozen=True)
class Knob:
    """One configuration knob across its three surfaces.

    Every :class:`Limits` field is settable three ways — as a dataclass
    field, as a ``REPRO_*`` environment variable, and as a CLI flag —
    and :data:`KNOBS` is the single source of truth tying them
    together.  The README configuration table is generated from and
    audited against this registry (``tools/check_docs.py`` fails CI
    when the three surfaces drift).
    """

    field: str  #: Limits dataclass field name
    env: str  #: REPRO_* environment variable
    flag: str  #: CLI flag on the main driver
    default: object  #: the shipped default value
    summary: str  #: one-line meaning, reused by docs


KNOBS: Tuple[Knob, ...] = (
    Knob("step_limit", "REPRO_STEP_LIMIT", "--steps", 8,
         "saturation steps per run"),
    Knob("node_limit", "REPRO_NODE_LIMIT", "--nodes", 12_000,
         "e-node budget per run"),
    Knob("time_limit", "REPRO_TIME_LIMIT", "--time-limit", 120.0,
         "wall-clock cap per run, seconds"),
    Knob("scheduler", "REPRO_SCHEDULER", "--scheduler", "simple",
         "rule scheduler: 'simple' or egg-style 'backoff'"),
    Knob("rule_profile", "REPRO_RULE_PROFILE", "--prune-from-profile", None,
         "recorded rule-profile JSON driving pre-run rule pruning"),
    Knob("extractor", "REPRO_EXTRACTOR", "--extractor", "greedy",
         "extraction strategy: 'greedy' (tree cost) or 'dag'"),
    Knob("top_k", "REPRO_TOP_K", "--top-k", 1,
         "enumerate the K cheapest distinct solutions"),
    Knob("check", "REPRO_CHECK", "--check", False,
         "verify e-graph invariants after every step"),
    Knob("trace", "REPRO_TRACE", "--trace", None,
         "Chrome-trace JSON output path (Perfetto)"),
    Knob("metrics", "REPRO_METRICS", "--metrics", False,
         "snapshot the metrics registry onto reports"),
)

#: Numeric budget fields a serving tenant can be capped on
#: (:meth:`Limits.exceeding`; see ``repro.server.admission``).
CAPPABLE_FIELDS: Tuple[str, ...] = (
    "step_limit", "node_limit", "time_limit", "top_k",
)


def _profile_digest(path: str) -> str:
    """Content digest of a rule-profile file for cache keying.

    An unreadable path digests to a sentinel tagged with the path
    itself; the run will fail loudly in the pruning loader anyway, and
    the sentinel keeps ``key()`` exception-free for callers that only
    build keys (cache lookups, report serialization).
    """
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
        return f"profile:{digest.hexdigest()}"
    except OSError:
        return f"profile-unreadable:{path}"


@dataclass(frozen=True)
class Limits:
    """Resource budget (and scheduling policy) for one
    equality-saturation run."""

    step_limit: int = 8
    node_limit: int = 12_000
    time_limit: float = 120.0
    scheduler: str = "simple"
    rule_profile: Optional[str] = None
    extractor: str = "greedy"
    top_k: int = 1
    check: bool = False
    trace: Optional[str] = None
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.step_limit < 0:
            raise ValueError(f"step_limit must be >= 0, got {self.step_limit}")
        if self.node_limit <= 0:
            raise ValueError(f"node_limit must be > 0, got {self.node_limit}")
        if self.time_limit <= 0:
            raise ValueError(f"time_limit must be > 0, got {self.time_limit}")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"scheduler must be one of {SCHEDULER_NAMES}, "
                f"got {self.scheduler!r}"
            )
        if self.extractor not in EXTRACTOR_NAMES:
            raise ValueError(
                f"extractor must be one of {EXTRACTOR_NAMES}, "
                f"got {self.extractor!r}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "Limits":
        """Defaults overridden by ``REPRO_*`` environment variables."""
        env = os.environ if env is None else env
        base = cls()
        return cls(
            step_limit=int(env.get("REPRO_STEP_LIMIT", base.step_limit)),
            node_limit=int(env.get("REPRO_NODE_LIMIT", base.node_limit)),
            time_limit=float(env.get("REPRO_TIME_LIMIT", base.time_limit)),
            scheduler=env.get("REPRO_SCHEDULER", base.scheduler),
            rule_profile=env.get("REPRO_RULE_PROFILE") or None,
            extractor=env.get("REPRO_EXTRACTOR", base.extractor),
            top_k=int(env.get("REPRO_TOP_K", base.top_k)),
            check=env.get("REPRO_CHECK", "").strip().lower()
            in ("1", "true", "yes", "on"),
            trace=env.get("REPRO_TRACE") or None,
            metrics=env.get("REPRO_METRICS", "").strip().lower()
            in ("1", "true", "yes", "on"),
        )

    def override(
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
    ) -> "Limits":
        """A copy with any non-``None`` field replaced.

        New knobs append at the end of the signature: several callers
        pass the older ones positionally."""
        updates = {
            name: value
            for name, value in (
                ("step_limit", step_limit),
                ("node_limit", node_limit),
                ("time_limit", time_limit),
                ("scheduler", scheduler),
                ("rule_profile", rule_profile),
                ("extractor", extractor),
                ("top_k", top_k),
                ("check", check),
                ("trace", trace),
                ("metrics", metrics),
            )
            if value is not None
        }
        return replace(self, **updates) if updates else self

    def as_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.pipeline.optimize`."""
        return {
            "step_limit": self.step_limit,
            "node_limit": self.node_limit,
            "time_limit": self.time_limit,
            "scheduler": self.scheduler,
            "rule_profile": self.rule_profile,
            "extractor": self.extractor,
            "top_k": self.top_k,
            "check": self.check,
            "trace": self.trace,
            "metrics": self.metrics,
        }

    def to_dict(self) -> dict:
        return dict(self.as_kwargs())

    @classmethod
    def from_dict(cls, data: Mapping) -> "Limits":
        return cls(
            step_limit=int(data["step_limit"]),
            node_limit=int(data["node_limit"]),
            time_limit=float(data["time_limit"]),
            # Reports and cache entries written before a knob existed
            # carry no key for it; they ran with the knob's default
            # (simple scheduler, no pruning).
            scheduler=str(data.get("scheduler", "simple")),
            rule_profile=data.get("rule_profile") or None,
            extractor=str(data.get("extractor", "greedy")),
            top_k=int(data.get("top_k", 1)),
            check=bool(data.get("check", False)),
            trace=data.get("trace") or None,
            metrics=bool(data.get("metrics", False)),
        )

    def exceeding(self, caps: Mapping[str, float]) -> List[str]:
        """Names of budget fields whose value exceeds ``caps``.

        ``caps`` maps :data:`CAPPABLE_FIELDS` names to their maximum
        allowed values — the per-tenant budget unit of the serving
        daemon (``repro.server``).  An unknown cap name raises
        ``ValueError``: a typo in a ``serve.toml`` tenant section must
        not silently admit everything.
        """
        unknown = sorted(set(caps) - set(CAPPABLE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown limit cap(s) {unknown}; "
                f"cappable fields are {list(CAPPABLE_FIELDS)}"
            )
        over: List[str] = []
        for field in CAPPABLE_FIELDS:
            cap = caps.get(field)
            if cap is not None and getattr(self, field) > cap:
                over.append(field)
        return over

    def key(self) -> tuple:
        """Hashable cache-key fragment.

        ``rule_profile`` changes the rule set, hence the results — but
        only joins the key when set, so every pre-pruning cache entry
        stays valid.  It joins as a *content* digest, not the path: the
        persistent disk cache must not serve stale results after the
        profile file at the same path is re-recorded (and two
        directories' unrelated ``p.json`` files must not collide in a
        shared cache).  ``extractor`` and ``top_k`` likewise join only
        when non-default, so every pre-extraction-engine cache entry
        stays valid — and since both change the produced report
        (preferred solutions, candidate lists), they must join when
        set.  ``check`` is excluded: the invariant verifier observes
        the run without changing its results — and ``trace`` /
        ``metrics`` are excluded for the same reason (observability
        never changes what a run computes).
        """
        base = (self.step_limit, self.node_limit, self.time_limit,
                self.scheduler)
        if self.rule_profile is not None:
            base = base + (_profile_digest(self.rule_profile),)
        if self.extractor != "greedy":
            base = base + (f"extractor:{self.extractor}",)
        if self.top_k != 1:
            base = base + (f"top_k:{self.top_k}",)
        return base
