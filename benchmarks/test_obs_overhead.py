"""Observability overhead guard: disabled instrumentation must be free.

The engine is instrumented unconditionally — step/phase spans in the
runner, guarded per-rule/per-chunk sites in the search paths, metric
increments behind ``metrics.enabled`` checks (see :mod:`repro.obs`).
The design promise is that with tracing and metrics *off* (the
default, and what the perf gate next door runs with) all of that costs
under 2% of the cheapest pinned run.

Rather than diffing two noisy end-to-end walls, this guard measures
the disabled primitives directly — a ``NULL_TRACER`` span, a
``NULL_METRICS`` increment, an ``enabled`` guard check — multiplies by
a *generous over-estimate* of how many of each a pinned run performs,
and requires the total to stay under 2% of the fastest baselined
wall.  That bounds the instrumentation's worst case while staying
deterministic enough for CI.
"""

import json
from pathlib import Path
from time import perf_counter

from repro.obs import NULL_EVENTS, NULL_METRICS, NULL_TRACER
from repro.obs.events import EventLog

BASELINE_PATH = Path(__file__).parent / "baseline.json"

#: Maximum share of the fastest pinned run the disabled
#: instrumentation may cost.
MAX_OVERHEAD_FRACTION = 0.02

#: Over-estimates of per-run instrumentation op counts, far above what
#: the profile run (8 steps, ~130 rules) actually performs.
SPANS_PER_RUN = 150          # 12 step/phase/extract spans per step + request
GUARDS_PER_RUN = 20_000      # tracer.enabled / metrics.enabled checks
METRIC_CALLS_PER_RUN = 5_000  # disabled inc/set/observe calls reached
#: Structured events per served request (accepted + job.started +
#: completed + http.request, rounded way up).  The serve layer emits
#: into an *enabled* ring, so the budgeted op is the real ring append,
#: not just the disabled fast path.
EVENTS_PER_RUN = 20


def _per_op(callable_, iterations: int = 20_000) -> float:
    """Best-of-3 per-op seconds (best-of defeats scheduler noise)."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        for _ in range(iterations):
            callable_()
        best = min(best, perf_counter() - started)
    return best / iterations


def _null_span() -> None:
    with NULL_TRACER.span("step"):
        pass


def _null_metric() -> None:
    NULL_METRICS.inc("runner", "steps_total")


def _guard() -> bool:
    return NULL_TRACER.enabled or NULL_METRICS.enabled


def _null_event() -> None:
    NULL_EVENTS.emit("request.completed", tenant="t", status="done")


_RING = EventLog(ring_size=512)


def _ring_event() -> None:
    _RING.emit("request.completed", tenant="t", status="done",
               trace_id="0123456789abcdef", total_seconds=0.5)


def test_disabled_instrumentation_overhead_under_two_percent():
    baseline = json.loads(BASELINE_PATH.read_text())
    fastest_wall = min(
        entry["wall_seconds"] for entry in baseline["entries"].values()
    )
    budget = MAX_OVERHEAD_FRACTION * fastest_wall

    span_cost = _per_op(_null_span)
    metric_cost = _per_op(_null_metric)
    guard_cost = _per_op(_guard)
    null_event_cost = _per_op(_null_event)
    ring_event_cost = _per_op(_ring_event)
    total = (
        SPANS_PER_RUN * span_cost
        + METRIC_CALLS_PER_RUN * metric_cost
        + GUARDS_PER_RUN * guard_cost
        + EVENTS_PER_RUN * (null_event_cost + ring_event_cost)
    )
    assert total < budget, (
        f"disabled observability would cost {total * 1e3:.2f} ms per run "
        f"(span {span_cost * 1e6:.2f}us, metric {metric_cost * 1e6:.2f}us, "
        f"guard {guard_cost * 1e9:.0f}ns, "
        f"event {ring_event_cost * 1e6:.2f}us) — over "
        f"{budget * 1e3:.1f} ms "
        f"(2% of the fastest pinned wall {fastest_wall:.1f}s)"
    )


def test_null_singletons_retain_nothing():
    """The guard above is only meaningful if the no-op forms really
    discard: a leaking NULL_TRACER would also grow memory run over
    run."""
    with NULL_TRACER.span("probe", probed=True):
        pass
    NULL_METRICS.inc("probe", "calls_total")
    NULL_METRICS.observe("probe", "seconds", 0.5)
    NULL_EVENTS.emit("probe", probed=True)
    assert NULL_TRACER.events == []
    assert NULL_TRACER.open_depth == 0
    assert NULL_METRICS.families == {}
    assert len(NULL_EVENTS) == 0 and NULL_EVENTS.emitted == 0
