"""End-to-end observability: traced runs, report metrics, session
merging — the PR's acceptance criteria as tests."""

import json
from dataclasses import replace as dc_replace

import pytest

from repro.api import Session
from repro.api.limits import Limits
from repro.api.types import OptimizationReport, OptimizationRequest
from repro.kernels import registry
from repro.obs.trace import Tracer
from repro.pipeline import optimize
from repro.targets import make_target

LIMITS = dict(step_limit=2, node_limit=2500, time_limit=60.0)


def _cats(doc):
    counts = {}
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            continue
        counts[event["cat"]] = counts.get(event["cat"], 0) + 1
    return counts


def test_traced_gemv_run_has_all_span_levels(tmp_path):
    """A ``--trace`` gemv run must produce valid Chrome-trace JSON with
    session/step/phase/rule spans."""
    path = tmp_path / "gemv.json"
    result = optimize(
        registry.get("gemv"), make_target("blas"),
        trace=str(path), **LIMITS,
    )
    assert result.best_term is not None
    doc = json.loads(path.read_text())
    cats = _cats(doc)
    for category in ("session", "request", "step", "phase", "rule"):
        assert cats.get(category), f"no {category!r} spans in trace"


def test_trace_does_not_change_the_solution():
    kernel, target = registry.get("dot"), make_target("blas")
    plain = optimize(kernel, target, **LIMITS)
    traced = optimize(kernel, target, trace=Tracer(), metrics=True, **LIMITS)
    assert plain.solution_summary == traced.solution_summary
    assert plain.final.best_cost == traced.final.best_cost


def test_caller_owned_tracer_accumulates_across_runs():
    tracer = Tracer()
    optimize(registry.get("dot"), make_target("blas"), trace=tracer, **LIMITS)
    first = len(tracer.events)
    optimize(registry.get("vsum"), make_target("blas"), trace=tracer, **LIMITS)
    assert first > 0
    assert len(tracer.events) > first
    names = {e["name"] for e in tracer.events if e["cat"] == "request"}
    assert names == {"saturate:dot/blas", "saturate:vsum/blas"}


def test_report_metrics_round_trip_with_required_families(tmp_path):
    """OptimizationReport.metrics must survive JSON with cache, store
    and runner families populated."""
    session = Session(Limits(**LIMITS))
    report = session.report(OptimizationRequest(
        kernel="gemv", target="blas", metrics=True,
    ))
    assert report.ok
    assert report.metrics is not None
    families = report.metrics["families"]
    for family in ("cache", "store", "runner"):
        assert family in families, f"{family!r} family missing"
    restored = OptimizationReport.from_json(report.to_json())
    assert restored.metrics == report.metrics


def test_metrics_off_leaves_report_clean():
    session = Session(Limits(**LIMITS))
    report = session.report(OptimizationRequest(kernel="dot", target="blas"))
    assert report.ok
    assert report.metrics is None


def test_cache_hit_reports_carry_cache_family():
    session = Session(Limits(**LIMITS))
    request = OptimizationRequest(kernel="dot", target="blas", metrics=True)
    session.report(request)
    hit = session.report(request)
    assert hit.cache_hit
    cache = hit.metrics["families"]["cache"]
    assert cache["hits_total"]["samples"][0]["value"] >= 1


def test_batch_trace_merges_runs_into_one_file(tmp_path):
    path = tmp_path / "batch.json"
    session = Session(Limits(**LIMITS))
    reports = session.optimize_many([
        OptimizationRequest(kernel=k, target="blas", trace=str(path))
        for k in ("dot", "vsum")
    ], parallel=False)
    assert all(r.ok for r in reports)
    doc = json.loads(path.read_text())
    requests = {e["name"] for e in doc["traceEvents"]
                if e.get("cat") == "request"}
    assert requests == {"saturate:dot/blas", "saturate:vsum/blas"}
    # and the transient _trace side-channel never reaches the report
    assert all(not hasattr(r, "_trace") for r in reports)


def test_fully_cached_batch_still_writes_trace_file(tmp_path):
    """Cache hits ship no events, but asking for a trace must always
    produce a valid (session-only) file — CI uploads it with
    if-no-files-found: error."""
    warm = Session(Limits(**LIMITS))
    requests = [OptimizationRequest(kernel="dot", target="blas")]
    warm.optimize_many(requests, parallel=False)  # populate the cache
    path = tmp_path / "cached.json"
    traced = [dc_replace(r, trace=str(path)) for r in requests]
    reports = warm.optimize_many(traced, parallel=False)
    assert reports[0].cache_hit
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert [e["cat"] for e in spans] == ["session"]


def test_trace_and_metrics_do_not_fragment_the_cache():
    """Observability must be excluded from cache keys: a plain run's
    cached result answers a traced/metrics request."""
    base = Limits(**LIMITS)
    assert base.key() == base.override(
        trace="t.json", metrics=True
    ).key()


def test_cache_eviction_counter(tmp_path):
    session = Session(Limits(**LIMITS))
    session.report(OptimizationRequest(kernel="dot", target="blas"))
    assert session.cache.stats.evictions == 0
    session.cache.clear()
    assert session.cache.stats.evictions >= 1
    assert session.stats["evictions"] == session.cache.stats.evictions


def test_limits_env_and_request_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "env.json")
    monkeypatch.setenv("REPRO_METRICS", "1")
    limits = Limits.from_env()
    assert limits.trace == "env.json"
    assert limits.metrics is True
    data = limits.to_dict()
    assert Limits.from_dict(data) == limits
    # pre-obs dicts (no trace/metrics keys) still deserialize
    for key in ("trace", "metrics"):
        data.pop(key)
    old = Limits.from_dict(data)
    assert old.trace is None and old.metrics is False


def test_phase_timings_come_from_spans():
    """PhaseTimings is a consumer of the runner's phase spans: each
    step's recorded phase walls must be positive and sum to roughly
    the step's own span duration."""
    result = optimize(registry.get("dot"), make_target("blas"), **LIMITS)
    for record in result.steps[1:]:
        phases = record.phases
        assert phases is not None
        assert phases.total <= record.seconds + 0.05
        assert phases.search >= 0.0 and phases.extract >= 0.0


def test_rebuild_sub_phase_spans_nest_in_rebuild():
    """Every ``rebuild`` phase span holds one ``rebuild.repair``,
    ``rebuild.analysis`` and ``rebuild.signatures`` child, in that
    order, and the step's recorded rebuild time is the parent span's."""
    tracer = Tracer()
    result = optimize(registry.get("dot"), make_target("blas"),
                      trace=tracer, **LIMITS)
    rebuilds = [e for e in tracer.events if e["name"] == "rebuild"]
    assert len(rebuilds) == result.run.num_steps
    subs = ("rebuild.repair", "rebuild.analysis", "rebuild.signatures")
    for event, record in zip(rebuilds, result.steps[1:]):
        end = event["ts"] + event["dur"]
        inside = sorted(
            (e for e in tracer.events
             if e["name"].startswith("rebuild.")
             and event["ts"] <= e["ts"] and e["ts"] + e["dur"] <= end),
            key=lambda e: e["ts"],
        )
        assert tuple(e["name"] for e in inside) == subs
        assert all(e["cat"] == "phase" for e in inside)
        assert sum(e["dur"] for e in inside) <= event["dur"]
        assert record.phases.rebuild == event["dur"]


def test_search_dedup_span_nests_in_search():
    """Every ``search`` phase span holds a ``search.dedup`` child per
    search pass (two when a restricted step re-verifies with a full
    scan), and the step's recorded search time is the parent span's."""
    tracer = Tracer()
    result = optimize(registry.get("dot"), make_target("blas"),
                      trace=tracer, **LIMITS)
    searches = [e for e in tracer.events if e["name"] == "search"]
    assert len(searches) == result.run.num_steps
    for event, record in zip(searches, result.steps[1:]):
        end = event["ts"] + event["dur"]
        inside = [e for e in tracer.events
                  if e["name"] == "search.dedup"
                  and event["ts"] <= e["ts"] and e["ts"] + e["dur"] <= end]
        assert 1 <= len(inside) <= 2
        assert all(e["cat"] == "phase" for e in inside)
        assert sum(e["dur"] for e in inside) <= event["dur"]
        assert record.phases.search == event["dur"]
    dedups = [e for e in tracer.events if e["name"] == "search.dedup"]
    assert len(dedups) >= len(searches)


def test_rule_profile_phase_aggregation():
    from repro.saturation.telemetry import aggregate_phase_seconds

    total = aggregate_phase_seconds([
        {"search": 1.0, "apply": 0.5},
        None,
        {"search": 2.0, "rebuild": 0.25},
    ])
    assert total == {"apply": 0.5, "rebuild": 0.25, "search": 3.0}


@pytest.mark.parametrize("workers", [2])
def test_worker_spans_merge_monotonically(tmp_path, workers):
    """Events shipped back by ``optimize_many`` pool workers must land
    on per-pid lanes whose exported timestamps never run backwards."""
    path = tmp_path / "workers.json"
    session = Session(Limits(**LIMITS))
    reports = session.optimize_many([
        OptimizationRequest(kernel=k, target="blas", trace=str(path))
        for k in ("gemv", "vsum")
    ], max_workers=workers)
    assert all(r.ok for r in reports)
    doc = json.loads(path.read_text())
    last = {}
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            continue
        lane = event["tid"]
        assert event["ts"] >= last.get(lane, -1.0)
        last[lane] = event["ts"]
