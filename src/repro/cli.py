"""Command-line evaluation driver, mirroring the artifact's
``evaluate_all.py`` workflow, rebuilt on the session API.

Examples::

    python -m repro                          # optimize all kernels, all targets
    python -m repro gemv vsum -t blas        # subset of kernels/targets
    python -m repro --steps 10 --nodes 12000 --out results/
    python -m repro gemv --run               # also execute + time solutions
    python -m repro -j 4                     # fan the batch across 4 processes
    python -m repro --cache-dir ~/.cache/repro   # persist results on disk
    python -m repro --scheduler backoff      # egg-style rule backoff
    python -m repro --rule-profile prof.json # dump per-rule telemetry
    python -m repro --extractor dag          # DAG-aware extraction
    python -m repro gemv --top-k 3 --run     # time the 3 cheapest solutions
    python -m repro --provenance prov.json   # dump solution_rules per run
    python -m repro check-rules              # static rule-soundness analysis
    python -m repro check-rules --ruleset blas --json
    python -m repro check-egraph --kernel dot  # per-step invariant sweep
    python -m repro serve --port 8135        # optimization-as-a-service daemon
    python -m repro serve --config serve.toml  # declarative deployment
    python -m repro gemv --remote http://host:8135  # batch via the daemon
    python -m repro top http://host:8135     # live daemon console

Limits default to the unified :class:`repro.api.Limits` profile and
honour ``REPRO_STEP_LIMIT`` / ``REPRO_NODE_LIMIT`` /
``REPRO_TIME_LIMIT`` / ``REPRO_SCHEDULER``; explicit flags win over
the environment.

Outputs per target: an ``<target>-overview.csv`` (the artifact's
column layout: name, externs, steps, nodes), a rendered text table,
and — with ``--run`` — a ``speedups.csv``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .analysis.reporting import (
    SolutionRow,
    SpeedupRow,
    format_externs,
    render_solution_table,
    render_speedup_table,
    solutions_csv,
    speedups_csv,
)
from .api.limits import Limits
from .api.session import Session
from .api.registry import target_registry
from .backend.executor import (
    outputs_match,
    run_solution,
    time_callable,
    time_solution,
)
from .kernels import registry

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    defaults = Limits()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LIAR evaluation driver (tables II/III, fig. 7 data)",
    )
    parser.add_argument(
        "kernels", nargs="*",
        help="kernel names to evaluate (default: the full table I suite)",
    )
    parser.add_argument(
        "-t", "--targets", nargs="+", default=["blas", "pytorch"],
        choices=target_registry.names(),
        help="targets to optimize for (default: blas pytorch)",
    )
    parser.add_argument("--steps", type=int, default=None,
                        help=f"saturation step limit (default {defaults.step_limit})")
    parser.add_argument("--nodes", type=int, default=None,
                        help=f"e-node limit (default {defaults.node_limit})")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock limit per kernel in seconds "
                             f"(default {defaults.time_limit:g})")
    from .saturation.schedulers import SCHEDULER_NAMES
    parser.add_argument("--scheduler", choices=SCHEDULER_NAMES, default=None,
                        help="rule scheduler: 'simple' searches every rule "
                             "every step, 'backoff' bans explosive rules "
                             "egg-style (default: REPRO_SCHEDULER or "
                             f"'{defaults.scheduler}')")
    parser.add_argument("--rule-profile", type=Path, default=None,
                        metavar="PATH",
                        help="write per-rule saturation telemetry (search "
                             "time, matches, unions, bans, solution-"
                             "contributing unions) for every run to this "
                             "JSON file")
    from .extraction import EXTRACTOR_NAMES
    parser.add_argument("--extractor", choices=EXTRACTOR_NAMES, default=None,
                        help="per-step extraction strategy: 'greedy' is the "
                             "paper's tree-cost default, 'dag' prices shared "
                             "subterms once (default: REPRO_EXTRACTOR or "
                             f"'{defaults.extractor}')")
    parser.add_argument("--top-k", type=_positive_int, default=None,
                        metavar="K",
                        help="also enumerate the K cheapest distinct "
                             "solutions per run (with --run, each candidate "
                             "is timed and the empirically fastest one is "
                             "used; default: REPRO_TOP_K or "
                             f"{defaults.top_k})")
    parser.add_argument("--provenance", type=Path, default=None,
                        metavar="PATH",
                        help="write rule provenance (each run's "
                             "solution_rules and top-k candidates) to this "
                             "JSON file")
    parser.add_argument("--prune-from-profile", type=Path, default=None,
                        metavar="PATH",
                        help="before each run, drop rules a previously "
                             "recorded --rule-profile JSON shows to be "
                             "wasteful for the kernel's class (huge match "
                             "counts, near-zero unions)")
    parser.add_argument("-j", "--jobs", type=_positive_int, default=1,
                        help="optimize (kernel, target) pairs on a process "
                             "pool of this size (default 1: in-process)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persist optimization reports as JSON here and "
                             "reuse them across invocations")
    parser.add_argument("--check", action="store_true",
                        help="run the e-graph invariant verifier after every "
                             "saturation step and abort on the first "
                             "violation (default: REPRO_CHECK; off — the "
                             "sweep is O(graph) per step)")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="record every run's spans (request/step/phase/"
                             "rule, plus worker lanes under -j) and write "
                             "one merged Chrome-trace JSON here — open it "
                             "in Perfetto (default: REPRO_TRACE; off)")
    parser.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                        help="collect engine metrics (runner/store/"
                             "extraction/cache families) during every run "
                             "and write the merged snapshot here in the "
                             "Prometheus text format (default: "
                             "REPRO_METRICS; off)")
    parser.add_argument("--remote", metavar="URL", default=None,
                        help="send requests to a running `repro serve` "
                             "daemon instead of saturating in-process; "
                             "explicit limit flags are embedded in each "
                             "request so remote reports reproduce local "
                             "ones byte-for-byte")
    parser.add_argument("--tenant", default=None,
                        help="tenant name sent as X-Repro-Tenant with "
                             "--remote")
    parser.add_argument("--token", default=None,
                        help="bearer token sent as Authorization with "
                             "--remote")
    parser.add_argument("--run", action="store_true",
                        help="execute and time the extracted solutions")
    parser.add_argument("--budget", type=float, default=0.25,
                        help="timing budget per measurement with --run")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for CSV/table outputs")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


def _time_and_check(kernel, target, report, budget, speedups) -> bool:
    """--run: execute the solution term, verify it, record its speedup.

    With ``--top-k`` > 1 the static cost model's ranking is not
    trusted: every candidate is executed and timed, and the
    empirically fastest one becomes the solution that gets verified
    and recorded (the :func:`repro.analysis.coverage.pick_fastest`
    path).
    """
    solution = report.best_term
    inputs = kernel.inputs(0)
    if report.candidates and len(report.candidates) > 1:
        from .analysis.coverage import pick_fastest
        from .ir.parser import parse

        terms = [parse(entry["solution"]) for entry in report.candidates]
        index, _ = pick_fastest(terms, inputs, target.runtime)
        solution = terms[index]
    got = run_solution(solution, inputs, target.runtime)
    if not outputs_match(got, kernel.reference(inputs)):
        return False
    # Time on the compiled substrate (the paper's compiled-C analogue);
    # fall back to the interpreter for terms the vectorizer cannot lower.
    from .backend.numpy_compiler import CompileError

    try:
        from .backend.executor import time_compiled

        ref = time_compiled(kernel.term, inputs, budget)
        lib = time_compiled(solution, inputs, budget)
    except CompileError:
        ref = time_callable(lambda: kernel.reference_loops(inputs), budget)
        lib = time_solution(solution, inputs, target.runtime, budget)
    speedups.append(SpeedupRow(
        kernel=kernel.name,
        library_speedup=ref.mean_seconds / lib.mean_seconds,
        pure_c_speedup=None,
    ))
    return True


def _report_row(report, target_name, seconds, quiet) -> Optional[SolutionRow]:
    """Print one report's status line and convert it to a table row.

    Returns ``None`` (after printing to stderr) for failed reports.
    """
    if not report.ok:
        print(f"error: [{target_name}] {report.kernel}: {report.error}",
              file=sys.stderr)
        return None
    if not quiet:
        hit = " (cached)" if report.cache_hit else ""
        print(
            f"[{target_name}] {report.kernel:10s} {seconds:6.1f}s "
            f"steps={report.steps} nodes={report.enodes:6d} "
            f"[{report.solution_summary}]{hit}"
        )
    return SolutionRow(
        kernel=report.kernel,
        externs=format_externs(report.library_calls),
        steps=report.steps,
        enodes=report.enodes,
    )


def _parallel_rows(session, kernels, target_name, args, quiet, collected) -> tuple:
    """Batch one target's kernels through the process pool."""
    reports = session.optimize_many(
        [(kernel.name, target_name) for kernel in kernels],
        max_workers=args.jobs,
    )
    rows, failures = [], 0
    for report in reports:
        collected.append(report)
        row = _report_row(report, target_name, report.seconds, quiet)
        if row is None:
            failures += 1
            continue
        rows.append(row)
    return rows, failures


def _write_provenance(path: Path, limits, reports) -> None:
    """Dump rule provenance as JSON (schema ``repro-provenance/1``).

    One entry per run: the rules whose unions/creations touched an
    e-class of the extracted solution (``solution_rules``), the rules
    pruning dropped beforehand, and — under ``--top-k`` — the candidate
    solutions with their static costs.  Runs answered from a
    pre-provenance cache carry ``solution_rules: null``.
    """
    provenance = {
        "schema": "repro-provenance/1",
        "limits": limits.to_dict(),
        "runs": [
            {
                "kernel": report.kernel,
                "target": report.target,
                "extractor": report.extractor,
                "best_cost": report.best_cost
                if math.isfinite(report.best_cost) else None,
                "solution_summary": report.solution_summary,
                "solution_rules": report.solution_rules,
                "pruned_rules": report.pruned_rules,
                "candidates": report.candidates,
                "cache_hit": report.cache_hit,
            }
            for report in reports
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(provenance, indent=2, sort_keys=True))


def _write_rule_profile(path: Path, limits, reports) -> None:
    """Dump per-rule saturation telemetry as JSON.

    Schema (``repro-rule-profile/1``): ``limits`` echoes the resolved
    budget; ``runs`` has one entry per (kernel, target) run with its
    ``rule_stats`` (name → search_seconds / searches / matches_found /
    rediscovered / matches_applied / unions / apply_seconds / nodes_added /
    effective_applications / bans / banned_steps / solution_unions) and
    ``phase_seconds`` (search / apply / rebuild / extract totals);
    ``aggregate`` sums ``rule_stats`` across all runs and
    ``aggregate_phase_seconds`` sums the per-run ``phase_seconds``
    (search / apply / rebuild / extract walls plus the cpu variants)
    the same way.  Runs answered from a pre-telemetry cache carry
    ``rule_stats: null``.
    """
    from .saturation.telemetry import (
        aggregate_phase_seconds,
        aggregate_rule_stats,
    )

    profile = {
        "schema": "repro-rule-profile/1",
        "limits": limits.to_dict(),
        "runs": [
            {
                "kernel": report.kernel,
                "target": report.target,
                "scheduler": report.scheduler,
                "stop_reason": report.stop_reason,
                "steps": report.steps,
                "enodes": report.enodes,
                "seconds": report.seconds,
                "cache_hit": report.cache_hit,
                "phase_seconds": report.phase_seconds,
                "rule_stats": report.rule_stats,
                "pruned_rules": report.pruned_rules,
            }
            for report in reports
        ],
        "aggregate": aggregate_rule_stats(
            [report.rule_stats or {} for report in reports]
        ),
        "aggregate_phase_seconds": aggregate_phase_seconds(
            [report.phase_seconds for report in reports]
        ),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(profile, indent=2, sort_keys=True))


def _write_metrics(path: Path, session, reports) -> None:
    """Merge every run's metrics snapshot with the session's final
    cache counters and write the result as Prometheus text.

    Each report's snapshot carries the cache family *as of its serve
    time*; only the per-run engine families are merged here, and the
    session's final cache counters join once — otherwise N reports
    would each re-add the whole session history.
    """
    from .obs.metrics import SNAPSHOT_SCHEMA, merge_snapshots, to_prometheus

    snapshots = []
    for report in reports:
        if not report.metrics:
            continue
        families = dict(report.metrics.get("families") or {})
        families.pop("cache", None)
        snapshots.append({"schema": SNAPSHOT_SCHEMA, "families": families})
    snapshots.append(session.cache.stats.to_metrics_snapshot())
    merged = merge_snapshots(snapshots)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus(merged))


def _check_rules_main(argv: List[str]) -> int:
    """``repro check-rules``: static rule-soundness analysis."""
    from .check import has_errors, render_json, render_text
    from .check.rules import RULESETS, analyze_ruleset

    parser = argparse.ArgumentParser(
        prog="repro check-rules",
        description="Statically analyze rewrite rules for soundness "
                    "(binding, De Bruijn hygiene, arity, shape "
                    "preservation) and saturation hygiene.",
    )
    parser.add_argument(
        "--ruleset", nargs="+", choices=sorted(RULESETS), default=None,
        help="rule-sets to analyze (default: all shipped sets)",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    args = parser.parse_args(argv)
    findings = []
    for name in args.ruleset or sorted(RULESETS):
        findings.extend(analyze_ruleset(name))
    print(render_json(findings) if args.json else render_text(findings))
    return 1 if has_errors(findings) else 0


def _check_egraph_main(argv: List[str]) -> int:
    """``repro check-egraph``: saturate kernels with a per-step
    invariant sweep and report every violation."""
    from .check import has_errors, render_json, render_text
    from .check.egraph import verify
    from .egraph.analysis import ShapeAnalysis
    from .egraph.egraph import EGraph
    from .saturation.runner import Runner

    defaults = Limits.from_env()
    parser = argparse.ArgumentParser(
        prog="repro check-egraph",
        description="Run equality saturation with the e-graph invariant "
                    "verifier at every step boundary (hashcons, "
                    "congruence, union-find, slot store, parent lists, "
                    "leaf index, analysis fixpoint).",
    )
    parser.add_argument("--kernel", nargs="+", default=["dot"],
                        choices=registry.names(),
                        help="kernels to saturate (default: dot)")
    parser.add_argument("-t", "--target", default="blas",
                        choices=target_registry.names(),
                        help="target rule-set (default: blas)")
    parser.add_argument("--steps", type=int, default=defaults.step_limit)
    parser.add_argument("--nodes", type=int, default=defaults.node_limit)
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    args = parser.parse_args(argv)

    session = Session()
    target = session.target(args.target)
    findings = []
    for name in args.kernel:
        kernel = registry.get(name)
        egraph = EGraph(ShapeAnalysis(kernel.symbol_shapes))
        root = egraph.add_term(kernel.term)
        runner = Runner(
            egraph, list(target.rules),
            step_limit=args.steps, node_limit=args.nodes,
            time_limit=defaults.time_limit,
        )
        steps_clean = []

        def sweep(runner, step, _record, _kernel=name, _clean=steps_clean):
            found = verify(runner.egraph)
            for diagnostic in found:
                findings.append(diagnostic)
            if not found:
                _clean.append(step)

        runner.on_step_end.append(sweep)
        runner.run(root, cost_model=target.cost_model)
        if not args.json:
            print(f"[{args.target}] {name}: {len(steps_clean)} step(s) "
                  "verified clean")
    if args.json:
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    return 1 if has_errors(findings) else 0


def _raise_keyboard_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _serve_main(argv: List[str]) -> int:
    """``repro serve``: run the optimization-as-a-service daemon."""
    from .server import ConfigError, OptimizationServer, ServeConfig

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived HTTP/JSON optimization daemon: "
                    "POST /v1/optimize, GET /v1/jobs/<id>, "
                    "GET /v1/healthz, GET /v1/metrics "
                    "(wire protocol: docs/SERVER.md)",
    )
    parser.add_argument("--config", type=Path, default=None, metavar="TOML",
                        help="serve.toml with targets, limits, tenant "
                             "budgets, and worker counts (flags below "
                             "override it)")
    parser.add_argument("--host", default=None,
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port; 0 picks an ephemeral port "
                             "(default 8135)")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        metavar="N",
                        help="queue worker threads = concurrent "
                             "saturations (default 2)")
    parser.add_argument("--pool-workers", type=int, default=None,
                        metavar="N",
                        help="warm persistent fork-pool size; 0 runs "
                             "jobs in-process (default 2)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = (ServeConfig.load(args.config) if args.config
                  else ServeConfig())
        from dataclasses import replace as dc_replace

        overrides = {}
        if args.host is not None:
            overrides["host"] = args.host
        if args.port is not None:
            overrides["port"] = args.port
        if args.workers is not None:
            overrides["queue_workers"] = args.workers
        if args.pool_workers is not None:
            overrides["pool_workers"] = args.pool_workers
        if overrides:
            config = dc_replace(config, **overrides)
        server = OptimizationServer(config)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    server.verbose = not args.quiet
    # SIGTERM (``kill``, service managers) takes the Ctrl-C path, so
    # ``server.stop()`` below shuts the warm pool's workers down too.
    signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    server.start()
    # The announce line is part of the contract: tests and the CI
    # smoke script bind --port 0 and parse the ephemeral port here.
    print(f"repro serve: listening on {server.url} "
          f"(queue workers {config.queue_workers}, "
          f"pool workers {config.pool_workers}, "
          f"tenants {len(config.tenants)})", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _counter_by_labels(snapshot: dict, family: str, name: str) -> Dict[tuple, float]:
    """``(sorted label items) → value`` for one counter metric."""
    metric = ((snapshot.get("families") or {}).get(family) or {}).get(name)
    if not metric:
        return {}
    return {
        tuple(sorted((sample.get("labels") or {}).items())): sample["value"]
        for sample in metric.get("samples", ())
    }


def _histogram_by_tenant(snapshot: dict, family: str,
                         name: str) -> Dict[str, tuple]:
    """``tenant → (buckets, state)`` for one histogram metric."""
    metric = ((snapshot.get("families") or {}).get(family) or {}).get(name)
    if not metric:
        return {}
    buckets = list(metric.get("buckets") or ())
    out: Dict[str, tuple] = {}
    for sample in metric.get("samples", ()):
        labels = sample.get("labels") or {}
        out[str(labels.get("tenant", ""))] = (buckets, sample["value"])
    return out


def _quantile_cell(hists: Dict[str, tuple], tenant: str, q: float) -> str:
    from .obs.metrics import histogram_quantile

    entry = hists.get(tenant)
    if entry is None:
        return "-"
    estimate = histogram_quantile(entry[0], entry[1], q)
    return f"{estimate:.3f}s" if estimate is not None else "-"


def _render_top(url: str, health: dict, snapshot: dict,
                requests: Optional[List[dict]], limit: int) -> str:
    """One refresh of the ``repro top`` console, as plain text.

    Pure (data in, string out) so tests can drive it with canned
    payloads; the polling loop below owns the terminal.
    """
    lines: List[str] = []
    uptime = float(health.get("uptime_seconds", 0.0))
    lines.append(
        f"repro top — {url}   up {uptime:.0f}s   "
        f"{health.get('version', '?')} "
        f"(v{health.get('package_version', '?')})"
    )
    jobs = health.get("jobs") or {}
    pool = health.get("pool") or {}
    lines.append(
        f"queue depth {health.get('queue_depth', 0)} | jobs: "
        f"{jobs.get('queued', 0)} queued, {jobs.get('running', 0)} running, "
        f"{jobs.get('done', 0)} done, {jobs.get('failed', 0)} failed | "
        f"pool: {pool.get('workers', 0)} workers "
        f"({'warm' if pool.get('warm') else 'cold'})"
    )
    cache = health.get("cache") or {}
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    total = hits + misses
    rate = f"{100.0 * hits / total:.1f}%" if total else "n/a"
    obs = health.get("observability") or {}
    lines.append(
        f"cache: {hits} hits / {misses} misses (hit rate {rate}) | "
        f"events emitted: {obs.get('events_emitted', 0)}"
    )
    lines.append("")

    submitted = _counter_by_labels(snapshot, "server", "jobs_submitted_total")
    completed = _counter_by_labels(snapshot, "server", "jobs_completed_total")
    run_hist = _histogram_by_tenant(snapshot, "server", "job_seconds")
    e2e_hist = _histogram_by_tenant(snapshot, "server", "e2e_seconds")
    wait_hist = _histogram_by_tenant(snapshot, "server", "queue_wait_seconds")
    tenants = sorted(
        {dict(key).get("tenant", "") for key in submitted}
        | {dict(key).get("tenant", "") for key in completed}
    )
    header = (f"{'tenant':<14} {'rps':>7} {'done':>6} {'fail':>6} "
              f"{'p50 wait':>9} {'p50 run':>9} {'p95 run':>9} "
              f"{'p50 e2e':>9} {'p95 e2e':>9}")
    lines.append(header)
    if not tenants:
        lines.append("  (no jobs submitted yet)")
    for tenant in tenants:
        total_submitted = submitted.get((("tenant", tenant),), 0.0)
        rps = total_submitted / uptime if uptime > 0 else 0.0
        done = completed.get((("status", "done"), ("tenant", tenant)), 0)
        failed = completed.get((("status", "failed"), ("tenant", tenant)), 0)
        lines.append(
            f"{tenant:<14} {rps:>7.2f} {int(done):>6} {int(failed):>6} "
            f"{_quantile_cell(wait_hist, tenant, 0.5):>9} "
            f"{_quantile_cell(run_hist, tenant, 0.5):>9} "
            f"{_quantile_cell(run_hist, tenant, 0.95):>9} "
            f"{_quantile_cell(e2e_hist, tenant, 0.5):>9} "
            f"{_quantile_cell(e2e_hist, tenant, 0.95):>9}"
        )
    lines.append("")
    if requests is None:
        lines.append("recent requests: (debug endpoint unavailable — "
                     "pass --token for observability.debug_token)")
    else:
        lines.append(f"recent requests (newest first, showing "
                     f"{min(limit, len(requests))}):")
        lines.append(f"  {'trace_id':<18} {'tenant':<12} "
                     f"{'kernel/target':<22} {'outcome':<9} {'total':>8} "
                     f"stop_reason")
        for entry in requests[:limit]:
            kt = f"{entry.get('kernel', '?')}/{entry.get('target', '?')}"
            total_s = entry.get("total_seconds")
            total_text = f"{total_s:.3f}s" if total_s is not None else "-"
            lines.append(
                f"  {str(entry.get('trace_id', '-')):<18} "
                f"{str(entry.get('tenant', '-')):<12} {kt:<22} "
                f"{str(entry.get('outcome', '-')):<9} {total_text:>8} "
                f"{entry.get('stop_reason') or entry.get('code') or '-'}"
            )
    return "\n".join(lines)


def _top_main(argv: List[str]) -> int:
    """``repro top``: live console over a running daemon."""
    from .server import RemoteError, RemoteSession

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Poll a repro serve daemon's /v1/metrics and "
                    "/v1/debug/requests and render queue depth, "
                    "per-tenant latency quantiles, cache hit rate, and "
                    "the request flight recorder.",
    )
    parser.add_argument("url", help="daemon base URL, e.g. "
                                    "http://127.0.0.1:8135")
    parser.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                        help="refresh period (default 2s)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit (no screen "
                             "clearing; scripts and tests)")
    parser.add_argument("-n", type=_positive_int, default=10, metavar="N",
                        help="recent requests to show (default 10)")
    parser.add_argument("--tenant", default=None,
                        help="filter the flight recorder to one tenant")
    parser.add_argument("--token", default=None,
                        help="bearer token (tenant auth and/or "
                             "observability.debug_token)")
    args = parser.parse_args(argv)

    client = RemoteSession(args.url, token=args.token)
    while True:
        try:
            health = client.healthz()
            snapshot = client.metrics_json()
        except RemoteError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        try:
            requests = client.debug_requests(n=args.n, tenant=args.tenant)
        except RemoteError:
            requests = None  # debug auth required (or endpoint disabled)
        frame = _render_top(args.url, health, snapshot, requests, args.n)
        if args.once:
            print(frame)
            return 0
        # Clear + home, then the frame — a flicker-free poor man's top.
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "check-rules":
        return _check_rules_main(argv[1:])
    if argv and argv[0] == "check-egraph":
        return _check_egraph_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    args = _parser().parse_args(argv)
    kernel_names = args.kernels or registry.names()
    try:
        kernels = [registry.get(name) for name in kernel_names]
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    limits = Limits.from_env().override(
        args.steps, args.nodes, args.time_limit, args.scheduler,
        str(args.prune_from_profile) if args.prune_from_profile else None,
        args.extractor, args.top_k,
        check=args.check or None,
        trace=str(args.trace) if args.trace else None,
        metrics=True if args.metrics else None,
    )
    if args.remote:
        if args.trace or args.prune_from_profile:
            print("error: --trace and --prune-from-profile name "
                  "server-side file paths and are not available with "
                  "--remote", file=sys.stderr)
            return 2
        if args.cache_dir:
            print("note: --cache-dir is ignored with --remote "
                  "(the daemon owns the result cache)", file=sys.stderr)
        from .server.client import RemoteSession

        session = RemoteSession(args.remote, limits=limits,
                                tenant=args.tenant, token=args.token)
    else:
        session = Session(limits, cache_dir=args.cache_dir)
    all_reports: List = []
    if args.run and args.jobs != 1:
        print("note: --run executes solutions in-process; ignoring -j",
              file=sys.stderr)

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    def emit(name: str, content: str) -> None:
        if args.out:
            (args.out / name).write_text(content)
        if not args.quiet:
            print(content)

    exit_code = 0
    for target_name in args.targets:
        rows: List[SolutionRow] = []
        speedups: List[SpeedupRow] = []
        if args.jobs != 1 and not args.run:
            rows, failures = _parallel_rows(
                session, kernels, target_name, args, args.quiet, all_reports
            )
            if failures:
                exit_code = 1
        else:
            target = session.target(target_name)
            for kernel in kernels:
                started = time.perf_counter()
                report = session.report((kernel.name, target_name))
                elapsed = time.perf_counter() - started
                all_reports.append(report)
                row = _report_row(report, target_name, elapsed, args.quiet)
                if row is None:
                    exit_code = 1
                    continue
                rows.append(row)
                if args.run and report.solution is not None:
                    if not _time_and_check(
                        kernel, target, report, args.budget, speedups
                    ):
                        print(f"error: {kernel.name} solution mismatch",
                              file=sys.stderr)
                        exit_code = 1

        title = (
            f"Solutions for target {target_name} "
            f"(steps<={limits.step_limit}, nodes<={limits.node_limit})"
        )
        emit(f"{target_name}-overview.csv", solutions_csv(rows))
        emit(f"{target_name}-table.txt", render_solution_table(rows, title))
        if speedups:
            emit(f"{target_name}-speedups.csv", speedups_csv(speedups))
            emit(
                f"{target_name}-speedups.txt",
                render_speedup_table(speedups, f"Speedups vs reference ({target_name})"),
            )
    if args.rule_profile is not None:
        _write_rule_profile(args.rule_profile, limits, all_reports)
        if not args.quiet:
            print(f"rule profile written to {args.rule_profile}")
    if args.provenance is not None:
        _write_provenance(args.provenance, limits, all_reports)
        if not args.quiet:
            print(f"provenance written to {args.provenance}")
    if args.metrics is not None:
        if args.remote:
            # The daemon owns the engine/cache counters; snapshot its
            # Prometheus exposition instead of merging local reports.
            args.metrics.parent.mkdir(parents=True, exist_ok=True)
            args.metrics.write_text(session.metrics_text())
        else:
            _write_metrics(args.metrics, session, all_reports)
        if not args.quiet:
            print(f"metrics written to {args.metrics}")
    if args.trace is not None and not args.quiet:
        print(f"trace written to {args.trace}")
    return exit_code


def run() -> int:
    """:func:`main` for ``python -m repro``: a reader that closes the
    pipe early (``python -m repro ... | head``) ends the run quietly
    with status 1 instead of a ``BrokenPipeError`` traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again on exit; point it at
        # /dev/null so that flush cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run())
