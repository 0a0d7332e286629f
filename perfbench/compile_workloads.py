"""The two compile workloads: ``deep-blas`` and ``breadth-shallow``.

A unit of work is one *pair* (kernel, target, step limit) taken from
the kernel to a runnable solution: ``Session.optimize`` on a fresh
session (no disk cache, so nothing is reused) followed by
``compile_term`` of the best term.  Pairs run one at a time, round
robin, until every pair has run once and the window has elapsed.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from common import (
    PHASES,
    PROGRAMS_BUDGET_S,
    Failures,
    check_solution,
    geomean,
    load_expected,
    measure_setup,
    median_time,
    pair_key,
    peak_rss_mb,
    percentile,
    saturation_metrics,
    self_times,
    signature_hash,
    summarize_programs,
    time_programs,
    write_details,
    write_trace,
)

#: Lifts the wall-clock limit: runs stop on steps or nodes only, so
#: their work does not depend on how busy the machine is.
NO_TIME_LIMIT = 3600.0

#: gemv carries the candidate-materialization hot spot, vsum the
#: intro-rule class rescans.  axpy/blas, the third step-5 idiom, is left
#: out so one run fits the time the benchmark may take.
DEEP_KERNELS = ("gemv", "vsum")

SERVER_METRICS = (
    "server.start_s", "server.healthz_s", "server.submit_s",
    "server.hit_run_s", "server.miss_run_s", "server.queue_wait_p50_s",
    "server.queue_wait_p95_s", "server.polls_per_request",
)

Pair = Tuple[str, str, int]


def workload_pairs(workload: str) -> List[Pair]:
    if workload == "deep-blas":
        return [(kernel, "blas", 5) for kernel in DEEP_KERNELS]
    from repro.experiments import TABLE_KERNELS

    return [(kernel, target, 2) for kernel in TABLE_KERNELS
            for target in ("blas", "pytorch")]


class Bench:
    """One compile-workload run: targets, gates and collected samples."""

    def __init__(self, workload: str, seed: int, sampler=None) -> None:
        from repro.api import target_registry
        from repro.kernels import registry

        self.workload = workload
        self.seed = seed
        self.pairs = workload_pairs(workload)
        self.kernels = registry
        t0 = time.perf_counter()
        self.targets = {name: target_registry.get(name)
                        for name in ("blas", "pytorch")}
        self.targets_build_s = time.perf_counter() - t0
        self.expected = load_expected()
        self.failures = Failures()
        self.sampler = sampler
        self.hashes: Dict[str, set] = {}
        #: The session of each pair's first run, kept for the api layer.
        self.sessions: Dict[Pair, Any] = {}

    def compile(self, pair: Pair, tracer=None):
        """Kernel to runnable solution on a fresh session; returns
        (result, wall seconds, cpu seconds, session)."""
        from repro.api import Limits, Session
        from repro.backend.numpy_compiler import compile_term

        kernel, target, steps = pair
        session = Session(Limits(step_limit=steps, time_limit=NO_TIME_LIMIT))

        def span(name: str):
            return tracer.span(name, cat="bench") if tracer else nullcontext()

        t0, c0 = time.perf_counter(), time.process_time()
        with span(f"api.optimize:{pair_key(*pair)}"):
            result = session.optimize(kernel, self.targets[target], trace=tracer)
        with span("backend.lower"):
            compile_term(result.best_term)
        return (result, time.perf_counter() - t0,
                time.process_time() - c0, session)

    def gate(self, pair: Pair, result) -> None:
        """The correctness gate of one execution of ``pair``."""
        key = pair_key(*pair)
        digest = signature_hash(result.run)
        self.hashes.setdefault(key, set()).add(digest)
        want = self.expected["pairs"][key]
        reason: Optional[str] = None
        if result.run.stop_reason == "time_limit":
            reason = "stopped at the time limit"
        elif result.final.best_cost != want["cost"]:
            reason = f"best cost {result.final.best_cost!r} != {want['cost']!r}"
        elif digest != want["signature"]:
            reason = f"signature {digest} != {want['signature']}"
        else:
            reason = check_solution(self.kernels.get(pair[0]),
                                    result.best_term, self.seed)
        self.failures.record(key, reason)

    def run_pass(self, window_s: float, tracer=None, keep: bool = False):
        """Round-robin over the pairs until each ran once and
        ``window_s`` elapsed; returns per-pair wall and CPU seconds,
        the CPU's slowdown while each ran (1.0 without a sampler) and
        the results.

        Results drop their e-graph, and sessions are let go, unless
        ``keep``: held graphs would make peak memory depend on how many
        pairs a run repeats instead of on the program."""
        walls: Dict[Pair, List[float]] = {p: [] for p in self.pairs}
        cpus: Dict[Pair, List[float]] = {p: [] for p in self.pairs}
        slow: Dict[Pair, List[float]] = {p: [] for p in self.pairs}
        results: Dict[Pair, Any] = {}
        live = list(self.pairs)
        start = time.perf_counter()
        index = 0
        while live:
            if index >= len(self.pairs) and time.perf_counter() - start >= window_s:
                break
            pair = live[index % len(live)] if index >= len(self.pairs) \
                else self.pairs[index]
            index += 1
            if pair not in live:
                continue
            try:
                result, wall, cpu, session = self.compile(pair, tracer)
            except Exception as error:  # a failing pair is a result
                self.failures.record(pair_key(*pair), repr(error))
                live.remove(pair)
                continue
            end = time.perf_counter()
            self.gate(pair, result)
            walls[pair].append(wall)
            cpus[pair].append(cpu)
            slow[pair].append(self.sampler.slowdown(end - wall, end)
                              if self.sampler else 1.0)
            if pair not in results:
                results[pair] = result if keep else replace(result, egraph=None)
                if keep:
                    self.sessions[pair] = session
        return walls, cpus, slow, results

    def programs(self, results) -> Dict[str, Any]:
        """Lower and time every solution against its kernel's original
        term on seed-drawn inputs (fig. 7's generated-code speed-up)."""
        timings = []
        for (kernel_name, _, _), result in results.items():
            kernel = self.kernels.get(kernel_name)
            timings.append(time_programs(kernel.term, result.best_term,
                                         kernel.inputs(self.seed),
                                         PROGRAMS_BUDGET_S / len(results)))
        return summarize_programs(timings)


def reference(samples: Dict[Pair, List[float]],
              slow: Dict[Pair, List[float]]) -> List[float]:
    """Per-pair median of the samples in reference seconds."""
    return [statistics.median(s / f for s, f in zip(samples[p], slow[p]))
            for p in samples if samples[p]]


def run_end_to_end(workload: str, seed: int, seconds: float,
                   sampler) -> Dict[str, Any]:
    """Every time is in reference seconds (calibrate.py)."""
    setup = measure_setup(sampler=sampler)
    bench = Bench(workload, seed, sampler)
    walls, cpus, slow, results = bench.run_pass(seconds)
    if not results:
        raise RuntimeError("no pair produced a result")
    per_pair = reference(walls, slow)
    compile_cpu = sum(reference(cpus, slow))
    programs = bench.programs(results)
    metrics = {
        "setup_s": setup["setup_s"]["median"],
        "compile_s": sum(per_pair),
        "compile_cpu_s": compile_cpu,
        "best_cost_geomean": geomean(r.final.best_cost for r in results.values()),
        "gen_speedup_geomean": programs["gen_speedup_geomean"],
        "peak_rss_mb": peak_rss_mb(),
        "serve_rps": len(per_pair) / sum(per_pair),
        "serve_p50_s": percentile(per_pair, 50),
        "serve_p95_s": percentile(per_pair, 95),
    }
    write_details(workload, {
        "seed": seed, "setup": setup,
        "pairs": {pair_key(*p): {"wall_s": walls[p], "cpu_s": cpus[p],
                                 "slowdown": slow[p]}
                  for p in bench.pairs},
        "signatures": {k: sorted(v) for k, v in bench.hashes.items()},
        "failures": bench.failures.reasons,
    })
    return {"metrics": metrics, "failures": bench.failures}


def fixture_layers(results, targets, tracer) -> Dict[str, float]:
    """Micro-benchmarks on the final e-graph of every pair: candidate
    materialization, var/const class scans, e-matching, term hashing
    and greedy extraction."""
    from repro.egraph.rewrite import const_classes, var_classes
    from repro.extraction.greedy import GreedyExtractor

    out = {"egraph.candidates_s": 0.0, "egraph.var_classes_s": 0.0,
           "egraph.ematch_s": 0.0, "egraph.ematch_matches": 0,
           "ir.term_hash_s": 0.0, "extraction.greedy_s": 0.0}
    for (_, target_name, _), result in results.items():
        egraph = result.egraph
        target = targets[target_name]
        with tracer.span("egraph.candidates", cat="bench"):
            t0 = time.perf_counter()
            terms = [term for class_id in egraph.class_ids()
                     for term in egraph.extract_candidates(class_id, 4)]
            out["egraph.candidates_s"] += time.perf_counter() - t0
        with tracer.span("ir.term_hash", cat="bench"):
            t0 = time.perf_counter()
            for term in terms:
                hash(term)
            out["ir.term_hash_s"] += time.perf_counter() - t0
        with tracer.span("egraph.var_classes", cat="bench"):
            out["egraph.var_classes_s"] += median_time(
                lambda: (var_classes(egraph), const_classes(egraph)), 5)
        with tracer.span("egraph.ematch", cat="bench"):
            t0 = time.perf_counter()
            for rule in target.rules:
                out["egraph.ematch_matches"] += len(rule.search(egraph))
            out["egraph.ematch_s"] += time.perf_counter() - t0
        with tracer.span("extraction.greedy", cat="bench"):
            t0 = time.perf_counter()
            GreedyExtractor(egraph, target.cost_model).extract(result.root_class)
            out["extraction.greedy_s"] += time.perf_counter() - t0
    return out


def run_traced(workload: str, seed: int, seconds: float,
               sampler) -> Dict[str, Any]:
    """The per-layer run: an untraced pass (the overhead baseline and
    the e-graph fixtures), then a traced pass with a Tracer threaded
    through ``trace=`` and benchmark spans around each layer call."""
    from repro.api import Limits, OptimizationReport
    from repro.obs.trace import Tracer

    setup = measure_setup(5)
    bench = Bench(workload, seed, sampler)
    plain_walls, _, plain_slow, plain_results = bench.run_pass(0.0, keep=True)
    tracer = Tracer()
    walls, _, slow, results = bench.run_pass(0.0, tracer, keep=True)
    if not results:
        raise RuntimeError("no pair produced a result")
    # Measured seconds, comparable with the phase spans' ...
    traced = sum(statistics.median(v) for v in walls.values() if v)
    # ... and reference seconds for the overhead, so that a slow spell
    # in one of the two passes does not read as tracing cost.
    overhead = sum(reference(walls, slow)) / sum(reference(plain_walls, plain_slow)) - 1

    with tracer.span("backend.programs", cat="bench"):
        programs = bench.programs(results)
    layers = fixture_layers(plain_results, bench.targets, tracer)

    # api: a memory-tier hit and a report round trip on a warm session.
    pair = next(iter(results))
    result, session = results[pair], bench.sessions[pair]
    # Every pair ran on a fresh session, so the ratio reads 0 here.
    hit_ratio = session.cache.stats.hits / max(
        1, session.cache.stats.hits + session.cache.stats.misses)
    with tracer.span("api.cache_hit", cat="bench"):
        hit_s = median_time(
            lambda: session.optimize(pair[0], bench.targets[pair[1]]), 101)
    limits = Limits(step_limit=pair[2], time_limit=NO_TIME_LIMIT)
    with tracer.span("api.report", cat="bench"):
        report_s = median_time(lambda: json.dumps(
            OptimizationReport.from_result(result, limits).to_dict()), 21)

    table = self_times(tracer.events)
    write_trace(workload, tracer, table)

    # Phase times are the engine's phase spans, whose per-rule child
    # spans belong to the same layer; counts come from each RunResult.
    metrics = saturation_metrics(
        {p: table.get(p, {}).get("total_s", 0.0) for p in PHASES},
        [row.to_dict() for r in results.values()
         for row in r.run.rule_stats.values()],
        sum(r.final.enodes for r in results.values()), traced)
    metrics.update({
        "backend.lower_s": programs["lower_s"],
        "backend.solution_run_s": programs["solution_run_s"],
        "backend.reference_run_s": programs["reference_run_s"],
        "targets.build_s": bench.targets_build_s,
        "setup.import_s": setup["import_s"],
        "api.cache_hit_s": hit_s,
        "api.report_s": report_s,
        "api.hit_ratio": hit_ratio,
        "obs.trace_overhead": overhead,
    })
    metrics.update(layers)
    # No daemon runs on the compile workloads: the server layer reads 0.
    metrics.update({name: 0.0 for name in SERVER_METRICS})
    return {"metrics": metrics, "failures": bench.failures}
