"""The ``served-mix`` workload: a ``repro serve`` daemon under a
seeded, Zipf-weighted replay from one closed-loop client.

The daemon runs as its own process (so the client never contends for
its interpreter lock) with one queue worker, no process pool and a
fresh disk cache per run, on the benchmark's one CPU: one request is
in flight at a time, so its latency is the work it took, not how the
scheduler interleaved it with others.  A pool process added nothing
on one CPU but a hand-off, and made the same miss take up to a third
longer in one run than in the next.  The stream holds every one of the
64 keys (16 kernels x 2 targets x step limit 1, 2) once and 176
Zipf-weighted repeats, so three requests in four are cache hits (see
``request_stream``).  The client sends its next request only after
the previous one is done, polling every ``POLL_S`` seconds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.server.client import RemoteSession

from common import (
    PHASES,
    PROGRAMS_BUDGET_S,
    BENCH_DIR,
    OUT_DIR,
    REPO_ROOT,
    Failures,
    check_solution,
    child_env,
    geomean,
    load_expected,
    measure_setup,
    median_time,
    pair_key,
    percentile,
    quartiles,
    saturation_metrics,
    self_times,
    summarize_programs,
    time_programs,
    write_details,
    write_trace,
)

#: Requests stop being issued after this long, as a safety stop; a
#: whole replay takes about 25 s on the reference box.
REPLAY_CAP_S = 120.0
#: Daemon launches per run; ``setup_s`` is the median launch-to-ready.
SERVE_STARTS = 5
CLIENTS = 1
#: Poll interval, slept before every status poll (the first too, so a
#: hit's latency is one interval plus two round trips, never bimodal).
POLL_S = 0.005
HITS_PER_BLOCK = 2
#: Requests per replay.  The 24 step-2 misses of the heavier kernels
#: form the slowest cluster (0.4-2.7 s) above a cliff down to 0.25 s.
#: At 240 requests the 12 beyond p95 are the middle of that cluster,
#: where the misses lie a few percent apart; near its thin lower end
#: or the cliff, one miss running slow would move p95 by a fifth.
STREAM = 240
LAG = 6
ZIPF_S = 1.0

Key = Tuple[str, str, int]


def all_keys() -> List[Key]:
    from repro.experiments import TABLE_KERNELS

    return [(kernel, target, steps) for kernel in TABLE_KERNELS
            for target in ("blas", "pytorch") for steps in (1, 2)]


def request_stream(seed: int) -> List[Key]:
    """64 blocks, each one key's first request followed by
    ``HITS_PER_BLOCK`` Zipf-weighted repeats, then a tail of repeats
    up to ``STREAM`` requests.

    The first requests come in a fixed key order at fixed places, so
    the saturation work and its schedule are the same for every seed;
    the seed decides which keys are popular and so which repeats are
    drawn.  A repeat only names a key first requested ``LAG`` blocks
    earlier, so the repeat finds the result cached instead of racing
    the first request into a second saturation.  The tail lets one
    client keep working while the other finishes the last saturation.
    """
    rng = random.Random(seed)
    keys = all_keys()
    ranked = list(keys)
    rng.shuffle(ranked)
    weight = {key: 1.0 / (rank + 1) ** ZIPF_S for rank, key in enumerate(ranked)}

    def repeats(eligible: List[Key], count: int) -> List[Key]:
        if not eligible:
            return []
        return rng.choices(eligible, [weight[k] for k in eligible], k=count)

    stream: List[Key] = []
    for block, key in enumerate(keys):
        stream.append(key)
        stream.extend(repeats(keys[:max(0, block - LAG)], HITS_PER_BLOCK))
    return stream + repeats(keys, STREAM - len(stream))


# -- daemon lifecycle ------------------------------------------------------

class Daemon:
    """One ``repro serve`` process in its own process group."""

    def __init__(self, run_dir: Path) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        config = (BENCH_DIR / "serve.toml").read_text(encoding="utf-8")
        cache = run_dir / "cache"
        config = config.replace(
            "[server]\n", f"[server]\ncache_dir = {json.dumps(str(cache))}\n", 1)
        config_path = run_dir / "serve.toml"
        config_path.write_text(config, encoding="utf-8")
        self.log = open(run_dir / "daemon.log", "w", encoding="utf-8")
        self.t0 = t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--config",
             str(config_path), "-q"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=REPO_ROOT, text=True, start_new_session=True,
        )
        line = self.proc.stdout.readline()
        self.start_s = time.perf_counter() - t0
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        url = line.split("listening on ", 1)[1].split()[0]
        self.client = RemoteSession(url, timeout=120)
        while True:  # up, with its pool (if it has one) warm
            pool = self.client.healthz().get("pool", {})
            if pool.get("warm") or not pool.get("workers"):
                break
            time.sleep(0.01)
        self.t_ready = time.perf_counter()

    def pids(self) -> List[int]:
        """The daemon and its pool children."""
        pids = [self.proc.pid]
        try:
            for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
                children = (task / "children").read_text().split()
                pids.extend(int(pid) for pid in children)
        except OSError:
            pass
        return pids

    def cpu_s(self) -> float:
        """User + system CPU seconds of the daemon and its children."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / ticks

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the daemon and its children."""
        total = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        return total / 1024.0

    def stop(self) -> None:
        """Stop the daemon and wait until its whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=20)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline - 10:
                os.killpg(self.proc.pid, signal.SIGKILL)
            time.sleep(0.05)
        self.proc.stdout.close()
        self.log.close()


# -- traffic ---------------------------------------------------------------

def replay(daemon: Daemon, stream: List[Key],
           lanes: Optional[list] = None) -> List[Dict[str, Any]]:
    """``CLIENTS`` closed-loop clients work through the whole
    ``stream``; one record per request."""
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    cursor = iter(stream)
    start = time.perf_counter()

    def client(lane) -> None:
        while time.perf_counter() - start < REPLAY_CAP_S:
            with lock:
                key = next(cursor, None)
            if key is None:
                return
            records.append(one_request(daemon.client, key, lane))

    threads = [threading.Thread(target=client,
                                args=(lanes[i] if lanes else None,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def one_request(client, key: Key, lane) -> Dict[str, Any]:
    kernel, target, steps = key
    record: Dict[str, Any] = {"key": key, "polls": 0}
    record["t0"] = t0 = time.perf_counter()
    try:
        job_id = client.submit(
            {"kernel": kernel, "target": target, "step_limit": steps})
        record["submit_s"] = time.perf_counter() - t0
        while True:
            time.sleep(POLL_S)
            job = client.job(job_id)
            record["polls"] += 1
            if job["status"] in ("done", "failed"):
                break
        record["t1"] = time.perf_counter()
        record["latency_s"] = record["t1"] - t0
        record["job"] = {k: job.get(k) for k in
                         ("status", "created", "started", "finished", "error")}
        report = job.get("report") or {}
        record["report"] = {k: report.get(k) for k in
                            ("cache_hit", "best_cost", "solution", "stop_reason",
                             "seconds", "error", "enodes", "phase_seconds",
                             "rule_stats")}
    except Exception as error:  # a refused or broken request is a result
        record["error"] = repr(error)
    if lane is not None:
        lane.add_complete(f"request:{pair_key(*key)}", "bench", t0,
                          time.perf_counter() - t0)
        if "submit_s" in record:
            lane.add_complete("server.submit", "bench", t0, record["submit_s"])
    return record


# -- gates and metrics -----------------------------------------------------

def gate(records, seed: int, failures: Failures) -> Dict[Key, Dict[str, Any]]:
    """Gate every request; returns the first miss report per key."""
    from repro.ir.parser import parse
    from repro.kernels import registry

    expected = load_expected()["pairs"]
    verdicts: Dict[Tuple[Key, str], Optional[str]] = {}
    misses: Dict[Key, Dict[str, Any]] = {}
    for record in records:
        key = record["key"]
        name = pair_key(*key)
        report = record.get("report", {})
        reason = record.get("error") or record.get("job", {}).get("error") \
            or report.get("error")
        if reason is None:
            if report.get("stop_reason") == "time_limit":
                reason = "stopped at the time limit"
            elif report.get("best_cost") != expected[name]["cost"]:
                reason = f"best cost {report.get('best_cost')!r} != " \
                         f"{expected[name]['cost']!r}"
            else:
                solution = report["solution"]
                if (key, solution) not in verdicts:
                    verdicts[(key, solution)] = check_solution(
                        registry.get(key[0]), parse(solution), seed)
                reason = verdicts[(key, solution)]
        if failures.record(name, reason) and not report["cache_hit"]:
            misses.setdefault(key, report)
    return misses


def programs(misses: Dict[Key, Dict[str, Any]], seed: int) -> Dict[str, float]:
    """Fig. 7's speed-up over the served solutions, one timing per
    distinct solution (see compile_workloads)."""
    from repro.ir.parser import parse
    from repro.kernels import registry

    solutions = sorted({(kernel_name, report["solution"])
                        for (kernel_name, _, _), report in misses.items()})
    timings = []
    for kernel_name, text in solutions:
        kernel = registry.get(kernel_name)
        timings.append(time_programs(kernel.term, parse(text), kernel.inputs(seed),
                                     PROGRAMS_BUDGET_S / len(solutions)))
    return summarize_programs(timings)


def launch(run_dir: Path, starts: int) -> Tuple[Daemon, List[Tuple[float, float]],
                                                List[float]]:
    """Launch the daemon ``starts`` times; keep the last one running.
    Returns it, each launch's (spawn, ready) times and its seconds from
    spawn to the announce line."""
    ready: List[Tuple[float, float]] = []
    announce: List[float] = []
    daemon = None
    for _ in range(starts):
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        daemon = Daemon(run_dir)
        ready.append((daemon.t0, daemon.t_ready))
        announce.append(daemon.start_s)
    return daemon, ready, announce


def serve_run(seed: int, starts: int, lanes=None):
    run_dir = OUT_DIR / "served-mix" / f"run-{os.getpid()}"
    daemon, ready, announce = launch(run_dir, starts)
    try:
        stream = request_stream(seed)
        cpu0 = daemon.cpu_s()
        t0 = time.perf_counter()
        records = replay(daemon, stream, lanes)
        t1 = time.perf_counter()
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        health = daemon.client.healthz()
        healthz = []
        for _ in range(21):
            h0 = time.perf_counter()
            daemon.client.healthz()
            healthz.append(time.perf_counter() - h0)
    finally:
        daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"records": records, "t0": t0, "t1": t1, "cpu_s": cpu, "rss_mb": rss,
            "ready": ready, "announce": announce, "health": health,
            "healthz_s": statistics.median(healthz)}


def run_end_to_end(seed: int, sampler) -> Dict[str, Any]:
    """Every time is in reference seconds (calibrate.py); a request's
    poll sleeps are not CPU work and count as they are."""
    served = serve_run(seed, SERVE_STARTS)
    records = served["records"]
    failures = Failures()
    misses = gate(records, seed, failures)
    if not misses:
        raise RuntimeError("no request was served")
    setup = [sampler.reference_s(t0, t1) for t0, t1 in served["ready"]]
    latencies = []
    timed = [r for r in records if "latency_s" in r]
    first_miss: Dict[Key, Dict[str, Any]] = {}
    for r in timed:
        slept = r["polls"] * POLL_S
        latencies.append(slept + sampler.reference_s(
            r["t0"], r["t1"], r["latency_s"] - slept))
        if not r["report"]["cache_hit"]:
            first_miss.setdefault(r["key"], r)
    compile_s = sum(
        report["seconds"] / sampler.slowdown(first_miss[key]["t0"],
                                             first_miss[key]["t1"])
        for key, report in misses.items())
    replay_slowdown = sampler.slowdown(served["t0"], served["t1"])
    metrics = {
        "setup_s": statistics.median(setup),
        "compile_s": compile_s,
        "compile_cpu_s": served["cpu_s"] / replay_slowdown,
        "best_cost_geomean": geomean(r["best_cost"] for r in misses.values()),
        "gen_speedup_geomean": programs(misses, seed)["gen_speedup_geomean"],
        "peak_rss_mb": served["rss_mb"],
        "serve_rps": len(latencies) / sampler.reference_s(served["t0"], served["t1"]),
        "serve_p50_s": percentile(latencies, 50),
        "serve_p95_s": percentile(latencies, 95),
    }
    write_details("served-mix", {
        "seed": seed, "requests": len(records), "latency_samples": len(latencies),
        "misses": len(misses), "setup_s": quartiles(setup),
        "wall_s": served["t1"] - served["t0"], "slowdown": replay_slowdown,
        "slowest": sorted(((lat, pair_key(*r["key"]), r["report"]["cache_hit"])
                           for lat, r in zip(latencies, timed)), reverse=True)[:40],
        "health": served["health"],
        "failures": failures.reasons,
    })
    return {"metrics": metrics, "failures": failures}


def run_traced(seed: int, sampler) -> Dict[str, Any]:
    """The per-layer run: client spans on one lane per client, the
    daemon's own job timestamps and reports, and in-process api,
    e-graph and extraction layers on the stream's hottest key."""
    from repro.api import Limits, OptimizationReport
    from repro.obs.trace import Tracer

    from compile_workloads import Bench, fixture_layers

    tracer = Tracer()
    lanes = []
    for index in range(CLIENTS):
        lane = Tracer()
        lane.pid = index + 1  # one trace lane per client thread
        lanes.append(lane)
    setup = measure_setup(3)
    with tracer.span("served-mix", cat="bench"):
        served = serve_run(seed, 3, lanes)
    for lane in lanes:
        tracer.add_remote(lane.events)
    records = served["records"]
    failures = Failures()
    misses = gate(records, seed, failures)
    if not misses:
        raise RuntimeError("no request was served")

    # In-process layers on the hottest key of this seed's stream.
    stream = request_stream(seed)
    hot = max(set(stream), key=lambda k: (stream.count(k), k))
    bench = Bench("served-mix", seed)
    bench.pairs = [(hot[0], hot[1], 2)]
    pair = bench.pairs[0]
    untraced, traced = [], []
    for _ in range(3):  # alternated, and in reference seconds
        plain, seconds, _, _ = bench.compile(pair)
        end = time.perf_counter()
        untraced.append(sampler.reference_s(end - seconds, end))
        bench.gate(pair, plain)
        result, seconds, _, session = bench.compile(pair, tracer)
        end = time.perf_counter()
        traced.append(sampler.reference_s(end - seconds, end))
        bench.gate(pair, result)
    untraced, traced = statistics.median(untraced), statistics.median(traced)
    layers = fixture_layers({pair: plain}, bench.targets, tracer)
    with tracer.span("api.cache_hit", cat="bench"):
        hit_s = median_time(
            lambda: session.optimize(hot[0], bench.targets[hot[1]]), 101)
    limits = Limits(step_limit=2)
    with tracer.span("api.report", cat="bench"):
        report_s = median_time(lambda: json.dumps(
            OptimizationReport.from_result(result, limits).to_dict()), 21)
    with tracer.span("backend.programs", cat="bench"):
        progs = programs(misses, seed)

    table = self_times(tracer.events)
    write_trace("served-mix", tracer, table)

    jobs = [r for r in records if "job" in r and r["job"]["started"]]
    waits = [r["job"]["started"] - r["job"]["created"] for r in jobs]
    hit_runs = [r["job"]["finished"] - r["job"]["started"]
                for r in jobs if r["report"]["cache_hit"]]
    miss_runs = [r["job"]["finished"] - r["job"]["started"]
                 for r in jobs if not r["report"]["cache_hit"]]
    cache = served["health"]["cache"]
    metrics = saturation_metrics(
        {p: sum(r["phase_seconds"][p] for r in misses.values()) for p in PHASES},
        [row for r in misses.values() for row in (r["rule_stats"] or {}).values()],
        sum(r["enodes"] for r in misses.values()),
        sum(r["seconds"] for r in misses.values()))
    metrics.update({
        "backend.lower_s": progs["lower_s"],
        "backend.solution_run_s": progs["solution_run_s"],
        "backend.reference_run_s": progs["reference_run_s"],
        "targets.build_s": bench.targets_build_s,
        "setup.import_s": setup["import_s"],
        "api.cache_hit_s": hit_s,
        "api.report_s": report_s,
        "api.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "obs.trace_overhead": (traced - untraced) / untraced,
        "server.start_s": statistics.median(served["announce"]),
        "server.healthz_s": served["healthz_s"],
        "server.submit_s": statistics.median(
            r["submit_s"] for r in records if "submit_s" in r),
        "server.hit_run_s": statistics.median(hit_runs) if hit_runs else 0.0,
        "server.miss_run_s": statistics.median(miss_runs),
        "server.queue_wait_p50_s": percentile(waits, 50),
        "server.queue_wait_p95_s": percentile(waits, 95),
        "server.polls_per_request":
            sum(r["polls"] for r in records) / max(1, len(records)),
    })
    metrics.update(layers)
    failures.attempted += bench.failures.attempted
    failures.reasons.extend(bench.failures.reasons)
    return {"metrics": metrics, "failures": failures}
