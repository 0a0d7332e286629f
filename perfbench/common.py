"""Helpers shared by the perfbench workloads.

Everything here measures the ``repro`` package from outside: it calls
public functions, reads counters their results already carry, and
records its own spans around each call into a layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreter starts per run; ``setup_s`` is their median.  A
#: single start varies by a third on a busy box, the median of nine
#: stays within a few percent.
SETUP_STARTS = 9

#: Timing budget of one side (solutions or originals) of a run's
#: generated programs, split evenly over its solution/original pairs
#: and over alternating rounds (fig. 7 runs each for a minute).  The 32
#: breadth-shallow pairs get 0.05 s a side each; the 2 deep-blas pairs
#: get 0.8 s, so a geomean of two ratios does not hang on a few runs.
PROGRAMS_BUDGET_S = 1.6
ROUNDS = 5

# Runs in a fresh interpreter: import, session, both paper targets.
_SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
from repro.api import Session
t1 = time.perf_counter()
session = Session()
session.target("blas")
session.target("pytorch")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "targets_s": t2 - t1}), flush=True)
"""


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on
    the path and no ``REPRO_*`` overrides leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, with the sample count."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive linear interpolation)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_time(fn, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(starts: int = SETUP_STARTS, sampler=None) -> Dict[str, Any]:
    """Fresh interpreter to ready to work, ``starts`` times in a row.

    Each start is timed from the parent's spawn to the child's ready
    line, so interpreter start-up counts; the child reports how much
    of it was ``import repro`` and how much building the targets.
    With a calibration ``sampler`` the starts are in reference seconds.
    """
    walls: List[float] = []
    imports: List[float] = []
    builds: List[float] = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD], stdout=subprocess.PIPE,
            env=child_env(), cwd=REPO_ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            walls.append(sampler.reference_s(t0, t1) if sampler else t1 - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line:
            raise RuntimeError("set-up child failed")
        parts = json.loads(line)
        imports.append(parts["import_s"])
        builds.append(parts["targets_s"])
    return {
        "setup_s": quartiles(walls),
        "import_s": statistics.median(imports),
        "targets_s": statistics.median(builds),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> Dict[str, Any]:
    """The machine block recorded beside every result."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def load_expected() -> Dict[str, Any]:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def pair_key(kernel: str, target: str, steps: int) -> str:
    return f"{kernel}/{target}@{steps}"


def signature_hash(run) -> str:
    """Hash of the per-step solution signature of a saturation run:
    e-nodes, e-classes, matches, unions, best cost and printed best
    term of every step.  Equal hashes mean byte-identical work."""
    from repro.ir.printer import pretty

    rows = [
        [s.step, s.enodes, s.eclasses, s.matches, s.unions,
         repr(s.best_cost),
         pretty(s.best_term) if s.best_term is not None else None]
        for s in run.steps
    ]
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def check_solution(kernel, term, seed: int) -> Optional[str]:
    """``None`` when the compiled solution matches the kernel's
    reference on seed-drawn inputs, else the reason it does not."""
    from repro.backend.executor import outputs_match
    from repro.backend.numpy_compiler import compile_term

    if term is None:
        return "no solution extracted"
    inputs = kernel.inputs(seed)
    got = compile_term(term)(inputs)
    if not outputs_match(got, kernel.reference(inputs)):
        return "compiled solution disagrees with the reference"
    return None


def time_programs(reference, solution, inputs: Mapping[str, Any],
                  budget_s: float) -> Dict[str, float]:
    """Lower two terms and time the generated programs against each
    other: ``ROUNDS`` alternating rounds, each the mean of the runs
    that fit in ``budget_s / ROUNDS`` a side (fig. 7's mean-of-runs).  The
    speed-up is the median of the per-round ratios, so a slow spell
    of the machine hits both sides of a ratio alike."""
    from repro.backend.executor import time_callable
    from repro.backend.numpy_compiler import compile_term

    t0 = time.perf_counter()
    program = compile_term(solution)
    lower_s = time.perf_counter() - t0
    baseline = compile_term(reference)
    program(inputs)  # warm-up
    baseline(inputs)
    budget = budget_s / ROUNDS
    ref_runs, sol_runs = [], []
    for _ in range(ROUNDS):
        ref_runs.append(time_callable(lambda: baseline(inputs), budget, 1).mean_seconds)
        sol_runs.append(time_callable(lambda: program(inputs), budget, 1).mean_seconds)
    return {
        "lower_s": lower_s,
        "reference_run_s": statistics.median(ref_runs),
        "solution_run_s": statistics.median(sol_runs),
        "speedup": statistics.median(r / s for r, s in zip(ref_runs, sol_runs)),
    }


def summarize_programs(timings: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Geomean speed-up and summed lowering/run times of many pairs."""
    return {
        "gen_speedup_geomean": geomean(t["speedup"] for t in timings),
        "lower_s": sum(t["lower_s"] for t in timings),
        "solution_run_s": sum(t["solution_run_s"] for t in timings),
        "reference_run_s": sum(t["reference_run_s"] for t in timings),
    }


PHASES = ("search", "apply", "rebuild", "extract")


def saturation_metrics(phase_s: Mapping[str, float],
                       rule_rows: Iterable[Mapping[str, Any]],
                       enodes: int, compile_s: float) -> Dict[str, float]:
    """The saturation layer: phase seconds, the exact work counts of
    the per-rule telemetry rows, and the derived ratios."""
    counts = {"matches_found": 0, "matches_applied": 0, "unions": 0}
    for row in rule_rows:
        for field in counts:
            counts[field] += row[field]
    metrics = {f"saturation.{p}_s": phase_s[p] for p in PHASES}
    metrics.update({f"saturation.{k}": v for k, v in counts.items()})
    metrics.update({
        "saturation.enodes": enodes,
        "saturation.union_yield":
            counts["unions"] / max(1, counts["matches_applied"]),
        "saturation.phase_coverage": sum(phase_s.values()) / compile_s,
    })
    return metrics


class Failures:
    """Attempted/failed bookkeeping with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []

    def record(self, what: str, reason: Optional[str]) -> bool:
        self.attempted += 1
        if reason is not None:
            self.reasons.append(f"{what}: {reason}")
        return reason is None

    @property
    def failed(self) -> int:
        return len(self.reasons)


# -- trace analysis ------------------------------------------------------

def self_times(events: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Self time per span name: each span's duration minus the part of
    its interval covered by its direct children (per process lane)."""
    table: Dict[str, Dict[str, float]] = {}
    lanes: Dict[int, List[Mapping[str, Any]]] = {}
    for event in events:
        lanes.setdefault(event["pid"], []).append(event)
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[List[Any]] = []  # [event, child seconds]

        def close(entry: List[Any]) -> None:
            event, child = entry
            row = table.setdefault(
                event["name"], {"cat": event["cat"], "total_s": 0.0,
                                "self_s": 0.0, "count": 0},
            )
            row["total_s"] += event["dur"]
            row["self_s"] += max(0.0, event["dur"] - child)
            row["count"] += 1

        for event in lane:
            end = event["ts"] + event["dur"]
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= event["ts"]:
                close(stack.pop())
            if stack and end <= stack[-1][0]["ts"] + stack[-1][0]["dur"] + 1e-9:
                stack[-1][1] += event["dur"]
            stack.append([event, 0.0])
        while stack:
            close(stack.pop())
    return table


def write_trace(workload: str, tracer, table: Mapping[str, Mapping[str, float]]) -> None:
    """Write the Chrome trace and the self-time table of a traced run
    under ``perfbench/out/<workload>/``."""
    out = OUT_DIR / workload
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(str(out / "trace.json"), session_name=f"perfbench:{workload}")
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'span':<40} {'cat':<10} {'count':>7} {'self_s':>10} "
             f"{'share':>7} {'total_s':>10}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name[:40]:<40} {row['cat']:<10} {row['count']:>7} "
            f"{row['self_s']:>10.4f} {row['self_s'] / total:>7.1%} "
            f"{row['total_s']:>10.4f}"
        )
    (out / "selftime.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_details(workload: str, details: Mapping[str, Any]) -> None:
    out = OUT_DIR / workload
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "details.json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1, sort_keys=True, default=str)
