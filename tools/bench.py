#!/usr/bin/env python
"""Fold perfbench runs of a parent and a change into a BENCH_*.json file.

``perfbench/run.py`` prints two JSON lines per run (a header with the
machine block, then the result line with ``correct`` and the end-to-end
metrics) and writes ``perfbench/out/<workload>/details.json``: the raw
per-pair samples and the per-step signature hashes every pair produced.
Keep both for each run of alternating parent/change runs of one
workload in one directory, named by side and seed::

    <dir>/parent-<seed>.out   <dir>/parent-<seed>.details.json
    <dir>/change-<seed>.out   <dir>/change-<seed>.details.json

and this tool records, for the workload:

* the machine block of the runs' header lines;
* every end-to-end metric BENCHMARK.json declares, as each side's
  per-run samples from the result lines, with both medians, the
  parent's interquartile range and in how many pairs (same seed) the
  change was better;
* compile workloads: per pair, each run's median reference seconds
  (perfbench's own ``compile_workloads.reference``, whose sum over
  pairs is ``compile_s``);
* signature hashes per side, and whether the sides agree (``None``
  for served-mix, whose details record none);
* deterministic op counts from one in-process saturation per pair of
  the workload, on the checkout the tool runs from: matches found,
  admitted (the per-step ``matches`` summed), applied and effective,
  unions and e-nodes added.

Each invocation updates one workload's entry of ``--out`` (created if
missing), so the three workloads fold into one file::

    python tools/bench.py --out BENCH_18.json --workload deep-blas --runs DIR

Standard library plus ``repro`` (and perfbench's modules) only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from compile_workloads import reference  # noqa: E402

#: RuleStats counters summed into the op counts.
OP_FIELDS = ("matches_found", "matches_applied", "effective_applications",
             "unions", "nodes_added")

SIDES = ("parent", "change")


def parse_pair(key: str) -> tuple:
    """``"gemv/blas@5"`` → ``("gemv", "blas", 5)``."""
    kernel_target, steps = key.rsplit("@", 1)
    kernel, target = kernel_target.split("/", 1)
    return kernel, target, int(steps)


def load_runs(directory: Path) -> Dict[str, Dict[int, Dict[str, Any]]]:
    """``{side: {seed: {"header", "result", "details"}}}``."""
    runs: Dict[str, Dict[int, Dict[str, Any]]] = {side: {} for side in SIDES}
    for out in sorted(directory.glob("*.out")):
        found = re.fullmatch(r"(parent|change)-(\d+)\.out", out.name)
        if not found:
            continue
        lines = [json.loads(line) for line in out.read_text().splitlines()
                 if line.startswith("{")]
        header = next(line for line in lines if "machine" in line)
        result = next(line for line in lines if "metrics" in line)
        details = out.with_name(out.name[:-len(".out")] + ".details.json")
        runs[found.group(1)][int(found.group(2))] = {
            "header": header, "result": result,
            "details": json.loads(details.read_text()),
        }
    return runs


def quartile_range(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def compare(parent: List[float], change: List[float],
            better: str) -> Dict[str, Any]:
    """Both sides' samples, medians, the parent's IQR, and the pairs
    (parent run i, change run i) in which the change was better."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = (lambda p, c: c < p) if better == "lower" else (lambda p, c: c > p)
    return {
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "parent_iqr": quartile_range(parent),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "change_better_pairs": sum(wins(p, c) for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def pair_seconds(runs: Sequence[Mapping[str, Any]]) -> Dict[str, List[float]]:
    """Per pair, each run's median reference seconds."""
    out: Dict[str, List[float]] = {}
    for run in runs:
        for key, row in sorted(run["details"]["pairs"].items()):
            if row["wall_s"]:
                out.setdefault(key, []).extend(reference(
                    {key: row["wall_s"]}, {key: row["slowdown"]}))
    return out


def signatures(runs: Sequence[Mapping[str, Any]]) -> Dict[str, List[str]]:
    seen: Dict[str, set] = {}
    for run in runs:
        for key, hashes in (run["details"].get("signatures") or {}).items():
            seen.setdefault(key, set()).update(hashes)
    return {key: sorted(seen[key]) for key in sorted(seen)}


def op_counts(pair_keys: Sequence[str]) -> Dict[str, Dict[str, int]]:
    """One in-process saturation per pair; summed per-rule counters."""
    from repro.api import Limits, Session

    out: Dict[str, Dict[str, int]] = {}
    for key in pair_keys:
        kernel, target, steps = parse_pair(key)
        result = Session(Limits(step_limit=steps, time_limit=1e9)).optimize(
            kernel, target)
        stats = result.run.rule_stats.values()
        counts = {name: sum(getattr(s, name) for s in stats) for name in OP_FIELDS}
        counts["matches_admitted"] = sum(step.matches for step in result.run.steps)
        counts["enodes"] = result.final.enodes
        out[key] = counts
    return out


def fold(directory: Path) -> Dict[str, Any]:
    runs = load_runs(directory)
    seeds = sorted(set(runs["parent"]) & set(runs["change"]))
    if not seeds:
        raise ValueError(f"no seed has both a parent and a change run in {directory}")
    side_runs = {side: [runs[side][seed] for seed in seeds] for side in SIDES}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    entry: Dict[str, Any] = {
        "machine": side_runs["change"][0]["header"]["machine"],
        "seeds": seeds,
        "correct": {side: [run["result"]["correct"] for run in side_runs[side]]
                    for side in SIDES},
        "failures": {side: [run["details"].get("failures", [])
                            for run in side_runs[side]] for side in SIDES},
        "metrics": {
            metric["name"]: compare(
                *[[run["result"]["metrics"][metric["name"]]["value"]
                   for run in side_runs[side]] for side in SIDES],
                metric["better"])
            for metric in declared
        },
    }
    if "pairs" in side_runs["change"][0]["details"]:
        entry["pair_seconds"] = {side: pair_seconds(side_runs[side])
                                 for side in SIDES}
    parent_sigs, change_sigs = (signatures(side_runs[side]) for side in SIDES)
    # served-mix records no signatures: nothing to compare.
    entry["signatures"] = {
        "parent": parent_sigs, "change": change_sigs,
        "identical": (parent_sigs == change_sigs
                      if parent_sigs or change_sigs else None),
    }
    entry["op_counts"] = op_counts(
        sorted(side_runs["change"][0]["details"].get("pairs") or {}))
    return entry


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=Path, required=True,
                        help="directory of {parent,change}-<seed>.out and "
                             ".details.json files")
    args = parser.parse_args(argv)
    data: Dict[str, Any] = {}
    if args.out.exists():
        data = json.loads(args.out.read_text())
    data["schema"] = "repro-bench/2"
    data.setdefault("workloads", {})[args.workload] = fold(args.runs)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
