"""perfbench: the repository's layered benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep-blas --seed 1 --seconds 25 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; see
``perfbench/README.md``.  With ``--trace 0`` the last line of standard
output is one JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric instead, and the traced
run also writes ``perfbench/out/<workload>/trace.json`` (Chrome trace
events) and ``selftime.txt``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]

    from calibrate import Sampler, pin
    from common import OUT_DIR, machine

    # One CPU for the benchmark, everything it starts and the sampler
    # that calibrates its times (calibrate.py).
    cpu = pin()
    with Sampler(cpu, OUT_DIR / args.workload / f"calib-{os.getpid()}.txt") as sampler:
        if args.workload == "served-mix":
            import served_mix as module

            # The served mix replays its whole stream whatever --seconds
            # says: the miss set and the hit share stay fixed (README).
            runner = module.run_traced if args.trace else module.run_end_to_end
            outcome = runner(args.seed, sampler)
        else:
            import compile_workloads as module

            runner = module.run_traced if args.trace else module.run_end_to_end
            outcome = runner(args.workload, args.seed, args.seconds, sampler)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome["metrics"]
    metrics = {}
    for metric in declared:
        metrics[metric["name"]] = {"value": float(values[metric["name"]]),
                                   "unit": metric["unit"]}
    failures = outcome["failures"]
    for reason in failures.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
